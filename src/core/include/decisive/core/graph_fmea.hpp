// Automated FMEA on SSAM models — the paper's Algorithm 1.
//
// For every subcomponent c of the component under analysis, and every
// failure mode fm of c:
//   - if fm is of loss-of-function (or similar) nature: fm is a single-point
//     failure (safety-related) iff c lies on *all* input→output paths of the
//     parent component;
//   - otherwise a warning is emitted (line 11 of Algorithm 1) — unless the
//     modeller supplied explicit `affectedComponents` traceability (Figure
//     9), in which case the failure mode is safety-related iff one of the
//     affected components lies on all paths (or is the parent itself).
// The algorithm then recurses into composite subcomponents.
//
// The "lies on all paths" decision runs on ssam::SinglePointAnalysis — a
// dominator/cut analysis that never materialises paths, so dense components
// no longer abort with a path-explosion error. The per-component analyses of
// the recursive walk are independent const reads of the model and run on a
// thread pool (`jobs`); rows, warnings and model write-backs are emitted by a
// serial walk afterwards, so the output is byte-identical for any job count.
//
// The analysis also *writes back* its verdicts: each FailureMode's
// `safetyRelated` attribute is set, and a FailureEffect child with the
// DVF/IVF classification is attached — the "component safety analysis
// model" artefact of DECISIVE Step 4a. Re-running updates the previously
// attached effect in place, so the iterative DECISIVE loop does not
// accumulate duplicates.
#pragma once

#include "decisive/core/fmeda.hpp"
#include "decisive/core/safety_mechanism.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::core {

struct GraphFmeaOptions {
  /// Recurse into subcomponents that are themselves composite.
  bool recursive = true;
  /// Worker threads for the per-component analyses (0 = hardware
  /// concurrency). Output is identical for any value.
  int jobs = 1;
  /// Natures treated as "loss of function or similar" by Algorithm 1 line 5.
  std::vector<std::string> loss_natures = {"lossOfFunction", "loss", "open",
                                           "omission", "no output"};
  /// When true, deploy each failure mode's highest-coverage SafetyMechanism
  /// already modelled on its component (SSAM-side Step 4b).
  bool apply_modelled_mechanisms = true;
  /// Flight-recorder heartbeat JSON for the scaled analysis ("" = disabled);
  /// ticked once per analysis unit, folded by `same status` like the
  /// campaign heartbeats (obs/progress.hpp).
  std::string heartbeat_path;
  /// Minimum seconds between heartbeat writes (0 = publish on every unit).
  double heartbeat_interval_seconds = 1.0;
};

/// Observability of one analyze_component run.
struct GraphFmeaStats {
  size_t units = 0;  ///< composite components the walk visited
};

/// Runs Algorithm 1 on `component` (a composite SSAM Component). Mutates the
/// model: failure modes get their `safetyRelated` verdict and a
/// FailureEffect. Throws AnalysisError when the component has no boundary
/// IONodes or an IONode carries an invalid `direction`.
///
/// `stats` (optional) receives the number of analysis units.
FmedaResult analyze_component(ssam::SsamModel& ssam, ssam::ObjectId component,
                              const GraphFmeaOptions& options = {},
                              GraphFmeaStats* stats = nullptr);

}  // namespace decisive::core
