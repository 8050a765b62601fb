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
// GraphFmea keeps that walk resident: after an edit it re-analyses and
// re-emits only the units the edited component belongs to (DESIGN.md §8–9).
//
// The analysis also *writes back* its verdicts: each FailureMode's
// `safetyRelated` attribute is set, and a FailureEffect child with the
// DVF/IVF classification is attached — the "component safety analysis
// model" artefact of DECISIVE Step 4a. Re-running updates the previously
// attached effect in place, so the iterative DECISIVE loop does not
// accumulate duplicates.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "decisive/core/fmeda.hpp"
#include "decisive/core/safety_mechanism.hpp"
#include "decisive/ssam/graph.hpp"
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

/// Observability of one analysis run.
struct GraphFmeaStats {
  size_t units = 0;     ///< composite components the walk visits
  size_t analysed = 0;  ///< units this run re-analysed (all of them when cold)
};

/// Algorithm 1 kept resident across the edits of one model: the session's
/// edit loop (DESIGN.md §9). For each analysis unit it keeps the unit's
/// single-point verdicts and, for each of its subcomponents, the span of
/// rows and warnings that subcomponent emitted, in walk order. `mark` names
/// the component an edit changed; the next `analyze` rebuilds the graph and
/// verdicts of only the units that edit can reach, re-emits their rows,
/// warnings and model write-backs, and splices their spans in place. Rows of
/// clean units are neither recomputed nor copied.
///
/// The walk (which units exist, their subcomponents and IONodes) is fixed
/// when the object is built, and every unit starts dirty, so the first
/// `analyze` is a cold run: analyze_component is exactly that. An edit that
/// changes containment or IONodes needs a new object; attribute edits, new
/// failure modes, new mechanisms and new relationships only need `mark`.
class GraphFmea {
 public:
  /// Walks the units under `component` (a composite SSAM Component).
  GraphFmea(ssam::SsamModel& ssam, ssam::ObjectId component, GraphFmeaOptions options = {});

  /// Marks dirty the units an edit of `component` can change: each unit that
  /// lists it as a subcomponent (its rows) and its own unit (its graph).
  void mark(ssam::ObjectId component);

  /// Re-analyses the dirty units and returns the FMEA of the current model.
  /// Mutates the model: failure modes of re-emitted units get their
  /// `safetyRelated` verdict and a FailureEffect. Throws AnalysisError when
  /// ssam::build_graph rejects a dirty unit (no boundary IONodes, an invalid
  /// `direction`, a relationship endpoint missing or out of scope); the
  /// result and the model are then left as they were and the units stay
  /// dirty.
  const FmedaResult& analyze(GraphFmeaStats* stats = nullptr);

  /// The result of the last `analyze` (empty before the first).
  [[nodiscard]] const FmedaResult& result() const& noexcept { return result_; }
  [[nodiscard]] FmedaResult result() && { return std::move(result_); }

 private:
  struct Unit {
    ssam::ObjectId component = model::kNullObject;
    std::string path;  ///< qualified path from the analysis root
    std::optional<ssam::SinglePointAnalysis> verdicts;
    bool dirty = true;
  };
  /// What one subcomponent of one unit emitted, in walk order: a span of the
  /// result's rows and a span of its warnings.
  struct Segment {
    size_t unit = 0;
    ssam::ObjectId sub = model::kNullObject;
    size_t rows = 0;
    size_t warnings = 0;
  };

  ssam::SsamModel* ssam_;
  GraphFmeaOptions options_;
  std::vector<Unit> units_;        ///< pre-order
  std::vector<Segment> segments_;  ///< walk order
  FmedaResult result_;
  bool empty_denominator_note_ = false;  ///< the last warning says SPFM is vacuous
};

/// Runs Algorithm 1 on `component` (a composite SSAM Component): a cold
/// GraphFmea run. Mutates the model: failure modes get their `safetyRelated`
/// verdict and a FailureEffect. Throws AnalysisError when ssam::build_graph
/// rejects a unit's graph.
///
/// `stats` (optional) receives the number of analysis units.
FmedaResult analyze_component(ssam::SsamModel& ssam, ssam::ObjectId component,
                              const GraphFmeaOptions& options = {},
                              GraphFmeaStats* stats = nullptr);

}  // namespace decisive::core
