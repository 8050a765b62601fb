// Reference procedures: exhaustive, slow and simple, kept beside the engines
// that replaced them so tests and `reproduce` can check each engine against
// an independent answer.
//
// - solve_dense: one-shot dense solve of a nested-vector system, the
//   reference for the sparse kernel and the low-rank updates.
// - enumerate_paths / on_all_paths: explicit simple-path enumeration, the
//   reference for ssam::SinglePointAnalysis (graph FMEA).
// - synthesize_fault_tree: minimal cut sets by path enumeration and k-subset
//   screening, the reference for fta::synthesize_fault_tree_zbdd.
// - rare_event_probability: the rare-event sum over minimal cut sets, the
//   reference for fta::quantify's rare_event_bound.
// - impact_of_change: the change-impact report from `std::map` reverse
//   indices filled by name-resolved reads, the reference for
//   core::impact_of_change's flat one-pass index.
// - greedy_reach_asil: the greedy deployment search that rescans every open
//   row per move, the reference for core::greedy_reach_asil's best-move heap.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "decisive/core/fta.hpp"
#include "decisive/core/impact.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/ssam/graph.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::oracle {

/// Solves A x = b by partial-pivot LU on the dense kernel. Throws
/// SimulationError on a singular system and on a malformed one (height not
/// matching b, ragged rows).
std::vector<double> solve_dense(const std::vector<std::vector<double>>& a,
                                std::vector<double> b);

/// Enumerates all simple paths from any input to any output, as sequences of
/// graph vertices (IONode listings, without the super-source and the
/// super-sink); a path ends at the first output it reaches. Throws
/// AnalysisError when more than `max_paths` exist (guards against
/// combinatorial blow-up on dense graphs).
std::vector<std::vector<int>> enumerate_paths(const ssam::ComponentGraph& graph,
                                              size_t max_paths = 100000);

/// True when `subcomponent` owns at least one vertex on *every* path.
bool on_all_paths(const ssam::ComponentGraph& graph, const std::vector<std::vector<int>>& paths,
                  ssam::ObjectId subcomponent);

struct FtaOptions {
  /// Cut sets larger than this are not enumerated (cost guard). When the
  /// bound clips the family the returned tree carries `truncated = true`.
  size_t max_cut_set_size = 3;
  /// Path-enumeration guard; exceeding it throws.
  size_t max_paths = 100000;
};

/// Synthesises the fault tree for the loss of `component`'s function by
/// enumerating every input→output path (exponential). Basic-event rates come
/// from core::loss_failure_rate() (components without loss modes get rate
/// zero but still appear structurally). Throws AnalysisError when the
/// component has no boundary IONodes or the path count exceeds
/// FtaOptions::max_paths.
core::FaultTree synthesize_fault_tree(const ssam::SsamModel& ssam, ssam::ObjectId component,
                                      const FtaOptions& options = {});

/// Rare-event approximation of the top-event probability over
/// `mission_hours`: the sum over minimal cut sets of the product of member
/// failure probabilities (1 - e^{-lambda t} each), capped at 1.
double rare_event_probability(const core::FaultTree& tree, double mission_hours);

/// The change-impact report of `component`, computed as
/// core::impact_of_change was before its one-pass index. Throws ModelError
/// when `component` is not a Component.
core::ImpactReport impact_of_change(const ssam::SsamModel& ssam, ssam::ObjectId component);

/// core::greedy_reach_asil as it was before its best-move heap: each move
/// scans every open row's applicable mechanisms (resolved here through
/// SafetyMechanismModel::applicable) and deploys the first maximum of the
/// gain per cost hour; the same trim pass follows. Same arithmetic, so the
/// result must match the engine's bit for bit.
std::optional<core::Deployment> greedy_reach_asil(const core::FmedaResult& fmea,
                                                  const core::SafetyMechanismModel& catalogue,
                                                  std::string_view target_asil);

}  // namespace decisive::oracle
