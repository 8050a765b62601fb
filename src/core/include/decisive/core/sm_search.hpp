// Automated safety-mechanism deployment (DECISIVE Step 4b).
//
// Given an FMEA result and a safety-mechanism catalogue, SAME searches for
// deployments that reach a target integrity level, and can enumerate the
// Pareto front of (cost, SPFM) trade-offs so analysts pick "the best
// trade-off between safety and cost" (paper Sections III and IV-D2).
//
// The front is computed by an exact two-objective dynamic program (DESIGN.md
// §11): residual single-point FIT and deployment cost are both additive over
// FMEA rows, so each open row reduces to its non-dominated (cost, residual)
// option list and the rows fold over a balanced binary merge tree of
// dominance-pruned partial sums. The tree shape depends only on the row
// count, so the result is byte-identical for any `jobs` value; `epsilon`
// trades exactness for a bounded front size on pathological catalogues. The
// seed-era exhaustive enumerator survives as `pareto_front_exhaustive`, the
// property-test oracle.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/core/fmeda.hpp"
#include "decisive/core/safety_mechanism.hpp"

namespace decisive::core {

/// One deployed mechanism: FMEA row index -> catalogue entry.
struct DeploymentChoice {
  size_t row_index = 0;                         ///< index into FmedaResult::rows
  const SafetyMechanismSpec* mechanism = nullptr;  ///< never nullptr in a choice
};

/// A candidate deployment of safety mechanisms onto a design.
struct Deployment {
  std::vector<DeploymentChoice> choices;
  double spfm = 0.0;
  double total_cost_hours = 0.0;

  /// True when this deployment dominates `other` (no worse on both axes,
  /// strictly better on at least one; higher SPFM better, lower cost better).
  [[nodiscard]] bool dominates(const Deployment& other) const noexcept;
};

/// Returns a copy of `fmea` with the deployment applied (rows updated with
/// mechanism name/coverage/cost).
FmedaResult apply_deployment(const FmedaResult& fmea, const Deployment& deployment);

/// Knobs of the DP Pareto engine.
struct ParetoOptions {
  /// Worker threads for the divide-and-conquer merge tree; 0 = all cores.
  /// The output is byte-identical for any value (the tree shape is fixed;
  /// jobs only changes which thread folds which subtree).
  int jobs = 1;
  /// Epsilon-box coarsening of the residual axis, relative to the undeployed
  /// residual FIT. 0 = exact front. With epsilon > 0, every merge keeps one
  /// label per epsilon-box, so each kept front point is within
  /// `epsilon * baseline_residual * tree_depth` residual FIT of any point it
  /// displaced (at no higher cost) and the per-merge front size is bounded by
  /// ~1/epsilon. Must be in [0, 1).
  double epsilon = 0.0;
  /// Guard on the label cross-product of a single merge; exceeding it throws
  /// AnalysisError with a hint to set `epsilon`. 0 = unguarded.
  size_t max_merge_labels = 64'000'000;
  /// Per-row metric weights (empty = the classic SPFM objective, byte-
  /// identical to the unweighted engine). When set (size must equal
  /// rows.size() and every weight must be finite and >= 0, else
  /// AnalysisError naming the row) the metric axis is fully weight-
  /// defined: the denominator is Σ wᵢ·mode_fitᵢ, residuals scale by wᵢ, and
  /// the open rows are those with wᵢ > 0 and no deployed mechanism —
  /// `safety_related` is ignored, because multi-point objectives (LFM, via
  /// fta::lfm_row_weights) target exactly the rows the FMEA marks
  /// not-safety-related.
  std::vector<double> row_weights;
};

/// Which metric a front's quality axis represents (affects rendering only;
/// the engine is weight-driven).
enum class ParetoMetric { Spfm, Lfm };

/// Exact (cost, SPFM) Pareto front over all deployments (each open
/// safety-related row chooses "none" or one applicable mechanism), sorted by
/// cost with strictly increasing SPFM. Equal-value ties (under the
/// documented tolerance grid, DESIGN.md §11) keep the fewest-choices
/// representative, so reported deployments are minimal. Polynomial in the
/// front size — completes on hundreds of open rows where exhaustive
/// enumeration is infeasible.
std::vector<Deployment> pareto_front(const FmedaResult& fmea,
                                     const SafetyMechanismModel& catalogue,
                                     const ParetoOptions& options = {});

/// The seed-era exhaustive mixed-radix enumerator, retained as the test
/// oracle for the DP engine (and for FTA-style what-if sweeps on tiny
/// designs). Throws AnalysisError when the search space exceeds
/// `max_combinations` (use `pareto_front` instead). `row_weights` follows
/// the ParetoOptions::row_weights contract (empty = unweighted), so the
/// oracle covers the weighted engine too.
std::vector<Deployment> pareto_front_exhaustive(const FmedaResult& fmea,
                                                const SafetyMechanismModel& catalogue,
                                                size_t max_combinations = 2'000'000,
                                                const std::vector<double>& row_weights = {});

/// Greedy search: repeatedly deploys the mechanism with the best
/// SPFM-gain-per-cost ratio until the target ASIL's SPFM is met or no
/// mechanism remains. Returns nullopt when the target is unreachable with
/// the given catalogue. The input FMEA must be *undeployed* (rows may
/// already carry mechanisms; they are treated as fixed). Ties go to the
/// first row, then the first mechanism in catalogue order. Each open row's
/// best move waits in a heap and the residual FIT is maintained
/// incrementally, so a move costs O(log rows), not a rescan of every row.
/// Always optimises the classic SPFM objective — row_weights apply to the
/// Pareto engines only.
std::optional<Deployment> greedy_reach_asil(const FmedaResult& fmea,
                                            const SafetyMechanismModel& catalogue,
                                            std::string_view target_asil);

/// Knobs of the branch-and-bound optimal search.
struct OptimalOptions {
  /// Hard cap on expanded search nodes; exceeding it throws AnalysisError
  /// (the greedy result is always available as a fallback). 0 = unbounded.
  size_t max_nodes = 20'000'000;
};

/// Provably min-cost deployment meeting the SPFM target of `target_asil`:
/// depth-first branch-and-bound over the open rows (most residual-reduction
/// potential first) with the greedy result as the incumbent, a per-row
/// best-remaining-coverage feasibility bound, and a fractional
/// reduction-per-cost lower bound on the remaining cost. Never returns a
/// costlier deployment than `greedy_reach_asil`; nullopt exactly when the
/// greedy search is nullopt (the target is unreachable).
std::optional<Deployment> optimal_reach_asil(const FmedaResult& fmea,
                                             const SafetyMechanismModel& catalogue,
                                             std::string_view target_asil,
                                             const OptimalOptions& options = {});

/// CSV rendering of a front: Cost(hrs), SPFM, ASIL, Choices, Deployment.
/// Shared by `same sm-search --out` and the session `pareto` request so both
/// emit identical artefacts for the same model. With ParetoMetric::Lfm the
/// quality column is labelled "LFM" and the ASIL column uses the LFM
/// targets (the deployments' `spfm` field then holds the weighted metric).
CsvTable front_to_csv(const FmedaResult& fmea, const std::vector<Deployment>& front,
                      ParetoMetric metric = ParetoMetric::Spfm);

/// The same front as a JSON document (array of {cost_hours, spfm, asil,
/// choices:[{row, component, failure_mode, mechanism, coverage, cost_hours}]}).
std::string front_to_json(const FmedaResult& fmea, const std::vector<Deployment>& front);

}  // namespace decisive::core
