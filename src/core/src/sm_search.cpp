// Safety-mechanism deployment search (DECISIVE Step 4b).
//
// Engine layout (DESIGN.md §11):
//  - OptionTable: each search call resolves every open row's applicable
//    mechanisms once (one catalogue scan per distinct component type and
//    failure mode); the engines below read the table, never the catalogue.
//  - SpfmEvaluator: residual single-point FIT is additive over rows, so a
//    candidate deployment is evaluated in O(choices) against a precomputed
//    undeployed baseline — no per-candidate allocation.
//  - pareto_front: exact two-objective DP. Each open row reduces to its
//    non-dominated (cost, residual) option list; the rows fold over a
//    balanced binary merge tree of dominance-pruned partial-sum labels. A
//    merge keeps the records of the pair sums in grid order, folding one
//    row of the cross product at a time by a linear record merge, in
//    scratch that every merge on a thread reuses. The tree
//    shape depends only on the row count, so any `jobs` value produces
//    byte-identical fronts. `epsilon` coarsens the residual axis per merge
//    to bound front growth.
//  - pareto_front_exhaustive: the seed-era mixed-radix enumerator, retained
//    as the property-test oracle, with the front kept in a cost-sorted map
//    so each dominance check is O(log n). It resolves the catalogue itself,
//    so the oracle stays independent of the option table.
//  - greedy_reach_asil: gain-per-cost greedy from a heap of each row's best
//    move, with O(1)-per-move residual updates in both the deploy loop and
//    the trim pass.
//  - optimal_reach_asil: branch-and-bound min-cost search seeded with the
//    greedy incumbent, which it computes over the same option table.
//
// Tie handling: (cost, residual) values are compared on a tolerance grid of
// 1e-9 relative to the axis scale (max total cost / undeployed residual), so
// equal-value deployments dedupe deterministically across platforms instead
// of depending on exact double equality. Among grid-equal candidates the
// fewest-choices representative wins, so reported deployments are minimal.
#include "decisive/core/sm_search.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/base/round.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"

namespace decisive::core {

bool Deployment::dominates(const Deployment& other) const noexcept {
  const bool no_worse = spfm >= other.spfm && total_cost_hours <= other.total_cost_hours;
  const bool better = spfm > other.spfm || total_cost_hours < other.total_cost_hours;
  return no_worse && better;
}

FmedaResult apply_deployment(const FmedaResult& fmea, const Deployment& deployment) {
  FmedaResult out = fmea;
  for (const auto& choice : deployment.choices) {
    if (choice.row_index >= out.rows.size() || choice.mechanism == nullptr) {
      throw AnalysisError("deployment references an invalid FMEA row");
    }
    FmedaRow& row = out.rows[choice.row_index];
    row.safety_mechanism = choice.mechanism->name;
    row.sm_coverage = choice.mechanism->coverage;
    row.sm_cost_hours = choice.mechanism->cost_hours;
  }
  return out;
}

namespace {

/// Search instrumentation, following the registry conventions of DESIGN.md
/// §10 (lazily registered, references cached in a function-local static).
struct SearchMetrics {
  obs::Counter& labels;        ///< candidate labels expanded across merges
  obs::Counter& labels_pruned; ///< labels discarded by dominance/epsilon
  obs::Counter& merges;        ///< merge-tree nodes folded
  obs::Counter& bnb_nodes;     ///< branch-and-bound nodes expanded
  obs::Counter& bnb_pruned;    ///< branch-and-bound subtrees pruned
  obs::Gauge& front_size;      ///< size of the last computed front
  obs::Histogram& pareto_seconds;
  obs::Histogram& merge_seconds;
  obs::Histogram& greedy_seconds;
  obs::Histogram& bnb_seconds;

  static SearchMetrics& get() {
    auto& r = obs::Registry::global();
    static SearchMetrics m{r.counter("decisive_sm_search_labels_total"),
                           r.counter("decisive_sm_search_labels_pruned_total"),
                           r.counter("decisive_sm_search_merges_total"),
                           r.counter("decisive_sm_search_bnb_nodes_total"),
                           r.counter("decisive_sm_search_bnb_pruned_total"),
                           r.gauge("decisive_sm_search_front_size"),
                           r.histogram("decisive_sm_search_pareto_seconds"),
                           r.histogram("decisive_sm_search_merge_seconds"),
                           r.histogram("decisive_sm_search_greedy_seconds"),
                           r.histogram("decisive_sm_search_bnb_seconds")};
    return m;
  }
};

/// Validates ParetoOptions-style row weights (empty = unweighted engine):
/// one finite, non-negative weight per FMEA row.
void check_row_weights(const FmedaResult& fmea, const std::vector<double>& weights) {
  if (!weights.empty() && weights.size() != fmea.rows.size()) {
    throw AnalysisError("row_weights size " + std::to_string(weights.size()) +
                        " does not match the FMEA's " + std::to_string(fmea.rows.size()) +
                        " rows");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i]) || weights[i] < 0.0) {
      char value[32];
      const auto written = std::to_chars(value, value + sizeof value, weights[i]);
      const FmedaRow& row = fmea.rows[i];
      throw AnalysisError("row_weights[" + std::to_string(i) + "] (" + row.component + "/" +
                          row.failure_mode + ") is " + std::string(value, written.ptr) +
                          "; weights must be finite and >= 0");
    }
  }
}

/// Candidate rows, not already carrying a mechanism. Unweighted: the
/// safety-related rows (SPFM). Weighted: the rows with weight > 0 — the
/// weights fully define the metric axis, because multi-point objectives
/// target rows the FMEA marks not-safety-related.
std::vector<size_t> open_rows(const FmedaResult& fmea,
                              const std::vector<double>* weights = nullptr) {
  std::vector<size_t> out;
  for (size_t i = 0; i < fmea.rows.size(); ++i) {
    const bool relevant = weights != nullptr ? (*weights)[i] > 0.0
                                             : fmea.rows[i].safety_related;
    if (relevant && fmea.rows[i].safety_mechanism.empty()) out.push_back(i);
  }
  return out;
}

/// One row's costliest mechanism; summed over the rows, the cost-axis scale.
/// Null entries (the enumerator's "no mechanism") cost nothing.
double row_max_cost(const std::vector<const SafetyMechanismSpec*>& row) {
  double row_max = 0.0;
  for (const SafetyMechanismSpec* sm : row) {
    if (sm != nullptr) row_max = std::max(row_max, sm->cost_hours);
  }
  return row_max;
}

/// One search call's option table: the open rows, and each one's applicable
/// mechanisms in catalogue order. Rows that spell the same (component type,
/// failure mode) share one list, so the catalogue is scanned once per
/// distinct pair here, and never again by the engine that reads the table.
struct OptionTable {
  std::vector<size_t> rows;
  std::vector<std::uint32_t> list_of;  ///< parallel to rows: index into lists
  std::vector<std::vector<const SafetyMechanismSpec*>> lists;

  [[nodiscard]] const std::vector<const SafetyMechanismSpec*>& mechanisms(size_t k) const {
    return lists[list_of[k]];
  }

  /// The cost-axis scale: each row's costliest mechanism, summed in row order.
  [[nodiscard]] double max_total_cost() const {
    double total = 0.0;
    for (size_t k = 0; k < rows.size(); ++k) total += row_max_cost(mechanisms(k));
    return total;
  }
};

OptionTable resolve_options(const FmedaResult& fmea, const SafetyMechanismModel& catalogue,
                            const std::vector<double>* weights = nullptr) {
  using Key = std::pair<std::string_view, std::string_view>;  // (type, mode) as spelled
  struct KeyHash {
    size_t operator()(const Key& key) const noexcept {
      const std::hash<std::string_view> hash;
      return hash(key.first) * 31 + hash(key.second);
    }
  };
  OptionTable table;
  table.rows = open_rows(fmea, weights);
  table.list_of.reserve(table.rows.size());
  std::unordered_map<Key, std::uint32_t, KeyHash> list_of_key;
  for (const size_t index : table.rows) {
    const FmedaRow& row = fmea.rows[index];
    const Key key{row.component_type, row.failure_mode};
    const auto [it, added] =
        list_of_key.try_emplace(key, static_cast<std::uint32_t>(table.lists.size()));
    if (added) {
      table.lists.push_back(catalogue.applicable(row.component_type, row.failure_mode));
    }
    table.list_of.push_back(it->second);
  }
  return table;
}

/// O(choices) metric evaluation against the undeployed baseline (the hot
/// inner loop of every search — no per-candidate allocation, no O(rows)
/// rescan). Unweighted: the paper's SPFM (Equation 1). Weighted: the
/// generalised metric 1 − Σ wᵢ·residualᵢ / Σ wᵢ·mode_fitᵢ.
class SpfmEvaluator {
 public:
  explicit SpfmEvaluator(const FmedaResult& base)
      : base_(base),
        denominator_(base.total_safety_related_fit()),
        baseline_residual_(base.single_point_fit()) {}

  SpfmEvaluator(const FmedaResult& base, const std::vector<double>& weights)
      : base_(base) {
    check_row_weights(base, weights);
    if (weights.empty()) {
      denominator_ = base.total_safety_related_fit();
      baseline_residual_ = base.single_point_fit();
      return;
    }
    weights_ = &weights;
    for (size_t i = 0; i < base.rows.size(); ++i) {
      denominator_ += weights[i] * base.rows[i].mode_fit();
      baseline_residual_ +=
          weights[i] * base.rows[i].mode_fit() * (1.0 - base.rows[i].sm_coverage);
    }
  }

  [[nodiscard]] double denominator() const noexcept { return denominator_; }
  [[nodiscard]] double baseline_residual() const noexcept { return baseline_residual_; }
  [[nodiscard]] double weight(size_t row_index) const noexcept {
    return weights_ != nullptr ? (*weights_)[row_index] : 1.0;
  }

  /// Residual (weighted) FIT of one row under `sm` (nullptr = keep the
  /// row's own coverage).
  [[nodiscard]] double row_residual(size_t row_index, const SafetyMechanismSpec* sm) const {
    const FmedaRow& row = base_.rows[row_index];
    const double cov = sm != nullptr ? sm->coverage : row.sm_coverage;
    return weight(row_index) * row.mode_fit() * (1.0 - cov);
  }

  /// Clamped at 0, like FmedaResult::spfm().
  [[nodiscard]] double spfm_of_residual(double residual) const noexcept {
    if (denominator_ <= 0.0) return 1.0;
    const double spfm = 1.0 - residual / denominator_;
    return spfm < 0.0 ? 0.0 : spfm;
  }

  /// Canonical candidate evaluation: baseline plus per-choice deltas, summed
  /// in choice (row) order so the value is deterministic for a given choice
  /// set regardless of how the search derived it.
  [[nodiscard]] double spfm(const Deployment& d) const {
    double residual = baseline_residual_;
    for (const auto& choice : d.choices) {
      if (weights_ != nullptr ? (*weights_)[choice.row_index] == 0.0
                              : !base_.rows[choice.row_index].safety_related) {
        continue;
      }
      residual += row_residual(choice.row_index, choice.mechanism) -
                  row_residual(choice.row_index, nullptr);
    }
    return spfm_of_residual(residual);
  }

  [[nodiscard]] static double cost(const Deployment& d) {
    double total = 0.0;
    for (const auto& choice : d.choices) total += choice.mechanism->cost_hours;
    return total;
  }

 private:
  const FmedaResult& base_;
  const std::vector<double>* weights_ = nullptr;  ///< nullptr = unweighted
  double denominator_ = 0.0;
  double baseline_residual_ = 0.0;
};

/// Tolerance grid for tie/dominance comparisons: values snap to kTieRel of
/// the axis scale, so "equal" deployments dedupe identically across
/// platforms and association orders.
constexpr double kTieRel = 1e-9;

struct Quantizer {
  double cost_quantum = 1.0;
  double resid_quantum = 1.0;

  Quantizer(double max_total_cost, double baseline_residual) {
    cost_quantum = kTieRel * std::max(max_total_cost, 1.0);
    resid_quantum = kTieRel * std::max(baseline_residual, 1.0);
  }

  [[nodiscard]] std::int64_t qcost(double c) const { return llround_inline(c / cost_quantum); }
  [[nodiscard]] std::int64_t qresid(double r) const {
    return llround_inline(r / resid_quantum);
  }
};

/// One per-row deployment option (index 0 after pruning is always the
/// cheapest — the "no mechanism" choice or a zero-cost improvement on it).
struct RowOption {
  const SafetyMechanismSpec* mechanism = nullptr;
  double cost = 0.0;
  double residual = 0.0;   ///< this row's residual FIT under the option
  std::uint32_t count = 0; ///< 0 for "none", 1 for a mechanism
};

/// Builds the non-dominated option list of one open row from its resolved
/// mechanisms, sorted by cost ascending / residual strictly descending (on
/// the tolerance grid). Ties prefer "none", then catalogue order.
std::vector<RowOption> row_option_front(const SpfmEvaluator& eval, size_t row_index,
                                        const std::vector<const SafetyMechanismSpec*>& mechanisms,
                                        const Quantizer& q) {
  std::vector<RowOption> options;
  options.reserve(mechanisms.size() + 1);
  options.push_back({nullptr, 0.0, eval.row_residual(row_index, nullptr), 0});
  for (const SafetyMechanismSpec* sm : mechanisms) {
    options.push_back({sm, sm->cost_hours, eval.row_residual(row_index, sm), 1});
  }
  std::stable_sort(options.begin(), options.end(), [&](const RowOption& a, const RowOption& b) {
    if (q.qcost(a.cost) != q.qcost(b.cost)) return q.qcost(a.cost) < q.qcost(b.cost);
    if (q.qresid(a.residual) != q.qresid(b.residual)) {
      return q.qresid(a.residual) < q.qresid(b.residual);
    }
    return a.count < b.count;  // prefer "none" on exact value ties
  });
  std::vector<RowOption> kept;
  for (const RowOption& option : options) {
    if (kept.empty() || q.qresid(option.residual) < q.qresid(kept.back().residual)) {
      kept.push_back(option);
    }
  }
  return kept;
}

// ---------------------------------------------------------------------------
// DP Pareto engine
// ---------------------------------------------------------------------------

/// One partial-sum label. For leaf nodes `left` is the row-option index; for
/// internal nodes (`left`, `right`) index into the children's label arrays,
/// which is what makes O(1)-size labels reconstructible without storing
/// choice vectors.
struct Label {
  double cost = 0.0;
  double residual = 0.0;
  std::int64_t qcost = 0;   ///< grid keys of (cost, residual), computed once
  std::int64_t qresid = 0;  ///< when the label is formed
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  std::uint32_t count = 0;  ///< deployed-mechanism count (tie preference)
};

Label make_label(const Quantizer& q, double cost, double residual, std::uint32_t left,
                 std::uint32_t right, std::uint32_t count) {
  return {cost, residual, q.qcost(cost), q.qresid(residual), left, right, count};
}

/// The merge's total order: grid cost, grid residual, fewest choices, then
/// the pair indices (unique within a merge, so the order is strict).
bool precedes(const Label& x, const Label& y) {
  if (x.qcost != y.qcost) return x.qcost < y.qcost;
  if (x.qresid != y.qresid) return x.qresid < y.qresid;
  if (x.count != y.count) return x.count < y.count;
  if (x.left != y.left) return x.left < y.left;
  return x.right < y.right;
}

/// A node of the balanced merge tree over the open-row range [lo, hi). The
/// tree shape is a pure function of the row count — parallelism never
/// changes which labels are formed, only which thread folds which subtree.
struct MergeNode {
  size_t lo = 0;
  size_t hi = 0;
  int left_child = -1;
  int right_child = -1;
  std::vector<Label> labels;
};

int build_tree(size_t lo, size_t hi, std::vector<MergeNode>& nodes) {
  const int index = static_cast<int>(nodes.size());
  nodes.push_back({lo, hi, -1, -1, {}});
  if (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    const int left = build_tree(lo, mid, nodes);
    const int right = build_tree(mid, hi, nodes);
    nodes[index].left_child = left;
    nodes[index].right_child = right;
  }
  return index;
}

/// The buffers a merge works in. A pareto_front call makes one per folding
/// thread, and every merge on that thread reuses it, so a merge allocates
/// only the exact-size front it returns.
struct MergeScratch {
  std::vector<Label> row;  ///< the pairs (i, ·) of the row being folded
  std::vector<Label> kept;
  std::vector<Label> merged;
};

/// Dominance-pruned merge of two label fronts under addition. Both fronts
/// are sorted by grid cost with strictly decreasing grid residual. A pair
/// label survives iff its grid residual is strictly below that of every pair
/// before it in `precedes` order: the survivors are the records of that
/// sequence. Because records(X ∪ Y) = records(records(X) ∪ Y), the rows
/// (i, ·) of the a×b cross product fold into a running record list one at a
/// time by a linear two-way merge, and no pair is sorted. Along a row the
/// cost never decreases (b is sorted by cost), so the row is already in
/// order except within a run of grid-equal costs, where only the run's first
/// label in `precedes` order can be a record: the merge takes each run's
/// first by looking ahead along the row. The row is formed in one pass into
/// scratch first, so its pairs' divisions and roundings do not wait on the
/// merge's data-dependent branches. Epsilon then keeps one label per
/// residual box to bound growth.
std::vector<Label> merge_fronts(const std::vector<Label>& a, const std::vector<Label>& b,
                                const Quantizer& q, const ParetoOptions& options,
                                double epsilon_box, MergeScratch& scratch,
                                SearchMetrics& metrics) {
  obs::Span span("sm_search.merge", &metrics.merge_seconds);
  metrics.merges.add();
  const size_t pair_count = a.size() * b.size();
  if (options.max_merge_labels != 0 && pair_count > options.max_merge_labels) {
    throw AnalysisError(
        "pareto merge would expand " + std::to_string(pair_count) +
        " labels (cap " + std::to_string(options.max_merge_labels) +
        "); set ParetoOptions::epsilon to coarsen the front");
  }
  metrics.labels.add(pair_count);
  std::vector<Label>& row = scratch.row;
  std::vector<Label>& kept = scratch.kept;
  std::vector<Label>& merged = scratch.merged;
  row.resize(b.size());
  kept.clear();
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    const Label& x = a[i];
    for (std::uint32_t j = 0; j < b.size(); ++j) {
      row[j] = make_label(q, x.cost + b[j].cost, x.residual + b[j].residual, i, j,
                          x.count + b[j].count);
    }
    // The next run's first label, or nullptr once the row is spent.
    size_t k = 0;
    const auto next_run = [&]() -> const Label* {
      if (k == row.size()) return nullptr;
      const Label* first = &row[k++];
      for (; k < row.size() && row[k].qcost == first->qcost; ++k) {
        if (precedes(row[k], *first)) first = &row[k];
      }
      return first;
    };
    const Label* run = next_run();
    if (run == nullptr) break;  // b is empty: so is every row
    // Records that precede the row's first label precede the whole row, so
    // they stay as they are; the merge starts after them. `last` is the
    // grid residual of the last record so far (none yet when `none`).
    size_t r = static_cast<size_t>(
        std::partition_point(kept.begin(), kept.end(),
                             [&](const Label& label) { return precedes(label, *run); }) -
        kept.begin());
    const size_t unchanged = r;
    bool none = r == 0;
    std::int64_t last = none ? 0 : kept[r - 1].qresid;
    merged.clear();
    const auto offer = [&](const Label& label) {
      if (none || label.qresid < last) {
        merged.push_back(label);
        last = label.qresid;
        none = false;
      }
    };
    while (run != nullptr && r < kept.size()) {
      if (precedes(*run, kept[r])) {
        offer(*run);
        run = next_run();
      } else {
        offer(kept[r++]);
      }
    }
    for (; run != nullptr; run = next_run()) offer(*run);
    // The rest of `kept` falls strictly in grid residual: once one label
    // is a record, every later one is.
    while (r < kept.size() && !none && kept[r].qresid >= last) ++r;
    merged.insert(merged.end(), kept.begin() + static_cast<std::ptrdiff_t>(r), kept.end());
    kept.resize(unchanged);
    kept.insert(kept.end(), merged.begin(), merged.end());
  }
  size_t size = kept.size();
  if (epsilon_box > 0.0) {
    // Coarsen in place; `box` is the box of the last label kept.
    size = 0;
    double box = 0.0;
    for (const Label& label : kept) {
      const double label_box = std::floor(label.residual / epsilon_box);
      if (size == 0 || label_box < box) {
        kept[size++] = label;
        box = label_box;
      }
    }
  }
  metrics.labels_pruned.add(pair_count - size);
  return {kept.begin(), kept.begin() + static_cast<std::ptrdiff_t>(size)};
}

void fold_node(std::vector<MergeNode>& nodes, int index,
               const std::vector<std::vector<RowOption>>& row_options, const Quantizer& q,
               const ParetoOptions& options, double epsilon_box, int jobs,
               MergeScratch& scratch, SearchMetrics& metrics) {
  MergeNode& node = nodes[index];
  if (node.left_child < 0) {
    const std::vector<RowOption>& opts = row_options[node.lo];
    node.labels.reserve(opts.size());
    for (std::uint32_t i = 0; i < opts.size(); ++i) {
      node.labels.push_back(make_label(q, opts[i].cost, opts[i].residual, i, 0, opts[i].count));
    }
    return;
  }
  if (jobs > 1) {
    // Fold the left subtree on a helper thread, with scratch of its own,
    // while this thread folds the right one. The label values are identical
    // either way; only wall-clock changes.
    std::exception_ptr left_error;
    std::thread left([&] {
      try {
        MergeScratch left_scratch;
        fold_node(nodes, node.left_child, row_options, q, options, epsilon_box, jobs / 2,
                  left_scratch, metrics);
      } catch (...) {
        left_error = std::current_exception();
      }
    });
    try {
      fold_node(nodes, node.right_child, row_options, q, options, epsilon_box,
                jobs - jobs / 2, scratch, metrics);
    } catch (...) {
      left.join();
      throw;
    }
    left.join();
    if (left_error) std::rethrow_exception(left_error);
  } else {
    fold_node(nodes, node.left_child, row_options, q, options, epsilon_box, 1, scratch,
              metrics);
    fold_node(nodes, node.right_child, row_options, q, options, epsilon_box, 1, scratch,
              metrics);
  }
  node.labels = merge_fronts(nodes[node.left_child].labels, nodes[node.right_child].labels,
                             q, options, epsilon_box, scratch, metrics);
  // The children's labels are only needed for reconstruction, never for
  // another merge — keep them (the memory is the sum of front sizes).
}

/// Rebuilds front points' choices from back-pointers, in row order. Points
/// are rebuilt in front order, and `last_[node]` remembers the last point
/// whose walk reached the node: its label there and where that subtree's
/// choices sit in its deployment. Equal labels mean equal subtrees, so a
/// point whose label at a node matches copies that range instead of walking
/// the subtree; neighbouring points on the front mostly differ in a few
/// subtrees.
class FrontBuilder {
 public:
  FrontBuilder(const std::vector<MergeNode>& nodes,
               const std::vector<std::vector<RowOption>>& row_options,
               const std::vector<size_t>& rows, std::vector<Deployment>& front)
      : nodes_(nodes), row_options_(row_options), rows_(rows), front_(front),
        last_(nodes.size()) {}

  /// Appends the choices of `node`'s subtree under `label` to point `point`.
  void collect(int node, std::uint32_t label, std::uint32_t point) {
    const MergeNode& n = nodes_[node];
    if (n.labels[label].count == 0) return;  // no mechanism in this subtree
    std::vector<DeploymentChoice>& out = front_[point].choices;
    const auto begin = static_cast<std::uint32_t>(out.size());
    Seen& seen = last_[node];
    if (seen.point != kNone && seen.label == label) {
      const std::vector<DeploymentChoice>& from = front_[seen.point].choices;
      out.insert(out.end(), from.begin() + seen.begin, from.begin() + seen.end);
    } else if (n.left_child < 0) {
      out.push_back({rows_[n.lo], row_options_[n.lo][n.labels[label].left].mechanism});
    } else {
      collect(n.left_child, n.labels[label].left, point);
      collect(n.right_child, n.labels[label].right, point);
    }
    seen = {point, label, begin, static_cast<std::uint32_t>(out.size())};
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Seen {
    std::uint32_t point = kNone;
    std::uint32_t label = 0;
    std::uint32_t begin = 0;  ///< the subtree's choices in front[point]
    std::uint32_t end = 0;
  };

  const std::vector<MergeNode>& nodes_;
  const std::vector<std::vector<RowOption>>& row_options_;
  const std::vector<size_t>& rows_;
  std::vector<Deployment>& front_;
  std::vector<Seen> last_;
};

}  // namespace

std::vector<Deployment> pareto_front(const FmedaResult& fmea,
                                     const SafetyMechanismModel& catalogue,
                                     const ParetoOptions& options) {
  if (!(options.epsilon >= 0.0 && options.epsilon < 1.0)) {  // NaN fails both
    throw AnalysisError("ParetoOptions::epsilon must be in [0, 1)");
  }
  SearchMetrics& metrics = SearchMetrics::get();
  obs::Span span("sm_search.pareto", &metrics.pareto_seconds);

  const SpfmEvaluator eval(fmea, options.row_weights);
  const std::vector<double>* weights =
      options.row_weights.empty() ? nullptr : &options.row_weights;
  const OptionTable table = resolve_options(fmea, catalogue, weights);
  const std::vector<size_t>& rows = table.rows;
  const Quantizer q(table.max_total_cost(), eval.baseline_residual());

  std::vector<Deployment> front;
  if (rows.empty()) {
    Deployment none;
    none.spfm = eval.spfm(none);
    front.push_back(std::move(none));
    metrics.front_size.set(1.0);
    return front;
  }

  std::vector<std::vector<RowOption>> row_options;
  row_options.reserve(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    row_options.push_back(row_option_front(eval, rows[k], table.mechanisms(k), q));
  }

  const double epsilon_box =
      options.epsilon > 0.0
          ? options.epsilon * std::max(eval.baseline_residual(), q.resid_quantum)
          : 0.0;
  std::vector<MergeNode> nodes;
  nodes.reserve(2 * rows.size());
  const int root = build_tree(0, rows.size(), nodes);
  // Helper threads fold subtrees, so more jobs than leaves buy nothing: cap
  // the budget at the merge tree's leaf count.
  const int jobs = static_cast<int>(std::min<std::size_t>(
      rows.size(), options.jobs > 0 ? static_cast<std::size_t>(options.jobs)
                                    : std::max(1u, std::thread::hardware_concurrency())));
  MergeScratch scratch;
  fold_node(nodes, root, row_options, q, options, epsilon_box, jobs, scratch, metrics);

  const std::vector<Label>& root_labels = nodes[root].labels;
  front.resize(root_labels.size());
  FrontBuilder builder(nodes, row_options, rows, front);
  for (std::uint32_t i = 0; i < root_labels.size(); ++i) {
    Deployment& d = front[i];
    d.choices.reserve(root_labels[i].count);
    builder.collect(root, i, i);
    // Canonical values: recomputed from the choice set in row order, so the
    // reported numbers are independent of the merge association order.
    d.total_cost_hours = SpfmEvaluator::cost(d);
    d.spfm = eval.spfm(d);
  }
  // Final sweep on the canonical values: recomputation can move a value by
  // an ulp across a grid boundary, so re-assert strict dominance order.
  std::vector<Deployment> swept;
  for (Deployment& d : front) {
    const double residual = eval.denominator() <= 0.0
                                ? 0.0
                                : (1.0 - d.spfm) * eval.denominator();
    if (swept.empty()) {
      swept.push_back(std::move(d));
      continue;
    }
    const double last_residual = eval.denominator() <= 0.0
                                     ? 0.0
                                     : (1.0 - swept.back().spfm) * eval.denominator();
    if (q.qresid(residual) < q.qresid(last_residual) &&
        q.qcost(d.total_cost_hours) > q.qcost(swept.back().total_cost_hours)) {
      swept.push_back(std::move(d));
    }
  }
  metrics.front_size.set(static_cast<double>(swept.size()));
  return swept;
}

std::vector<Deployment> pareto_front_exhaustive(const FmedaResult& fmea,
                                                const SafetyMechanismModel& catalogue,
                                                size_t max_combinations,
                                                const std::vector<double>& row_weights) {
  const SpfmEvaluator eval(fmea, row_weights);
  const std::vector<size_t> rows =
      open_rows(fmea, row_weights.empty() ? nullptr : &row_weights);

  // Options per row: index 0 = "no mechanism", then each applicable entry.
  std::vector<std::vector<const SafetyMechanismSpec*>> options;
  options.reserve(rows.size());
  size_t combinations = 1;
  for (const size_t index : rows) {
    const FmedaRow& row = fmea.rows[index];
    std::vector<const SafetyMechanismSpec*> opts{nullptr};
    for (const SafetyMechanismSpec* sm :
         catalogue.applicable(row.component_type, row.failure_mode)) {
      opts.push_back(sm);
    }
    combinations *= opts.size();
    if (combinations > max_combinations) {
      throw AnalysisError("safety-mechanism search space exceeds " +
                          std::to_string(max_combinations) +
                          " combinations; use the DP pareto_front");
    }
    options.push_back(std::move(opts));
  }
  double max_total_cost = 0.0;
  for (const auto& opts : options) max_total_cost += row_max_cost(opts);
  const Quantizer q(max_total_cost, eval.baseline_residual());

  // Front kept sorted by quantised cost with strictly decreasing quantised
  // residual, so a candidate's dominance check is one O(log n) lookup
  // instead of a linear scan.
  struct Entry {
    std::int64_t qresid = 0;
    Deployment deployment;
  };
  std::map<std::int64_t, Entry> front;

  std::vector<size_t> pick(options.size(), 0);
  for (;;) {
    Deployment candidate;
    for (size_t i = 0; i < options.size(); ++i) {
      if (options[i][pick[i]] != nullptr) {
        candidate.choices.push_back(DeploymentChoice{rows[i], options[i][pick[i]]});
      }
    }
    candidate.total_cost_hours = SpfmEvaluator::cost(candidate);
    candidate.spfm = eval.spfm(candidate);
    const double residual = eval.denominator() <= 0.0
                                ? 0.0
                                : (1.0 - candidate.spfm) * eval.denominator();
    const std::int64_t qc = q.qcost(candidate.total_cost_hours);
    const std::int64_t qr = q.qresid(residual);

    bool insert = true;
    auto it = front.upper_bound(qc);
    if (it != front.begin()) {
      const auto& prev = *std::prev(it);
      if (prev.first == qc && prev.second.qresid == qr) {
        // Grid tie: keep the fewest-choices representative (minimal
        // deployments), first-seen among equals.
        insert = candidate.choices.size() <
                 std::prev(it)->second.deployment.choices.size();
      } else if (prev.second.qresid <= qr) {
        insert = false;  // dominated by a no-costlier, no-worse entry
      }
    }
    if (insert) {
      // Drop every entry the candidate dominates (costlier, no better).
      while (it != front.end() && it->second.qresid >= qr) it = front.erase(it);
      front.insert_or_assign(qc, Entry{qr, std::move(candidate)});
    }

    // Advance the mixed-radix counter.
    size_t digit = 0;
    while (digit < pick.size()) {
      if (++pick[digit] < options[digit].size()) break;
      pick[digit] = 0;
      ++digit;
    }
    if (digit == pick.size()) break;
  }

  std::vector<Deployment> out;
  out.reserve(front.size());
  for (auto& [qc, entry] : front) out.push_back(std::move(entry.deployment));
  return out;
}

namespace {

/// Greedy over a resolved option table: the engine behind greedy_reach_asil
/// and branch-and-bound's incumbent.
std::optional<Deployment> greedy_over(const FmedaResult& fmea, const OptionTable& table,
                                      const SpfmEvaluator& eval, double target) {
  // Per-row current pick; a row's mechanism may be *upgraded* to a strictly
  // higher-coverage alternative later (committing to the cheapest option and
  // never revisiting it can miss reachable targets). The total residual FIT
  // is maintained incrementally: every move is O(1), not an O(rows) rescan.
  std::vector<const SafetyMechanismSpec*> picked(fmea.rows.size(), nullptr);
  double residual = eval.baseline_residual();

  // Each move deploys the first maximum of the gain per cost hour over all
  // (row, mechanism) pairs in table order, among ratios above -1. A row's
  // ratios depend only on its own pick, so each open row keeps its best move
  // (its first maximum in catalogue order) in a max-heap keyed on (ratio
  // descending, row position ascending), whose top is that first maximum.
  // A move re-scores only the row it moved.
  struct Move {
    double ratio = 0.0;
    std::uint32_t k = 0;  ///< position in table.rows
    const SafetyMechanismSpec* mechanism = nullptr;
  };
  const auto best_move = [&](std::uint32_t k, Move& out) {
    const SafetyMechanismSpec* current = picked[table.rows[k]];
    const double mode_fit = fmea.rows[table.rows[k]].mode_fit();
    const double current_coverage = current != nullptr ? current->coverage : 0.0;
    const double current_cost = current != nullptr ? current->cost_hours : 0.0;
    out = {-1.0, k, nullptr};
    for (const SafetyMechanismSpec* sm : table.mechanisms(k)) {
      // Only strictly-better coverage guarantees progress (and termination).
      if (sm->coverage <= current_coverage) continue;
      const double gain = mode_fit * (sm->coverage - current_coverage);
      const double delta_cost = sm->cost_hours - current_cost;
      const double ratio = delta_cost > 0.0 ? gain / delta_cost : 1e18 + gain;
      if (ratio > out.ratio) out = {ratio, k, sm};
    }
    return out.mechanism != nullptr;
  };
  const auto below = [](const Move& x, const Move& y) {
    return x.ratio < y.ratio || (x.ratio == y.ratio && x.k > y.k);
  };
  std::vector<Move> heap;
  heap.reserve(table.rows.size());
  Move move;
  for (std::uint32_t k = 0; k < table.rows.size(); ++k) {
    if (best_move(k, move)) heap.push_back(move);
  }
  std::make_heap(heap.begin(), heap.end(), below);

  while (eval.spfm_of_residual(residual) < target) {
    if (heap.empty()) return std::nullopt;  // target unreachable
    std::pop_heap(heap.begin(), heap.end(), below);
    move = heap.back();
    heap.pop_back();
    const size_t index = table.rows[move.k];
    residual +=
        eval.row_residual(index, move.mechanism) - eval.row_residual(index, picked[index]);
    picked[index] = move.mechanism;
    if (best_move(move.k, move)) {
      heap.push_back(move);
      std::push_heap(heap.begin(), heap.end(), below);
    }
  }

  // Trim pass: the gain-per-cost heuristic can overshoot; drop or downgrade
  // choices while the target still holds, until no single move helps. Each
  // trial is an O(1) residual delta.
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t k = 0; k < table.rows.size(); ++k) {
      const size_t index = table.rows[k];
      const SafetyMechanismSpec* original = picked[index];
      if (original == nullptr) continue;
      const SafetyMechanismSpec* best_alternative = original;
      double best_cost = original->cost_hours;
      const double current_row_residual = eval.row_residual(index, original);
      // Candidate replacements: nothing, then each applicable mechanism in
      // catalogue order; only a cheaper one that keeps the target wins.
      const auto consider = [&](const SafetyMechanismSpec* alternative) {
        const double cost = alternative != nullptr ? alternative->cost_hours : 0.0;
        const double trial_residual =
            residual - current_row_residual + eval.row_residual(index, alternative);
        if (cost < best_cost && eval.spfm_of_residual(trial_residual) >= target) {
          best_alternative = alternative;
          best_cost = cost;
        }
      };
      consider(nullptr);
      for (const SafetyMechanismSpec* sm : table.mechanisms(k)) consider(sm);
      if (best_alternative != original) {
        residual += eval.row_residual(index, best_alternative) - current_row_residual;
        picked[index] = best_alternative;
        changed = true;
      }
    }
  }

  Deployment result;
  for (const size_t index : table.rows) {
    if (picked[index] != nullptr) result.choices.push_back({index, picked[index]});
  }
  result.total_cost_hours = SpfmEvaluator::cost(result);
  result.spfm = eval.spfm(result);
  return result;
}

}  // namespace

std::optional<Deployment> greedy_reach_asil(const FmedaResult& fmea,
                                            const SafetyMechanismModel& catalogue,
                                            std::string_view target_asil) {
  obs::Span span("sm_search.greedy", &SearchMetrics::get().greedy_seconds);
  const double target = spfm_target(target_asil);
  return greedy_over(fmea, resolve_options(fmea, catalogue), SpfmEvaluator(fmea), target);
}

std::optional<Deployment> optimal_reach_asil(const FmedaResult& fmea,
                                             const SafetyMechanismModel& catalogue,
                                             std::string_view target_asil,
                                             const OptimalOptions& options) {
  SearchMetrics& metrics = SearchMetrics::get();
  obs::Span span("sm_search.bnb", &metrics.bnb_seconds);

  const double target = spfm_target(target_asil);
  const SpfmEvaluator eval(fmea);
  const OptionTable table = resolve_options(fmea, catalogue);

  // The greedy result is the incumbent. When greedy fails, every row is
  // already at its maximum coverage and the target is provably unreachable.
  std::optional<Deployment> incumbent;
  {
    obs::Span greedy_span("sm_search.greedy", &metrics.greedy_seconds);
    incumbent = greedy_over(fmea, table, eval, target);
  }
  if (!incumbent.has_value()) return std::nullopt;
  if (eval.denominator() <= 0.0) return incumbent;  // SPFM degenerate at 1.0

  const double allowed_residual = (1.0 - target) * eval.denominator();
  const Quantizer q(table.max_total_cost(), eval.baseline_residual());
  const std::int64_t q_allowed = q.qresid(allowed_residual);

  struct BnbRow {
    size_t row_index = 0;
    std::vector<RowOption> options;
  };
  std::vector<BnbRow> order;
  order.reserve(table.rows.size());
  for (size_t k = 0; k < table.rows.size(); ++k) {
    order.push_back(
        {table.rows[k], row_option_front(eval, table.rows[k], table.mechanisms(k), q)});
  }
  // Branch on the rows with the most residual-reduction potential first —
  // they decide feasibility, so bounds bite early.
  std::stable_sort(order.begin(), order.end(), [](const BnbRow& a, const BnbRow& b) {
    const double ra = a.options.front().residual - a.options.back().residual;
    const double rb = b.options.front().residual - b.options.back().residual;
    return ra > rb;
  });

  const size_t n = order.size();
  // Suffix bounds over the branch order:
  //  - min_resid: residual floor if every remaining row takes its best
  //    option (feasibility bound);
  //  - base_resid/base_cost: residual and cost when every remaining row
  //    takes its cheapest option (the zero-extra-cost floor);
  //  - best_ratio: max residual reduction per extra cost hour among the
  //    remaining paid options (fractional cost lower bound).
  std::vector<double> min_resid(n + 1, 0.0), base_resid(n + 1, 0.0), base_cost(n + 1, 0.0),
      best_ratio(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    const std::vector<RowOption>& opts = order[i].options;
    min_resid[i] = min_resid[i + 1] + opts.back().residual;
    base_resid[i] = base_resid[i + 1] + opts.front().residual;
    base_cost[i] = base_cost[i + 1] + opts.front().cost;
    double row_ratio = 0.0;
    for (size_t o = 1; o < opts.size(); ++o) {
      const double reduction = opts.front().residual - opts[o].residual;
      const double paid = opts[o].cost - opts.front().cost;
      if (paid > 0.0) row_ratio = std::max(row_ratio, reduction / paid);
    }
    best_ratio[i] = std::max(best_ratio[i + 1], row_ratio);
  }

  double incumbent_cost = incumbent->total_cost_hours;
  std::uint64_t nodes = 0;
  std::vector<std::uint32_t> chosen(n, 0);

  const std::function<void(size_t, double, double)> dfs = [&](size_t depth, double residual,
                                                              double cost) {
    ++nodes;
    metrics.bnb_nodes.add();
    if (options.max_nodes != 0 && nodes > options.max_nodes) {
      throw AnalysisError("optimal_reach_asil exceeded " + std::to_string(options.max_nodes) +
                          " search nodes; use greedy_reach_asil");
    }
    // Feasibility: even max coverage everywhere below cannot reach the target.
    if (q.qresid(residual + min_resid[depth]) > q_allowed) {
      metrics.bnb_pruned.add();
      return;
    }
    // Cost bound: the zero-extra-cost floor plus a fractional relaxation of
    // the reduction still needed beyond it.
    double bound = cost + base_cost[depth];
    const double needed = (residual + base_resid[depth]) - allowed_residual;
    if (needed > 0.0 && best_ratio[depth] > 0.0) bound += needed / best_ratio[depth];
    if (q.qcost(bound) >= q.qcost(incumbent_cost)) {
      metrics.bnb_pruned.add();
      return;
    }
    if (depth == n) {
      if (q.qresid(residual) > q_allowed) return;
      Deployment candidate;
      for (size_t i = 0; i < n; ++i) {
        const RowOption& option = order[i].options[chosen[i]];
        if (option.mechanism != nullptr) {
          candidate.choices.push_back({order[i].row_index, option.mechanism});
        }
      }
      std::sort(candidate.choices.begin(), candidate.choices.end(),
                [](const DeploymentChoice& a, const DeploymentChoice& b) {
                  return a.row_index < b.row_index;
                });
      candidate.total_cost_hours = SpfmEvaluator::cost(candidate);
      candidate.spfm = eval.spfm(candidate);
      // Accept on the canonical value only — the incumbent is never replaced
      // by a deployment that fails the target outside the tolerance grid.
      if (candidate.spfm >= target &&
          q.qcost(candidate.total_cost_hours) < q.qcost(incumbent_cost)) {
        incumbent_cost = candidate.total_cost_hours;
        incumbent = std::move(candidate);
      }
      return;
    }
    const std::vector<RowOption>& opts = order[depth].options;
    for (std::uint32_t o = 0; o < opts.size(); ++o) {
      chosen[depth] = o;
      dfs(depth + 1, residual + opts[o].residual, cost + opts[o].cost);
    }
  };
  dfs(0, 0.0, 0.0);
  return incumbent;
}

CsvTable front_to_csv(const FmedaResult& fmea, const std::vector<Deployment>& front,
                      ParetoMetric metric) {
  CsvTable table;
  const bool lfm = metric == ParetoMetric::Lfm;
  table.header = {"Cost(hrs)", lfm ? "LFM" : "SPFM", "ASIL", "Choices", "Deployment"};
  for (const Deployment& d : front) {
    std::vector<std::string> parts;
    parts.reserve(d.choices.size());
    for (const auto& choice : d.choices) {
      const FmedaRow& row = fmea.rows[choice.row_index];
      parts.push_back(row.component + "/" + row.failure_mode + "=" + choice.mechanism->name);
    }
    table.rows.push_back({format_number(d.total_cost_hours, 2), format_percent(d.spfm, 4),
                          lfm ? achieved_asil_lfm(d.spfm) : achieved_asil(d.spfm),
                          std::to_string(d.choices.size()), join(parts, "; ")});
  }
  return table;
}

std::string front_to_json(const FmedaResult& fmea, const std::vector<Deployment>& front) {
  json::Array points;
  for (const Deployment& d : front) {
    json::Array choices;
    for (const auto& choice : d.choices) {
      const FmedaRow& row = fmea.rows[choice.row_index];
      json::Object c;
      c["row"] = static_cast<double>(choice.row_index);
      c["component"] = row.component;
      c["failure_mode"] = row.failure_mode;
      c["mechanism"] = choice.mechanism->name;
      c["coverage"] = choice.mechanism->coverage;
      c["cost_hours"] = choice.mechanism->cost_hours;
      choices.emplace_back(std::move(c));
    }
    json::Object point;
    point["cost_hours"] = d.total_cost_hours;
    point["spfm"] = d.spfm;
    point["asil"] = achieved_asil(d.spfm);
    point["choices"] = std::move(choices);
    points.emplace_back(std::move(point));
  }
  json::Object root;
  root["front"] = std::move(points);
  return json::write(json::Value(std::move(root)));
}

}  // namespace decisive::core
