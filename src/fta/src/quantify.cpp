#include "decisive/fta/quantify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/fta/zbdd.hpp"

namespace decisive::fta {

namespace {

using ssam::ObjectId;

/// The tree's minimal cut family rebuilt as a ZBDD, with variables assigned
/// in sorted-component-id order (any fixed order works; this one is
/// deterministic and independent of how the tree was synthesised).
struct CutFamily {
  ZbddArena arena;
  ZbddRef root = kZbddEmpty;
  std::vector<ObjectId> component_of_var;  ///< ascending

  /// The variable of `component`, or kZbddNone when no cut names it.
  [[nodiscard]] uint32_t var_of(ObjectId component) const {
    const auto it =
        std::lower_bound(component_of_var.begin(), component_of_var.end(), component);
    return it != component_of_var.end() && *it == component
               ? static_cast<uint32_t>(it - component_of_var.begin())
               : kZbddNone;
  }
};

/// The ZBDD of the sets in [first, last): lexicographically sorted variable
/// lists sharing their first `depth` variables. One node per distinct next
/// variable, chained through lo from the largest down, so the diagram is
/// the family's canonical one without a union per set.
ZbddRef build_sets(ZbddArena& arena, const std::vector<std::vector<uint32_t>>& sets,
                   size_t first, size_t last, size_t depth) {
  size_t begin = first;
  while (begin < last && sets[begin].size() == depth) ++begin;  // the shared prefix itself
  ZbddRef result = begin > first ? kZbddUnit : kZbddEmpty;
  for (size_t end = last; end > begin;) {
    const uint32_t var = sets[end - 1][depth];
    size_t run = end - 1;
    while (run > begin && sets[run - 1][depth] == var) --run;
    result = arena.node(var, result, build_sets(arena, sets, run, end, depth + 1));
    end = run;
  }
  return result;
}

CutFamily build_family(const core::FaultTree& tree) {
  CutFamily family;
  for (const auto& cut : tree.cut_sets) {
    family.component_of_var.insert(family.component_of_var.end(), cut.begin(), cut.end());
  }
  std::sort(family.component_of_var.begin(), family.component_of_var.end());
  family.component_of_var.erase(
      std::unique(family.component_of_var.begin(), family.component_of_var.end()),
      family.component_of_var.end());
  std::vector<std::vector<uint32_t>> sets;
  sets.reserve(tree.cut_sets.size());
  for (const auto& cut : tree.cut_sets) {
    std::vector<uint32_t> vars;
    vars.reserve(cut.size());
    for (const ObjectId member : cut) vars.push_back(family.var_of(member));
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    sets.push_back(std::move(vars));
  }
  std::sort(sets.begin(), sets.end());
  family.root = family.arena.minimal(build_sets(family.arena, sets, 0, sets.size(), 0));
  return family;
}

/// Exact P(f): Rauzy's Shannon recursion over a minimal cut family,
///   P(f) = p_x · P(minimal(hi ∪ lo)) + (1 − p_x) · P(lo),
/// with every table indexed by ZbddRef. Each node's failed child
/// minimal(hi ∪ lo) is resolved once and shared by every evaluation.
class ExactEvaluator {
 public:
  ExactEvaluator(ZbddArena& arena, const std::vector<double>& prob)
      : arena_(arena), prob_(prob) {}

  /// P(f) under `prob`; memoised across calls.
  double value(ZbddRef f) {
    if (f == kZbddEmpty) return 0.0;
    if (f == kZbddUnit) return 1.0;
    cover(f);
    if (value_known_[f]) return value_[f];
    const double p = prob_[arena_.var(f)];
    // Given x failed the residual function is hi ∨ lo; given x healthy it is lo.
    const double failed = value(failed_child(f));
    const double healthy = value(arena_.lo(f));
    const double result = p * failed + (1.0 - p) * healthy;
    value_[f] = result;
    value_known_[f] = 1;
    return result;
  }

  /// P(f) with p_var replaced by `p_var`. A node whose variable comes after
  /// `var` never tests it (a node's sub-diagram holds only later
  /// variables), so its conditioned value is value(), computed by the same
  /// expressions from the same inputs: the same bits.
  double conditioned(ZbddRef f, uint32_t var, double p_var) {
    ++pass_;
    return conditioned_rec(f, var, p_var);
  }

 private:
  double conditioned_rec(ZbddRef f, uint32_t var, double p_var) {
    if (f == kZbddEmpty) return 0.0;
    if (f == kZbddUnit) return 1.0;
    const uint32_t x = arena_.var(f);
    if (x > var) return value(f);
    cover(f);
    if (pass_of_[f] == pass_) return conditioned_[f];
    const double p = x == var ? p_var : prob_[x];
    const double failed = conditioned_rec(failed_child(f), var, p_var);
    const double healthy = conditioned_rec(arena_.lo(f), var, p_var);
    const double result = p * failed + (1.0 - p) * healthy;
    conditioned_[f] = result;
    pass_of_[f] = pass_;
    return result;
  }

  ZbddRef failed_child(ZbddRef f) {
    if (failed_[f] == kZbddNone) {
      const ZbddRef child = arena_.min_union(arena_.hi(f), arena_.lo(f));
      cover(child);
      failed_[f] = child;
    }
    return failed_[f];
  }

  /// Grows every table to the arena, which resolving a failed child extends.
  void cover(ZbddRef f) {
    if (f < failed_.size()) return;
    const size_t n = arena_.node_count();
    failed_.resize(n, kZbddNone);
    value_.resize(n, 0.0);
    value_known_.resize(n, 0);
    conditioned_.resize(n, 0.0);
    pass_of_.resize(n, 0);
  }

  ZbddArena& arena_;
  const std::vector<double>& prob_;
  std::vector<ZbddRef> failed_;  ///< minimal(hi ∪ lo) by node; kZbddNone = not yet
  std::vector<double> value_;
  std::vector<char> value_known_;
  std::vector<double> conditioned_;  ///< valid where pass_of_ == pass_
  std::vector<uint32_t> pass_of_;
  uint32_t pass_ = 0;
};

/// Rare-event bound: Σ over sets of Π member probabilities, linear in the
/// diagram (uncapped; the caller caps the reported bound at 1).
double eval_rare(const ZbddArena& arena, ZbddRef f, const std::vector<double>& prob,
                 std::vector<double>& memo, std::vector<char>& known) {
  if (f == kZbddEmpty) return 0.0;
  if (f == kZbddUnit) return 1.0;
  if (known[f]) return memo[f];
  const double value = eval_rare(arena, arena.lo(f), prob, memo, known) +
                       prob[arena.var(f)] * eval_rare(arena, arena.hi(f), prob, memo, known);
  memo[f] = value;
  known[f] = 1;
  return value;
}

std::string format_probability(double p) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6e", p);
  return buffer;
}

}  // namespace

void validate_mission_hours(double mission_hours) {
  if (!std::isfinite(mission_hours) || mission_hours < 0.0) {
    throw AnalysisError("mission time must be a finite number of hours >= 0, got " +
                        format_number(mission_hours));
  }
}

Quantification quantify(const core::FaultTree& tree, double mission_hours) {
  validate_mission_hours(mission_hours);
  Quantification out;
  CutFamily family = build_family(tree);
  const size_t nvars = family.component_of_var.size();

  // Mission failure probability and label per variable (a component's last
  // basic event wins; a cut member without one keeps p = 0 and no label).
  std::vector<double> prob(nvars, 0.0);
  std::vector<const std::string*> label(nvars, nullptr);
  for (const auto& node : tree.nodes) {
    if (node.kind != core::GateKind::Basic) continue;
    const uint32_t v = family.var_of(node.component);
    if (v == kZbddNone) continue;
    prob[v] = 1.0 - std::exp(-node.failure_rate * mission_hours);
    label[v] = &node.label;
  }

  ExactEvaluator exact(family.arena, prob);
  out.exact_probability = exact.value(family.root);
  {
    std::vector<double> memo(family.arena.node_count(), 0.0);
    std::vector<char> known(family.arena.node_count(), 0);
    out.rare_event_bound =
        std::min(eval_rare(family.arena, family.root, prob, memo, known), 1.0);
  }

  const double p_top = out.exact_probability;
  for (size_t v = 0; v < nvars; ++v) {
    const auto var = static_cast<uint32_t>(v);
    ImportanceRow row;
    row.component = family.component_of_var[v];
    row.label = label[v] != nullptr ? *label[v] : std::string{};
    row.probability = prob[v];

    const double p_always_failed = exact.conditioned(family.root, var, 1.0);
    const double p_never_fails = exact.conditioned(family.root, var, 0.0);
    row.birnbaum = p_always_failed - p_never_fails;

    if (p_top > 0.0) {
      // Exact FV: probability that some cut *containing v* is fully failed.
      const ZbddRef with_v = family.arena.join(family.arena.single(var),
                                               family.arena.subsets_with(family.root, var));
      row.fussell_vesely = exact.value(with_v) / p_top;
      row.raw = p_always_failed / p_top;
      if (p_never_fails > 0.0) {
        row.rrw = p_top / p_never_fails;
      } else {
        // Repairing this component alone drives the top event to zero: RRW
        // diverges; report 0 + the flag instead of Inf.
        row.rrw = 0.0;
        row.indispensable = true;
      }
    }
    out.importance.push_back(std::move(row));
  }
  std::sort(out.importance.begin(), out.importance.end(),
            [](const ImportanceRow& a, const ImportanceRow& b) {
              if (a.fussell_vesely != b.fussell_vesely) {
                return a.fussell_vesely > b.fussell_vesely;
              }
              return a.component < b.component;
            });
  return out;
}

CsvTable cut_sets_csv(const core::FaultTree& tree, double mission_hours) {
  validate_mission_hours(mission_hours);
  std::map<ObjectId, std::string> label_of;
  std::map<ObjectId, double> p_of;
  for (const auto& node : tree.nodes) {
    if (node.kind != core::GateKind::Basic) continue;
    label_of[node.component] = node.label;
    p_of[node.component] = 1.0 - std::exp(-node.failure_rate * mission_hours);
  }

  CsvTable table;
  table.header = {"Order", "Cut set", "P(cut)"};
  for (const auto& cut : tree.cut_sets) {
    std::string members;
    double product = 1.0;
    for (const ObjectId member : cut) {
      if (!members.empty()) members += " + ";
      members += label_of.contains(member) ? label_of.at(member) : std::string{"?"};
      product *= p_of.contains(member) ? p_of.at(member) : 0.0;
    }
    table.rows.push_back(
        {std::to_string(cut.size()), members, format_probability(product)});
  }
  if (tree.truncated) {
    table.rows.push_back({"", std::string(core::kFtaTruncationWarning), ""});
  }
  return table;
}

}  // namespace decisive::fta
