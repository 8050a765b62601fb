#include "decisive/fta/quantify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

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
  std::vector<ObjectId> component_of_var;
  std::map<ObjectId, uint32_t> var_of_component;
};

CutFamily build_family(const core::FaultTree& tree) {
  CutFamily family;
  for (const auto& cut : tree.cut_sets) {
    for (const ObjectId member : cut) family.var_of_component[member];  // collect
  }
  uint32_t next = 0;
  for (auto& [component, var] : family.var_of_component) {
    var = next++;
    family.component_of_var.push_back(component);
  }
  for (const auto& cut : tree.cut_sets) {
    ZbddRef set = kZbddUnit;
    for (const ObjectId member : cut) {
      set = family.arena.join(set, family.arena.single(family.var_of_component.at(member)));
    }
    family.root = family.arena.set_union(family.root, set);
  }
  family.root = family.arena.minimal(family.root);
  return family;
}

/// Exact P(top): Rauzy's Shannon recursion over the minimal cut family.
/// Fresh memo per probability assignment (callers re-run it conditioned).
double eval_exact(ZbddArena& arena, ZbddRef f, const std::vector<double>& prob,
                  std::unordered_map<ZbddRef, double>& memo) {
  if (f == kZbddEmpty) return 0.0;
  if (f == kZbddUnit) return 1.0;
  if (const auto it = memo.find(f); it != memo.end()) return it->second;
  const double p = prob[arena.var(f)];
  // Given x failed the residual function is hi ∨ lo; given x healthy it is lo.
  const double failed = eval_exact(arena, arena.min_union(arena.hi(f), arena.lo(f)), prob, memo);
  const double healthy = eval_exact(arena, arena.lo(f), prob, memo);
  const double value = p * failed + (1.0 - p) * healthy;
  memo.emplace(f, value);
  return value;
}

double eval_exact(ZbddArena& arena, ZbddRef f, const std::vector<double>& prob) {
  std::unordered_map<ZbddRef, double> memo;
  return eval_exact(arena, f, prob, memo);
}

/// Rare-event bound: Σ over sets of Π member probabilities, linear in the
/// diagram (uncapped; the caller caps the reported bound at 1).
double eval_rare(ZbddArena& arena, ZbddRef f, const std::vector<double>& prob,
                 std::unordered_map<ZbddRef, double>& memo) {
  if (f == kZbddEmpty) return 0.0;
  if (f == kZbddUnit) return 1.0;
  if (const auto it = memo.find(f); it != memo.end()) return it->second;
  const double value = eval_rare(arena, arena.lo(f), prob, memo) +
                       prob[arena.var(f)] * eval_rare(arena, arena.hi(f), prob, memo);
  memo.emplace(f, value);
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

  // Mission failure probability and label per basic event.
  std::map<ObjectId, double> p_of;
  std::map<ObjectId, std::string> label_of;
  for (const auto& node : tree.nodes) {
    if (node.kind != core::GateKind::Basic) continue;
    p_of[node.component] = 1.0 - std::exp(-node.failure_rate * mission_hours);
    label_of[node.component] = node.label;
  }
  std::vector<double> prob(nvars, 0.0);
  for (size_t v = 0; v < nvars; ++v) {
    const auto it = p_of.find(family.component_of_var[v]);
    if (it != p_of.end()) prob[v] = it->second;
  }

  out.exact_probability = eval_exact(family.arena, family.root, prob);
  {
    std::unordered_map<ZbddRef, double> memo;
    out.rare_event_bound =
        std::min(eval_rare(family.arena, family.root, prob, memo), 1.0);
  }

  const double p_top = out.exact_probability;
  for (size_t v = 0; v < nvars; ++v) {
    const ObjectId component = family.component_of_var[v];
    ImportanceRow row;
    row.component = component;
    row.label = label_of.contains(component) ? label_of.at(component) : std::string{};
    row.probability = prob[v];

    std::vector<double> conditioned = prob;
    conditioned[v] = 1.0;
    const double p_always_failed = eval_exact(family.arena, family.root, conditioned);
    conditioned[v] = 0.0;
    const double p_never_fails = eval_exact(family.arena, family.root, conditioned);
    row.birnbaum = p_always_failed - p_never_fails;

    if (p_top > 0.0) {
      // Exact FV: probability that some cut *containing v* is fully failed.
      const ZbddRef with_v = family.arena.join(
          family.arena.single(static_cast<uint32_t>(v)),
          family.arena.subsets_with(family.root, static_cast<uint32_t>(v)));
      row.fussell_vesely = eval_exact(family.arena, with_v, prob) / p_top;
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
