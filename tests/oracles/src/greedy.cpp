// The full-scan greedy deployment search that core::greedy_reach_asil
// replaced with a heap of per-row best moves: every move rescans every open
// row's mechanisms. It resolves the catalogue itself, and keeps the engine's
// arithmetic (same expressions, same summation order), so the two must agree
// bit for bit.
#include <optional>

#include "decisive/oracles.hpp"

namespace decisive::oracle {

using core::Deployment;
using core::FmedaResult;
using core::FmedaRow;
using core::SafetyMechanismSpec;

namespace {

/// SpfmEvaluator's unweighted arithmetic.
struct Spfm {
  const FmedaResult& fmea;
  double denominator = fmea.total_safety_related_fit();
  double baseline = fmea.single_point_fit();

  [[nodiscard]] double row_residual(size_t index, const SafetyMechanismSpec* sm) const {
    const FmedaRow& row = fmea.rows[index];
    return 1.0 * row.mode_fit() * (1.0 - (sm != nullptr ? sm->coverage : row.sm_coverage));
  }

  [[nodiscard]] double of_residual(double residual) const {
    if (denominator <= 0.0) return 1.0;
    const double spfm = 1.0 - residual / denominator;
    return spfm < 0.0 ? 0.0 : spfm;
  }
};

}  // namespace

std::optional<Deployment> greedy_reach_asil(const FmedaResult& fmea,
                                            const core::SafetyMechanismModel& catalogue,
                                            std::string_view target_asil) {
  const double target = core::spfm_target(target_asil);
  const Spfm eval{fmea};
  std::vector<size_t> rows;
  std::vector<std::vector<const SafetyMechanismSpec*>> mechanisms;
  for (size_t i = 0; i < fmea.rows.size(); ++i) {
    const FmedaRow& row = fmea.rows[i];
    if (!row.safety_related || !row.safety_mechanism.empty()) continue;
    rows.push_back(i);
    mechanisms.push_back(catalogue.applicable(row.component_type, row.failure_mode));
  }

  std::vector<const SafetyMechanismSpec*> picked(fmea.rows.size(), nullptr);
  double residual = eval.baseline;
  while (eval.of_residual(residual) < target) {
    // The first maximum of the gain per cost hour over every (row,
    // mechanism) pair, in row order then catalogue order.
    double best_ratio = -1.0;
    size_t best_row = 0;
    const SafetyMechanismSpec* best = nullptr;
    for (size_t k = 0; k < rows.size(); ++k) {
      const size_t index = rows[k];
      const double current_coverage = picked[index] != nullptr ? picked[index]->coverage : 0.0;
      const double current_cost = picked[index] != nullptr ? picked[index]->cost_hours : 0.0;
      for (const SafetyMechanismSpec* sm : mechanisms[k]) {
        if (sm->coverage <= current_coverage) continue;
        const double gain = fmea.rows[index].mode_fit() * (sm->coverage - current_coverage);
        const double delta_cost = sm->cost_hours - current_cost;
        const double ratio = delta_cost > 0.0 ? gain / delta_cost : 1e18 + gain;
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_row = index;
          best = sm;
        }
      }
    }
    if (best == nullptr) return std::nullopt;
    residual += eval.row_residual(best_row, best) - eval.row_residual(best_row, picked[best_row]);
    picked[best_row] = best;
  }

  // Trim: drop or downgrade a pick while the target still holds, until no
  // single change is cheaper.
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t k = 0; k < rows.size(); ++k) {
      const size_t index = rows[k];
      const SafetyMechanismSpec* original = picked[index];
      if (original == nullptr) continue;
      const SafetyMechanismSpec* best_alternative = original;
      double best_cost = original->cost_hours;
      const double current_row_residual = eval.row_residual(index, original);
      const auto consider = [&](const SafetyMechanismSpec* alternative) {
        const double cost = alternative != nullptr ? alternative->cost_hours : 0.0;
        const double trial = residual - current_row_residual + eval.row_residual(index, alternative);
        if (cost < best_cost && eval.of_residual(trial) >= target) {
          best_alternative = alternative;
          best_cost = cost;
        }
      };
      consider(nullptr);
      for (const SafetyMechanismSpec* sm : mechanisms[k]) consider(sm);
      if (best_alternative != original) {
        residual += eval.row_residual(index, best_alternative) - current_row_residual;
        picked[index] = best_alternative;
        changed = true;
      }
    }
  }

  Deployment result;
  for (const size_t index : rows) {
    if (picked[index] != nullptr) result.choices.push_back({index, picked[index]});
  }
  double canonical = eval.baseline;
  for (const auto& choice : result.choices) {
    result.total_cost_hours += choice.mechanism->cost_hours;
    canonical += eval.row_residual(choice.row_index, choice.mechanism) -
                 eval.row_residual(choice.row_index, nullptr);
  }
  result.spfm = eval.of_residual(canonical);
  return result;
}

}  // namespace decisive::oracle
