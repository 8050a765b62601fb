#include "decisive/core/fmeda.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string_view>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::core {

std::string_view to_string(EffectClass effect) noexcept {
  switch (effect) {
    case EffectClass::None: return "";
    case EffectClass::DVF: return "DVF";
    case EffectClass::IVF: return "IVF";
  }
  return "";
}

std::string_view to_string(FaultOutcome outcome) noexcept {
  switch (outcome) {
    case FaultOutcome::Converged: return "Converged";
    case FaultOutcome::RecoveredViaLadder: return "RecoveredViaLadder";
    case FaultOutcome::BudgetExhausted: return "BudgetExhausted";
    case FaultOutcome::Singular: return "Singular";
    case FaultOutcome::NotApplicable: return "NotApplicable";
    case FaultOutcome::Crashed: return "Crashed";
  }
  return "Converged";
}

std::array<size_t, kFaultOutcomeCount> FmedaResult::outcome_counts() const {
  std::array<size_t, kFaultOutcomeCount> counts{};
  for (const auto& row : rows) counts[static_cast<size_t>(row.outcome)]++;
  return counts;
}

std::string FmedaResult::outcome_summary() const {
  const auto counts = outcome_counts();
  std::string out;
  static constexpr const char* kLabels[kFaultOutcomeCount] = {
      "converged", "recovered via ladder", "budget-exhausted", "singular",
      "not applicable", "crashed"};
  for (size_t i = 0; i < kFaultOutcomeCount; ++i) {
    if (counts[i] == 0 && i != static_cast<size_t>(FaultOutcome::Converged)) continue;
    if (!out.empty()) out += ", ";
    out += std::to_string(counts[i]) + " " + kLabels[i];
  }
  return out;
}

namespace {

/// Calls `visit(row)` for the first safety-related row of each component
/// identity, in row order. The identity is the stable ObjectId when the
/// producer supplied one, the display name otherwise (id 0 — e.g. circuit
/// FMEA rows, where names are unique by construction). The filter is one
/// open-addressing table of row indices sized to the rows, so its memory
/// never depends on how large the ids are.
template <typename Visit>
void for_each_safety_related_component(const std::vector<FmedaRow>& rows, Visit visit) {
  constexpr auto kFree = std::numeric_limits<std::uint32_t>::max();
  size_t capacity = 16;
  while (capacity < 2 * rows.size()) capacity *= 2;
  std::vector<std::uint32_t> slots(capacity, kFree);
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < rows.size(); ++i) {
    const FmedaRow& row = rows[i];
    if (!row.safety_related) continue;
    const bool by_name = row.component_id == 0;
    std::uint64_t h = by_name ? std::hash<std::string_view>{}(row.component)
                              : row.component_id * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
    size_t slot = h & mask;
    for (; slots[slot] != kFree; slot = (slot + 1) & mask) {
      const FmedaRow& seen = rows[slots[slot]];
      if (seen.component_id == row.component_id &&
          (!by_name || seen.component == row.component)) {
        break;
      }
    }
    if (slots[slot] != kFree) continue;  // not the identity's first row
    slots[slot] = static_cast<std::uint32_t>(i);
    visit(row);
  }
}

}  // namespace

std::vector<std::string> FmedaResult::safety_related_components() const {
  std::vector<std::string> out;
  for_each_safety_related_component(rows,
                                    [&](const FmedaRow& row) { out.push_back(row.component); });
  return out;
}

size_t FmedaResult::safety_related_component_count() const {
  size_t count = 0;
  for_each_safety_related_component(rows, [&](const FmedaRow&) { ++count; });
  return count;
}

double FmedaResult::total_safety_related_fit() const {
  // Total FIT of each safety-related component, counted once per component
  // *identity* — duplicate names across recursion levels stay distinct.
  double total = 0.0;
  for_each_safety_related_component(rows, [&](const FmedaRow& row) { total += row.fit; });
  return total;
}

double FmedaResult::single_point_fit() const {
  double total = 0.0;
  for (const auto& row : rows) total += row.single_point_fit();
  return total;
}

bool FmedaResult::has_safety_related() const {
  return std::any_of(rows.begin(), rows.end(),
                     [](const FmedaRow& row) { return row.safety_related; });
}

double FmedaResult::spfm() const {
  const double denominator = total_safety_related_fit();
  // Documented convention: an empty denominator (no safety-related hardware)
  // yields 1.0. Callers must not read that as ASIL-D — see asil_label().
  if (denominator <= 0.0) return 1.0;
  // Clamped: with fractional FITs split over modes, Σ residual can round a
  // hair above Σ FIT and the metric to −2e-16.
  const double spfm = 1.0 - single_point_fit() / denominator;
  return spfm < 0.0 ? 0.0 : spfm;
}

std::string FmedaResult::asil_label() const { return asil_label(spfm()); }

std::string FmedaResult::asil_label(double spfm) const {
  if (!has_safety_related()) return "no safety-related hardware";
  return achieved_asil(spfm);
}

std::vector<const FmedaRow*> FmedaResult::rows_of(std::string_view component) const {
  std::vector<const FmedaRow*> out;
  for (const auto& row : rows) {
    if (row.component == component) out.push_back(&row);
  }
  return out;
}

std::vector<const FmedaRow*> FmedaResult::rows_of(std::uint64_t component_id) const {
  std::vector<const FmedaRow*> out;
  for (const auto& row : rows) {
    if (row.component_id == component_id) out.push_back(&row);
  }
  return out;
}

namespace {

std::vector<std::string> render_row(const FmedaRow& row, bool first_of_component) {
  return {
      first_of_component ? row.component : "",
      first_of_component ? format_number(row.fit) : "",
      row.safety_related ? "Yes" : "No",
      row.failure_mode,
      format_percent(row.distribution, 0),
      row.safety_related ? (row.safety_mechanism.empty() ? "No SM" : row.safety_mechanism) : "",
      row.safety_related && !row.safety_mechanism.empty() ? format_percent(row.sm_coverage, 0)
                                                          : "",
      row.safety_related ? format_number(row.single_point_fit(), 3) + " FIT" : "",
  };
}

const std::vector<std::string> kFmedaHeader = {
    "Component",        "FIT",         "Safety_Related",
    "Failure_Mode",     "Distribution", "Safety_Mechanism",
    "SM_Coverage",      "Single_Point_Failure_Rate"};

}  // namespace

CsvTable FmedaResult::to_csv() const {
  // Machine-readable layout: every row fully populated, numeric columns
  // without unit suffixes, so downstream queries (assurance-case evidence
  // checks) can recompute metrics directly.
  CsvTable table;
  table.header = {"Component",   "Component_Type", "FIT",
                  "Safety_Related", "Failure_Mode", "Distribution",
                  "Safety_Mechanism", "SM_Coverage", "Mode_FIT",
                  "Single_Point_FIT", "Effect", "Fault_Outcome",
                  "Outcome_Detail"};
  for (const auto& row : rows) {
    table.rows.push_back({row.component, row.component_type, format_number(row.fit),
                          row.safety_related ? "Yes" : "No", row.failure_mode,
                          format_number(row.distribution, 6), row.safety_mechanism,
                          format_number(row.sm_coverage, 6), format_number(row.mode_fit(), 6),
                          format_number(row.single_point_fit(), 6),
                          std::string(to_string(row.effect)),
                          std::string(to_string(row.outcome)), row.outcome_detail});
  }
  return table;
}

TextTable FmedaResult::to_text() const {
  TextTable table(kFmedaHeader);
  std::string previous;
  for (const auto& row : rows) {
    table.add_row(render_row(row, row.component != previous));
    previous = row.component;
  }
  return table;
}

double spfm_target(std::string_view asil) {
  std::string a = to_lower(trim(asil));
  if (starts_with(a, "asil-")) a = a.substr(5);
  else if (starts_with(a, "asil ")) a = a.substr(5);
  else if (starts_with(a, "asil")) a = a.substr(4);
  if (a == "qm" || a == "a") return 0.0;
  if (a == "b") return kSpfmTargetAsilB;
  if (a == "c") return kSpfmTargetAsilC;
  if (a == "d") return kSpfmTargetAsilD;
  throw AnalysisError("unknown ASIL '" + std::string(asil) + "'");
}

bool meets_asil(double spfm, std::string_view asil) { return spfm >= spfm_target(asil); }

std::string achieved_asil(double spfm) {
  if (spfm >= kSpfmTargetAsilD) return "ASIL-D";
  if (spfm >= kSpfmTargetAsilC) return "ASIL-C";
  if (spfm >= kSpfmTargetAsilB) return "ASIL-B";
  return "ASIL-A";
}

double lfm_target(std::string_view asil) {
  std::string a = to_lower(trim(asil));
  if (starts_with(a, "asil-")) a = a.substr(5);
  else if (starts_with(a, "asil ")) a = a.substr(5);
  else if (starts_with(a, "asil")) a = a.substr(4);
  if (a == "qm" || a == "a") return 0.0;
  if (a == "b") return kLfmTargetAsilB;
  if (a == "c") return kLfmTargetAsilC;
  if (a == "d") return kLfmTargetAsilD;
  throw AnalysisError("unknown ASIL '" + std::string(asil) + "'");
}

bool meets_asil_lfm(double lfm, std::string_view asil) { return lfm >= lfm_target(asil); }

std::string achieved_asil_lfm(double lfm) {
  if (lfm >= kLfmTargetAsilD) return "ASIL-D";
  if (lfm >= kLfmTargetAsilC) return "ASIL-C";
  if (lfm >= kLfmTargetAsilB) return "ASIL-B";
  return "ASIL-A";
}

}  // namespace decisive::core
