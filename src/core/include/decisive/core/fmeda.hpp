// FME(D)A result model and ISO 26262 architecture metrics.
//
// A FmedaResult is the "Component Safety Analysis Model" of DECISIVE Step 4a
// plus the Excel-style FMEA table SAME always produces. The Single Point
// Fault Metric follows the paper's Equation 1:
//
//            sum over safety-related HW of lambda_SPF
//   SPFM = 1 - ---------------------------------------
//            sum over safety-related HW of lambda
//
// where lambda_SPF of a failure mode is FIT * distribution * (1 - diagnostic
// coverage), and the denominator sums the *total* FIT of every component
// with at least one safety-related failure mode.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/table.hpp"

namespace decisive::core {

/// Effect classification of a safety-related failure mode
/// (paper Table I: DVF = directly violates safety goal, IVF = indirectly).
enum class EffectClass { None, DVF, IVF };

std::string_view to_string(EffectClass effect) noexcept;

/// Structured outcome of one fault injection in the campaign — how the
/// faulted re-simulation behaved, independent of the effect classification.
/// xSAP-style safety platforms treat per-fault solver failure as a
/// first-class, classified result rather than a free-text warning; so do we.
enum class FaultOutcome {
  Converged,           ///< faulted circuit solved with plain Newton
  RecoveredViaLadder,  ///< solved, but only via gmin/source stepping
  BudgetExhausted,     ///< iteration/wall-clock budget spent without a solution
  Singular,            ///< faulted system is structurally singular
  NotApplicable,       ///< fault kind does not apply to this element
  Crashed,             ///< the task worker threw outside the classified paths
};

/// Number of FaultOutcome enumerators (for count arrays).
inline constexpr size_t kFaultOutcomeCount = 6;

std::string_view to_string(FaultOutcome outcome) noexcept;

/// One FMEDA row: a (component instance, failure mode) pair.
struct FmedaRow {
  std::string component;       ///< instance name, e.g. "D1" (display only)
  std::string component_type;  ///< type matched in the reliability model
  /// Stable identity of the component instance (the SSAM ObjectId for graph
  /// FMEA rows; 0 when the producer has no model object, e.g. circuit FMEA).
  /// Metrics aggregate by identity, never by display name, so two distinct
  /// components that happen to share a name are counted separately.
  std::uint64_t component_id = 0;
  /// Qualified path from the analysis root, e.g. "PSU/Reg/Regulator"
  /// (empty when the producer does not track hierarchy).
  std::string component_path;
  double fit = 0.0;            ///< component FIT (1e-9 failures/hour)
  std::string failure_mode;    ///< e.g. "Open"
  double distribution = 0.0;   ///< mode share of the FIT, in [0,1]
  bool safety_related = false;
  EffectClass effect = EffectClass::None;
  std::string safety_mechanism;  ///< deployed SM name; empty = "No SM"
  double sm_coverage = 0.0;      ///< diagnostic coverage of the deployed SM
  double sm_cost_hours = 0.0;

  // Campaign observability (circuit FMEA only; graph-analysis rows keep the
  // defaults). A non-Converged outcome other than NotApplicable is
  // conservatively safety-related, with `effect` left None — the *reason* is
  // carried here instead of being overloaded onto the effect class.
  FaultOutcome outcome = FaultOutcome::Converged;
  std::string outcome_detail;  ///< solver failure reason / recovery strategy
  int solver_iterations = 0;   ///< Newton iterations spent on the faulted solve
  int ladder_rung = 0;         ///< recovery-ladder rung that produced the result
  int retries = 0;             ///< containment retries spent on this task

  /// FIT apportioned to this failure mode.
  [[nodiscard]] double mode_fit() const noexcept { return fit * distribution; }

  /// Residual single-point-fault FIT after diagnostic coverage; zero when the
  /// mode is not safety-related.
  [[nodiscard]] double single_point_fit() const noexcept {
    return safety_related ? mode_fit() * (1.0 - sm_coverage) : 0.0;
  }
};

/// A complete FME(D)A of one system design.
struct FmedaResult {
  std::string system;
  std::vector<FmedaRow> rows;
  /// Diagnostics from the analysis (e.g. Algorithm 1 line 11 warnings,
  /// components without reliability data).
  std::vector<std::string> warnings;
  /// ISO 26262 Latent Fault Metric, set when an FTA-driven multi-point
  /// classification has been applied (fta::apply_lfm); absent for plain
  /// FMEDAs, which only quantify single-point faults.
  std::optional<double> latent_fault_metric;

  /// Row count per FaultOutcome, indexed by the enumerator value.
  [[nodiscard]] std::array<size_t, kFaultOutcomeCount> outcome_counts() const;

  /// One-line campaign summary, e.g. "10 converged, 1 recovered, 1 singular".
  [[nodiscard]] std::string outcome_summary() const;

  /// Names of components with at least one safety-related failure mode,
  /// deduplicated by component *identity* — a name may appear twice when two
  /// distinct components share it.
  [[nodiscard]] std::vector<std::string> safety_related_components() const;

  /// safety_related_components().size(), without building the names.
  [[nodiscard]] size_t safety_related_component_count() const;

  /// Denominator of Equation 1: total FIT over safety-related components,
  /// counted once per component identity.
  [[nodiscard]] double total_safety_related_fit() const;

  /// Numerator of Equation 1: residual single-point FIT.
  [[nodiscard]] double single_point_fit() const;

  /// True when at least one row is safety-related. When false the SPFM is
  /// degenerate — see spfm().
  [[nodiscard]] bool has_safety_related() const;

  /// The Single Point Fault Metric. Convention: returns 1.0 when no component
  /// is safety-related (the metric's denominator is empty). That value is NOT
  /// an ASIL-D claim — callers presenting metrics must check
  /// has_safety_related() first, or use asil_label() which does. Clamped at
  /// 0, where rounding could otherwise leave it a hair below.
  [[nodiscard]] double spfm() const;

  /// achieved_asil(spfm()) when the analysis has safety-related hardware,
  /// "no safety-related hardware" otherwise — never a vacuous ASIL-D claim.
  [[nodiscard]] std::string asil_label() const;
  /// The same label for `spfm`, the value of spfm() the caller already
  /// computed (each spfm() call is a pass over the rows).
  [[nodiscard]] std::string asil_label(double spfm) const;

  /// Rows for one component, by display name (matches every identity sharing
  /// the name).
  [[nodiscard]] std::vector<const FmedaRow*> rows_of(std::string_view component) const;

  /// Rows for one component, by stable identity.
  [[nodiscard]] std::vector<const FmedaRow*> rows_of(std::uint64_t component_id) const;

  /// The Excel-style FMEA table (paper Table IV layout).
  [[nodiscard]] CsvTable to_csv() const;

  /// Human-readable rendering of the same table.
  [[nodiscard]] TextTable to_text() const;
};

/// ISO 26262 SPFM targets per ASIL (ASIL-A imposes no SPFM target).
inline constexpr double kSpfmTargetAsilB = 0.90;
inline constexpr double kSpfmTargetAsilC = 0.97;
inline constexpr double kSpfmTargetAsilD = 0.99;

/// SPFM target for an ASIL name ("ASIL-B", "B", case-insensitive).
/// Returns 0.0 for ASIL-A / QM. Throws AnalysisError for unknown names.
double spfm_target(std::string_view asil);

/// True when the SPFM meets the target of the given ASIL.
bool meets_asil(double spfm, std::string_view asil);

/// The most stringent ASIL whose SPFM target the value meets
/// ("ASIL-D", "ASIL-C", "ASIL-B", or "ASIL-A" when below all targets).
std::string achieved_asil(double spfm);

/// ISO 26262 Latent Fault Metric targets per ASIL (ASIL-A imposes none).
inline constexpr double kLfmTargetAsilB = 0.60;
inline constexpr double kLfmTargetAsilC = 0.80;
inline constexpr double kLfmTargetAsilD = 0.90;

/// LFM target for an ASIL name (same spellings as spfm_target).
double lfm_target(std::string_view asil);

/// True when the LFM meets the target of the given ASIL.
bool meets_asil_lfm(double lfm, std::string_view asil);

/// The most stringent ASIL whose LFM target the value meets.
std::string achieved_asil_lfm(double lfm);

}  // namespace decisive::core
