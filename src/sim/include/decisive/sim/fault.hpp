// Fault injection — the heart of the automated FMEA on circuit models.
//
// A fault transforms one element into its failed form (paper Section IV-D1:
// "for a found failure mode, a failure is injected into the system").
// faulted_element() builds that form as a one-element override, which the
// campaign's solve context applies without copying the circuit;
// inject_fault() applies it to a copy. The original circuit is never
// mutated.
#pragma once

#include <string>
#include <string_view>

#include "decisive/sim/circuit.hpp"

namespace decisive::sim {

/// Supported failure-mode semantics.
enum class FaultKind {
  Open,        ///< element becomes an open circuit
  Short,       ///< element becomes a near-zero resistance
  StuckOff,    ///< sources: output collapses to zero (loss of function)
  Drift,       ///< parametric drift: value multiplied by `drift_factor`
  RamFailure,  ///< MCU-specific: status output corrupts (electrically silent)
};

std::string_view to_string(FaultKind kind) noexcept;

/// Parses a failure-mode name from a reliability model into a FaultKind.
/// Recognised (case-insensitive): "open", "short", "stuck", "stuck-off",
/// "loss of function", "drift", "ram failure", "lower frequency", ...
/// Throws AnalysisError for unknown names.
FaultKind fault_kind_from_name(std::string_view name);

/// Value multiplier of a Drift fault unless a Fault says otherwise.
inline constexpr double kDefaultDriftFactor = 10.0;

/// A fault to inject: element + semantics.
struct Fault {
  std::string element;
  FaultKind kind = FaultKind::Open;
  double drift_factor = kDefaultDriftFactor;  ///< only for FaultKind::Drift
};

/// `element` in its failed form under a fault of `kind`: the one-element
/// override a fault makes to its circuit. Throws AnalysisError for fault
/// kinds that do not apply to the element's kind (e.g. RamFailure on a
/// resistor, any fault on an observation point).
Element faulted_element(const Element& element, FaultKind kind, double drift_factor,
                        double open_resistance, double short_resistance);

/// Returns a copy of `circuit` with the fault applied.
/// Throws SimulationError for unknown elements and AnalysisError for
/// fault kinds that do not apply to the element (e.g. RamFailure on a
/// resistor).
Circuit inject_fault(const Circuit& circuit, const Fault& fault,
                     double open_resistance = 1e12, double short_resistance = 1e-3);

}  // namespace decisive::sim
