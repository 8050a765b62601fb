// MNA (modified nodal analysis) solver: DC operating point with Newton
// iteration for diodes, and backward-Euler transient analysis.
//
// This is the `simulate()` the automated FMEA invokes before and after each
// fault injection (paper Section IV-D1, step 2b). Because the fault-injection
// campaign feeds the solver deliberately broken circuits (opens, shorts,
// collapsed sources), hard solves are first-class: every DC solve is guarded
// against non-finite iterates, bounded by iteration and wall-clock budgets,
// and backed by a recovery ladder (gmin stepping, then source stepping) that
// is tried in order when plain Newton gives up.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "decisive/sim/circuit.hpp"

namespace decisive::sim {

/// Result of a DC solve: node voltages plus every observable reading.
struct OperatingPoint {
  std::vector<double> node_voltage;

  /// Readings keyed by element name:
  ///  - CurrentSensor: branch current (A)
  ///  - VoltageSensor: terminal voltage difference (V)
  ///  - Mcu: status output, 1.0 = operating correctly, 0.0 = failed/browned out
  std::map<std::string, double> readings;

  [[nodiscard]] double reading(const std::string& name) const;
};

/// Indices of the circuit's observable elements — every current sensor,
/// voltage sensor and MCU, the elements OperatingPoint::readings names — in
/// element order. A campaign resolves them once and keeps its readings by
/// slot in this order.
std::vector<std::size_t> reading_elements(const Circuit& circuit);

/// Solver tuning knobs.
struct SolveOptions {
  int max_newton_iterations = 200;
  double newton_tolerance = 1e-9;   ///< max |dV| between iterations
  double gmin = 1e-12;              ///< leak conductance to ground on every node
  double diode_is = 1e-12;          ///< diode saturation current (A)
  double diode_vt = 0.025852;       ///< thermal voltage (V)
  double open_resistance = 1e12;    ///< ohms modelling an "open" element
  double closed_resistance = 1e-3;  ///< ohms modelling a closed switch / "short"

  /// Wall-clock budget for one DC solve including every recovery-ladder
  /// attempt; <= 0 disables the budget.
  double max_wall_clock_seconds = 5.0;

  /// Lets a campaign solve context (campaign_solver.hpp) factor on the
  /// sparse symbolic-LU kernel: its nominal system when that has at least
  /// `sparse_min_dim` unknowns, and any factor only while its fill stays
  /// under `sparse_max_fill`. Nothing else reads these three: every DC and
  /// transient solve runs the dense kernel, the oracle the context is gated
  /// against, so campaign bytes are identical with `sparse = false`.
  bool sparse = true;
  int sparse_min_dim = 48;       ///< below this, the context factors dense
  double sparse_max_fill = 0.25; ///< LU nnz / n^2 above which dense takes over
  /// When plain Newton gives up, try gmin stepping then source stepping
  /// before declaring the solve failed.
  bool recovery_ladder = true;
  int gmin_ladder_steps = 8;     ///< gmin continuation points (first rung)
  int source_ladder_steps = 10;  ///< source ramp points (second rung)
};

/// Strategy of the recovery ladder that produced (or last attempted) a DC
/// solution. The ladder is tried strictly in this order.
enum class SolveStrategy {
  Newton,          ///< plain Newton iteration, rung 0
  GminStepping,    ///< gmin continuation from a heavily damped system, rung 1
  SourceStepping,  ///< homotopy: sources ramped from ~0 to full value, rung 2
};

std::string_view to_string(SolveStrategy strategy) noexcept;

/// Why a DC solve gave up after exhausting the recovery ladder.
enum class SolveFailure {
  None,             ///< converged
  Singular,         ///< the MNA system is singular on every ladder rung
  NonFinite,        ///< Newton iterates left the finite range (NaN/Inf input?)
  IterationBudget,  ///< max_newton_iterations exhausted on every rung
  WallClockBudget,  ///< max_wall_clock_seconds elapsed mid-solve
};

std::string_view to_string(SolveFailure failure) noexcept;

/// Observability record of one DC solve: which ladder rung converged, how
/// much work it took, and — on failure — a structured reason. Returned
/// alongside the OperatingPoint so fault-injection campaigns can classify
/// per-fault solver behaviour instead of parsing exception text.
struct SolveDiagnostics {
  bool converged = false;
  SolveStrategy strategy = SolveStrategy::Newton;  ///< rung that produced the result
  int ladder_rung = 0;           ///< 0 = plain Newton, 1 = gmin, 2 = source stepping
  int iterations = 0;            ///< Newton iterations summed over every attempt
  double residual = 0.0;         ///< final max |x_new - x| of the last attempt
  double elapsed_seconds = 0.0;  ///< wall-clock spent in the solve
  SolveFailure failure = SolveFailure::None;
  std::string message;           ///< human-readable failure detail; empty on success
};

/// Computes the DC operating point. Throws SimulationError when the system is
/// singular or Newton iteration fails to converge even via the recovery
/// ladder.
OperatingPoint dc_operating_point(const Circuit& circuit, const SolveOptions& options = {});

/// Non-throwing DC solve for campaign use: runs plain Newton and, when it
/// fails and `options.recovery_ladder` is set, the gmin-stepping and
/// source-stepping fallbacks. Returns the operating point on success and
/// std::nullopt on failure; `diagnostics` is always filled.
std::optional<OperatingPoint> try_dc_operating_point(const Circuit& circuit,
                                                     const SolveOptions& options,
                                                     SolveDiagnostics& diagnostics);

/// One sampled time point of a transient run.
struct TransientSample {
  double time = 0.0;
  OperatingPoint point;
};

/// Backward-Euler transient simulation from the DC initial condition at t=0
/// (capacitors start at their DC operating voltage, inductors at their DC
/// current). Throws SimulationError on non-convergence.
std::vector<TransientSample> transient(const Circuit& circuit, double t_end, double dt,
                                       const SolveOptions& options = {});

}  // namespace decisive::sim
