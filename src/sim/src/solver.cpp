#include "decisive/sim/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "decisive/base/error.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"
#include "mna.hpp"

namespace decisive::sim {

std::string_view to_string(SolveStrategy strategy) noexcept {
  switch (strategy) {
    case SolveStrategy::Newton: return "newton";
    case SolveStrategy::GminStepping: return "gmin-stepping";
    case SolveStrategy::SourceStepping: return "source-stepping";
  }
  return "newton";
}

std::string_view to_string(SolveFailure failure) noexcept {
  switch (failure) {
    case SolveFailure::None: return "none";
    case SolveFailure::Singular: return "singular";
    case SolveFailure::NonFinite: return "non-finite";
    case SolveFailure::IterationBudget: return "iteration-budget";
    case SolveFailure::WallClockBudget: return "wall-clock-budget";
  }
  return "none";
}

double OperatingPoint::reading(const std::string& name) const {
  const auto it = readings.find(name);
  if (it == readings.end()) throw SimulationError("no reading named '" + name + "'");
  return it->second;
}

std::vector<std::size_t> reading_elements(const Circuit& circuit) {
  std::vector<std::size_t> slots;
  const auto& elements = circuit.elements();
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const ElementKind kind = elements[i].kind;
    if (kind == ElementKind::CurrentSensor || kind == ElementKind::VoltageSensor ||
        kind == ElementKind::Mcu) {
      slots.push_back(i);
    }
  }
  return slots;
}

namespace mna {

OperatingPoint make_operating_point(const Circuit& circuit, const SolveResult& solved) {
  OperatingPoint op;
  op.node_voltage = solved.node_voltage;
  const auto& elements = circuit.elements();
  auto node_v = [&](int node) { return op.node_voltage[static_cast<size_t>(node)]; };
  for (size_t i = 0; i < elements.size(); ++i) {
    const Element& e = elements[i];
    switch (e.kind) {
      case ElementKind::CurrentSensor:
        op.readings[e.name] = solved.branch_current[i];
        break;
      case ElementKind::VoltageSensor:
        op.readings[e.name] = node_v(e.a) - node_v(e.b);
        break;
      case ElementKind::Mcu: {
        const double supply = node_v(e.a) - node_v(e.b);
        op.readings[e.name] = (e.ram_ok && supply >= e.min_supply) ? 1.0 : 0.0;
        break;
      }
      default:
        break;
    }
  }
  return op;
}

}  // namespace mna

std::optional<OperatingPoint> try_dc_operating_point(const Circuit& circuit,
                                                     const SolveOptions& options,
                                                     SolveDiagnostics& diagnostics) {
  mna::SolverMetrics& metrics = mna::SolverMetrics::get();
  metrics.solves.add();
  obs::Span span("solver.dc", &metrics.solve_seconds);
  const auto start = std::chrono::steady_clock::now();
  mna::Deadline deadline;
  if (options.max_wall_clock_seconds > 0.0) {
    deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(options.max_wall_clock_seconds));
  }
  mna::CompanionState state;  // DC: no companion sources.
  const mna::Structure structure = mna::analyze_structure(circuit, false);
  mna::Workspace ws;  // matrix + RHS storage shared across every ladder rung
  diagnostics = SolveDiagnostics{};

  auto finish = [&](mna::NewtonAttempt&& attempt, SolveStrategy strategy,
                    int rung) -> std::optional<OperatingPoint> {
    diagnostics.converged = attempt.converged;
    diagnostics.strategy = strategy;
    diagnostics.ladder_rung = rung;
    diagnostics.residual = attempt.residual;
    diagnostics.failure = attempt.converged ? SolveFailure::None : attempt.failure;
    diagnostics.message = attempt.converged ? std::string() : std::move(attempt.message);
    diagnostics.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    metrics.iterations.add(static_cast<std::uint64_t>(diagnostics.iterations));
    if (rung >= 1) metrics.gmin_rungs.add();
    if (rung >= 2) metrics.source_rungs.add();
    if (attempt.converged) {
      metrics.converged.add();
    } else if (diagnostics.failure == SolveFailure::IterationBudget ||
               diagnostics.failure == SolveFailure::WallClockBudget) {
      metrics.budget_exhausted.add();
    }
    if (!attempt.converged) return std::nullopt;
    return mna::make_operating_point(circuit, attempt.result);
  };

  // Rung 0: plain Newton.
  mna::NewtonAttempt plain =
      mna::attempt_solve_dense(circuit, options, state, structure, nullptr, deadline, ws);
  diagnostics.iterations += plain.iterations;
  if (plain.converged || !options.recovery_ladder ||
      plain.failure == SolveFailure::WallClockBudget) {
    return finish(std::move(plain), SolveStrategy::Newton, 0);
  }

  // Rung 1: gmin stepping. Solve a heavily damped (large leak conductance)
  // system first — near-linear, so Newton converges from anywhere — then walk
  // gmin down log-uniformly to the requested value, warm-starting every step
  // from the previous one. The last step uses exactly options.gmin, so a
  // converged result is a genuine solution of the requested system.
  {
    const int steps = std::max(2, options.gmin_ladder_steps);
    const double start_gmin = std::max(options.gmin * 1e9, 1e-3);
    SolveOptions damped = options;
    mna::NewtonSeed seed;
    mna::NewtonAttempt last;
    for (int k = 0; k < steps; ++k) {
      const double t = static_cast<double>(k) / (steps - 1);
      damped.gmin = start_gmin * std::pow(options.gmin / start_gmin, t);
      mna::NewtonAttempt attempt = mna::attempt_solve_dense(
          circuit, damped, state, structure, seed.x.empty() ? nullptr : &seed, deadline, ws);
      diagnostics.iterations += attempt.iterations;
      seed.x = attempt.x;
      seed.diode_v = attempt.diode_v;
      last = std::move(attempt);
      if (last.failure == SolveFailure::WallClockBudget) {
        return finish(std::move(last), SolveStrategy::GminStepping, 1);
      }
    }
    if (last.converged) return finish(std::move(last), SolveStrategy::GminStepping, 1);
  }

  // Rung 2: source stepping (homotopy continuation). Ramp every independent
  // source from a small fraction of its value up to 100%, warm-starting each
  // step; the trivial low-excitation solve pulls the nonlinear estimates into
  // the basin of attraction of the full-excitation solution.
  {
    const auto& elements = circuit.elements();
    Circuit scaled = circuit;
    std::vector<double> original(elements.size(), 0.0);
    for (size_t i = 0; i < elements.size(); ++i) original[i] = elements[i].value;

    const int steps = std::max(2, options.source_ladder_steps);
    mna::NewtonSeed seed;
    mna::NewtonAttempt last;
    for (int k = 1; k <= steps; ++k) {
      const double alpha = static_cast<double>(k) / steps;  // ends exactly at 1.0
      for (size_t i = 0; i < elements.size(); ++i) {
        const ElementKind kind = elements[i].kind;
        if (kind == ElementKind::VSource || kind == ElementKind::ISource) {
          scaled.elements()[i].value = original[i] * alpha;
        }
      }
      mna::NewtonAttempt attempt = mna::attempt_solve_dense(
          scaled, options, state, structure, seed.x.empty() ? nullptr : &seed, deadline, ws);
      diagnostics.iterations += attempt.iterations;
      seed.x = attempt.x;
      seed.diode_v = attempt.diode_v;
      last = std::move(attempt);
      if (last.failure == SolveFailure::WallClockBudget) break;
    }
    return finish(std::move(last), SolveStrategy::SourceStepping, 2);
  }
}

OperatingPoint dc_operating_point(const Circuit& circuit, const SolveOptions& options) {
  SolveDiagnostics diagnostics;
  auto op = try_dc_operating_point(circuit, options, diagnostics);
  if (!op.has_value()) throw SimulationError(diagnostics.message);
  return std::move(*op);
}

std::vector<TransientSample> transient(const Circuit& circuit, double t_end, double dt,
                                       const SolveOptions& options) {
  if (dt <= 0.0 || t_end <= 0.0) {
    throw SimulationError("transient requires positive dt and t_end");
  }
  const auto& elements = circuit.elements();
  mna::Workspace ws;  // matrix + RHS storage shared across every time step

  // Initial condition: the DC operating point.
  const mna::CompanionState dc_state;
  const mna::Structure dc_structure = mna::analyze_structure(circuit, false);
  mna::NewtonAttempt initial = mna::attempt_solve_dense(
      circuit, options, dc_state, dc_structure, nullptr, std::nullopt, ws);
  if (!initial.converged) throw SimulationError(initial.message);
  const mna::SolveResult& dc = initial.result;

  mna::CompanionState state;
  state.transient = true;
  state.dt = dt;
  state.cap_voltage.assign(elements.size(), 0.0);
  state.inductor_current.assign(elements.size(), 0.0);
  for (size_t i = 0; i < elements.size(); ++i) {
    const Element& e = elements[i];
    if (e.kind == ElementKind::Capacitor) {
      state.cap_voltage[i] = dc.node_voltage[static_cast<size_t>(e.a)] -
                             dc.node_voltage[static_cast<size_t>(e.b)];
    } else if (e.kind == ElementKind::Inductor) {
      state.inductor_current[i] = dc.branch_current[i];
    }
  }

  std::vector<TransientSample> samples;
  samples.push_back(TransientSample{0.0, mna::make_operating_point(circuit, dc)});

  const mna::Structure structure = mna::analyze_structure(circuit, true);
  // Step by integer index: accumulating `t += dt` drifts over long horizons
  // and can emit one sample too many/few depending on t_end/dt. The step
  // count matches the old loop's intent (last sample at the first k*dt
  // reaching t_end, to within half a step of rounding slack).
  const long long n_steps = static_cast<long long>(std::floor(t_end / dt + 0.5));
  for (long long k = 1; k <= n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    mna::NewtonAttempt attempt =
        mna::attempt_solve_dense(circuit, options, state, structure, nullptr, std::nullopt, ws);
    if (!attempt.converged) throw SimulationError(attempt.message);
    const mna::SolveResult& step = attempt.result;
    // Update storage-element history for the next step.
    for (size_t i = 0; i < elements.size(); ++i) {
      const Element& e = elements[i];
      const double va = step.node_voltage[static_cast<size_t>(e.a)];
      const double vb = step.node_voltage[static_cast<size_t>(e.b)];
      if (e.kind == ElementKind::Capacitor) {
        state.cap_voltage[i] = va - vb;
      } else if (e.kind == ElementKind::Inductor) {
        state.inductor_current[i] += dt / e.value * (va - vb);
      }
    }
    samples.push_back(TransientSample{t, mna::make_operating_point(circuit, step)});
  }
  return samples;
}

}  // namespace decisive::sim
