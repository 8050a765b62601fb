#include "decisive/sim/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <utility>

#include "decisive/base/error.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"
#include "decisive/sim/dense.hpp"
#include "decisive/sim/sparse.hpp"
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

std::vector<double> solve_linear(std::vector<std::vector<double>> a, std::vector<double> b) {
  return dense::solve_dense(a, std::move(b), "singular system (floating node or short loop?)");
}

std::vector<std::complex<double>> solve_linear_complex(
    std::vector<std::vector<std::complex<double>>> a, std::vector<std::complex<double>> b) {
  return dense::solve_dense(a, std::move(b), "singular AC system");
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

namespace {

/// Throwing single-attempt wrapper used by the transient and AC paths, which
/// solve well-posed (already-converged-at-DC) systems and keep the original
/// exception contract.
mna::SolveResult solve_system(const Circuit& circuit, const SolveOptions& opt,
                              const mna::CompanionState& state, mna::Workspace& ws) {
  const mna::Structure st = mna::analyze_structure(circuit, state.transient);
  mna::NewtonAttempt attempt =
      mna::attempt_solve_auto(circuit, opt, state, st, nullptr, std::nullopt, ws);
  if (!attempt.converged) throw SimulationError(attempt.message);
  return std::move(attempt.result);
}

}  // namespace

double AcSample::magnitude(const std::string& name) const {
  const auto it = readings.find(name);
  if (it == readings.end()) throw SimulationError("no AC reading named '" + name + "'");
  return it->second.first;
}

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
      mna::attempt_solve_auto(circuit, options, state, structure, nullptr, deadline, ws);
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
      mna::NewtonAttempt attempt = mna::attempt_solve_auto(
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
      mna::NewtonAttempt attempt = mna::attempt_solve_auto(
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
  mna::CompanionState dc_state;
  const mna::SolveResult dc = solve_system(circuit, options, dc_state, ws);

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
        mna::attempt_solve_auto(circuit, options, state, structure, nullptr, std::nullopt, ws);
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

std::vector<AcSample> ac_analysis(const Circuit& circuit, const std::string& stimulus,
                                  const std::vector<double>& frequencies_hz,
                                  const SolveOptions& opt) {
  const Element& source = circuit.get(stimulus);
  if (source.kind != ElementKind::VSource && source.kind != ElementKind::ISource) {
    throw SimulationError("AC stimulus '" + stimulus + "' must be a source");
  }

  // Linearisation point for the diodes.
  mna::CompanionState dc_state;
  mna::Workspace dc_ws;
  const mna::SolveResult dc = solve_system(circuit, opt, dc_state, dc_ws);

  const auto& elements = circuit.elements();
  const int n_nodes = circuit.node_count();
  std::vector<int> branch_index(elements.size(), -1);
  int n_branches = 0;
  for (size_t i = 0; i < elements.size(); ++i) {
    if (elements[i].kind == ElementKind::VSource ||
        elements[i].kind == ElementKind::CurrentSensor) {
      branch_index[i] = n_branches++;
    }
  }
  const size_t dim = static_cast<size_t>(n_nodes - 1 + n_branches);

  // The AC stamp pass over an arbitrary matrix sink, mirroring the
  // mna::assemble_with idiom: the dense leg adds into flat storage, the
  // sparse leg records coordinates at the first frequency and replays them
  // through the frozen slot sequence at every later one. The add stream is
  // frequency-independent (only the *values* carry jw), which is exactly
  // what makes the pattern reusable across the sweep.
  auto vrow = [](int node) { return static_cast<size_t>(node - 1); };
  auto stamp_system = [&](auto&& add, std::complex<double>* out_rhs,
                          const std::complex<double>& jw) {
    auto stamp_admittance = [&](int na, int nb, std::complex<double> y) {
      if (na != 0) add(vrow(na), vrow(na), y);
      if (nb != 0) add(vrow(nb), vrow(nb), y);
      if (na != 0 && nb != 0) {
        add(vrow(na), vrow(nb), -y);
        add(vrow(nb), vrow(na), -y);
      }
    };
    for (int node = 1; node < n_nodes; ++node) {
      add(vrow(node), vrow(node), std::complex<double>(opt.gmin, 0.0));
    }

    for (size_t i = 0; i < elements.size(); ++i) {
      const Element& e = elements[i];
      switch (e.kind) {
        case ElementKind::Resistor:
        case ElementKind::Mcu:
          stamp_admittance(e.a, e.b, 1.0 / e.value);
          break;
        case ElementKind::Switch:
          stamp_admittance(e.a, e.b,
                           1.0 / (e.closed ? opt.closed_resistance : opt.open_resistance));
          break;
        case ElementKind::Capacitor:
          stamp_admittance(e.a, e.b, jw * e.value);
          break;
        case ElementKind::Inductor:
          stamp_admittance(e.a, e.b, 1.0 / (jw * e.value));
          break;
        case ElementKind::Diode: {
          // Small-signal conductance at the DC operating point.
          const double va = dc.node_voltage[static_cast<size_t>(e.a)];
          const double vb = dc.node_voltage[static_cast<size_t>(e.b)];
          const double vd = std::clamp(va - vb, -5.0, 0.9);
          const double geq =
              std::max(opt.diode_is / opt.diode_vt * std::exp(vd / opt.diode_vt), opt.gmin);
          stamp_admittance(e.a, e.b, geq);
          break;
        }
        case ElementKind::VSource:
        case ElementKind::CurrentSensor: {
          const size_t k = static_cast<size_t>(n_nodes - 1 + branch_index[i]);
          if (e.a != 0) {
            add(vrow(e.a), k, std::complex<double>(1.0, 0.0));
            add(k, vrow(e.a), std::complex<double>(1.0, 0.0));
          }
          if (e.b != 0) {
            add(vrow(e.b), k, std::complex<double>(-1.0, 0.0));
            add(k, vrow(e.b), std::complex<double>(-1.0, 0.0));
          }
          // Unit stimulus; every other DC source is a small-signal short.
          out_rhs[k] = (e.kind == ElementKind::VSource && e.name == stimulus) ? 1.0 : 0.0;
          break;
        }
        case ElementKind::ISource:
          if (e.name == stimulus) {
            if (e.a != 0) out_rhs[vrow(e.a)] -= 1.0;
            if (e.b != 0) out_rhs[vrow(e.b)] += 1.0;
          }
          // Non-stimulus current sources are small-signal opens: no stamp.
          break;
        case ElementKind::VoltageSensor:
          break;
      }
    }
  };

  // One factorisation workspace reused across the whole frequency sweep.
  dense::LuFactorization<std::complex<double>> lu;
  std::vector<std::complex<double>> rhs;

  // Sparse sweep state: pattern built lazily at the first sparse point, then
  // refactored numerically per frequency. Any trouble (singular, pivot gate,
  // fill blow-up) drops the rest of the sweep onto the dense kernel — same
  // fall-back-on-anything-suspicious ladder as the DC path.
  sparse::SparseMetrics& smetrics = sparse::SparseMetrics::get();
  bool use_sparse =
      opt.sparse && dim >= static_cast<size_t>(std::max(opt.sparse_min_dim, 1));
  if (opt.sparse && !use_sparse) smetrics.fallback_small_dim.add();
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  std::vector<std::complex<double>> values;
  sparse::SparseLu<std::complex<double>> slu;
  std::vector<std::complex<double>> solve_scratch;

  std::vector<AcSample> sweep;
  for (const double frequency : frequencies_hz) {
    if (frequency <= 0.0) throw SimulationError("AC frequencies must be positive");
    const std::complex<double> jw(0.0, 2.0 * std::numbers::pi * frequency);

    bool solved = false;
    if (use_sparse) {
      if (pattern.n == 0) {
        sparse::PatternBuilder builder;
        builder.begin(dim);
        rhs.assign(dim, 0.0);
        stamp_system([&](size_t r, size_t c, std::complex<double>) { builder.add(r, c); },
                     rhs.data(), jw);
        builder.freeze(pattern, slots);
        values.resize(pattern.nnz());
      }
      std::fill(values.begin(), values.end(), std::complex<double>(0.0, 0.0));
      rhs.assign(dim, 0.0);
      size_t t = 0;
      stamp_system(
          [&](size_t, size_t, std::complex<double> v) {
            values[static_cast<size_t>(slots[t++])] += v;
          },
          rhs.data(), jw);
      std::string err;
      bool ok;
      if (slu.symbolic() != nullptr) {
        ok = slu.refactor(pattern, values.data(), &err);
        if (!ok) {
          ok = slu.factor(pattern, values.data(), &err);
          if (ok) {
            smetrics.repivots.add();
          } else {
            smetrics.fallback_pivot.add();
          }
        }
      } else {
        ok = slu.factor(pattern, values.data(), &err);
        if (!ok) smetrics.fallback_singular.add();
      }
      if (ok && static_cast<double>(slu.lu_nnz()) >
                    opt.sparse_max_fill * static_cast<double>(dim) * static_cast<double>(dim)) {
        smetrics.fallback_fill.add();
        ok = false;
      }
      if (ok) {
        slu.solve_in_place(rhs.data(), solve_scratch);
        solved = true;
      } else {
        use_sparse = false;  // sticky: rest of the sweep runs dense
      }
    }
    if (!solved) {
      std::vector<std::complex<double>>& a = lu.reset(dim);
      rhs.assign(dim, 0.0);
      stamp_system(
          [&a, dim](size_t r, size_t c, std::complex<double> v) { a[r * dim + c] += v; },
          rhs.data(), jw);
      lu.factor("singular AC system");
      lu.solve_in_place(rhs.data());
    }
    const std::vector<std::complex<double>>& x = rhs;
    auto node_v = [&](int node) -> std::complex<double> {
      return node == 0 ? 0.0 : x[vrow(node)];
    };
    AcSample sample;
    sample.frequency_hz = frequency;
    for (size_t i = 0; i < elements.size(); ++i) {
      const Element& e = elements[i];
      if (e.kind == ElementKind::CurrentSensor) {
        const std::complex<double> current = x[static_cast<size_t>(n_nodes - 1 + branch_index[i])];
        sample.readings[e.name] = {std::abs(current), std::arg(current)};
      } else if (e.kind == ElementKind::VoltageSensor) {
        const std::complex<double> v = node_v(e.a) - node_v(e.b);
        sample.readings[e.name] = {std::abs(v), std::arg(v)};
      }
    }
    sweep.push_back(std::move(sample));
  }
  return sweep;
}

}  // namespace decisive::sim
