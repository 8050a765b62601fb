// Internal MNA machinery shared by the single-solve path (solver.cpp) and
// the campaign solve context (campaign_solver.cpp): system
// structure analysis, stamp assembly, diode linearisation, and the bounded
// Newton loop with a pluggable linear-solve step.
//
// Not installed; everything here is an implementation detail of the sim
// library. The assembly and iteration logic is a verbatim extraction of the
// original attempt_solve — stamp order, convergence tests, and failure
// classification are unchanged, so the naive path's outputs are
// byte-identical to the pre-refactor solver.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/sim/circuit.hpp"
#include "decisive/sim/dense.hpp"
#include "decisive/sim/solver.hpp"
#include "decisive/sim/sparse.hpp"

namespace decisive::sim::mna {

/// Registry handles cached once per process: a solve costs a handful of
/// relaxed atomic increments, never a registry lookup.
struct SolverMetrics {
  obs::Counter& solves;
  obs::Counter& converged;
  obs::Counter& iterations;
  obs::Counter& gmin_rungs;
  obs::Counter& source_rungs;
  obs::Counter& nonfinite_guard;
  obs::Counter& singular;
  obs::Counter& budget_exhausted;
  obs::Histogram& solve_seconds;

  static SolverMetrics& get() {
    auto& registry = obs::Registry::global();
    static SolverMetrics metrics{
        registry.counter("decisive_solver_solves_total"),
        registry.counter("decisive_solver_converged_total"),
        registry.counter("decisive_solver_iterations_total"),
        registry.counter("decisive_solver_ladder_gmin_total"),
        registry.counter("decisive_solver_ladder_source_total"),
        registry.counter("decisive_solver_nonfinite_guard_total"),
        registry.counter("decisive_solver_singular_total"),
        registry.counter("decisive_solver_budget_exhausted_total"),
        registry.histogram("decisive_solver_solve_seconds")};
    return metrics;
  }
};

/// Per-run element companion state: which storage elements have companion
/// sources (transient) and which diode linearisation voltages to use.
struct CompanionState {
  bool transient = false;
  double dt = 0.0;
  // Indexed by element position in circuit.elements().
  std::vector<double> cap_voltage;       // previous-step capacitor voltage
  std::vector<double> inductor_current;  // previous-step inductor current
};

/// Assembles and solves one Newton-converged system.
/// Returns node voltages (index 0 = ground = 0.0) and branch currents keyed
/// by element index for elements with a branch unknown.
struct SolveResult {
  std::vector<double> node_voltage;
  std::vector<double> branch_current;  // per element index; NaN when no branch
};

/// Warm-start state handed from one recovery-ladder attempt to the next (and
/// from the campaign context's nominal linearisation to every fault variant).
struct NewtonSeed {
  std::vector<double> x;        ///< previous raw solution vector
  std::vector<double> diode_v;  ///< previous diode junction estimates
};

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// One bounded, non-throwing Newton run. `result` is only meaningful when
/// `converged`; `x`/`diode_v` always carry the final iterate so a later
/// ladder rung can continue from whatever progress this attempt made. A
/// caller that solves many systems keeps one and hands it to every
/// newton_attempt: the run overwrites it, and its vectors keep their
/// capacity.
struct NewtonAttempt {
  bool converged = false;
  SolveFailure failure = SolveFailure::None;
  std::string message;
  int iterations = 0;
  double residual = 0.0;
  SolveResult result;
  std::vector<double> x;
  std::vector<double> diode_v;
};

/// The unknown-vector layout of one MNA system: node voltages (ground
/// eliminated) followed by branch currents. Fixed for a given netlist
/// topology, so a campaign computes it once and shares it across variants.
struct Structure {
  std::vector<int> branch_index;  ///< per element; -1 = no branch unknown
  int n_branches = 0;
  int n_nodes = 0;
  std::size_t dim = 0;
};

inline Structure analyze_structure(const Circuit& circuit, bool transient) {
  const auto& elements = circuit.elements();
  Structure st;
  st.n_nodes = circuit.node_count();
  st.branch_index.assign(elements.size(), -1);
  // Branch unknowns: voltage sources, current sensors; inductors only in DC
  // (in transient they use a Norton companion instead).
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const ElementKind kind = elements[i].kind;
    if (kind == ElementKind::VSource || kind == ElementKind::CurrentSensor ||
        (kind == ElementKind::Inductor && !transient)) {
      st.branch_index[i] = st.n_branches++;
    }
  }
  st.dim = static_cast<std::size_t>(st.n_nodes - 1 + st.n_branches);
  return st;
}

/// Companion linearisation of one diode around a junction-voltage estimate.
struct DiodeLinearisation {
  double geq = 0.0;
  double ieq = 0.0;
};

inline DiodeLinearisation linearise_diode(double diode_v_estimate, const SolveOptions& opt) {
  const double vd = std::clamp(diode_v_estimate, -5.0, 0.9);
  const double ex = std::exp(vd / opt.diode_vt);
  const double id = opt.diode_is * (ex - 1.0);
  const double geq = std::max(opt.diode_is / opt.diode_vt * ex, opt.gmin);
  return DiodeLinearisation{geq, id - geq * vd};
}

/// A diode's terminals, gathered once so the per-iteration junction update
/// reads one compact array: `index` into the elements (and `diode_v`), `a`
/// and `b` its nodes.
struct Junction {
  std::size_t index = 0;
  int a = 0;
  int b = 0;
};

/// The junction of every diode in `elements`, in element order, into `out`
/// (whose capacity is kept): the only elements a Newton step relinearises.
inline void diode_junctions(const std::vector<Element>& elements, std::vector<Junction>& out) {
  out.clear();
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (elements[i].kind == ElementKind::Diode) out.push_back({i, elements[i].a, elements[i].b});
  }
}

/// One element replaced without copying the circuit: a campaign fault
/// (faulted_element) applied to the nominal netlist.
struct ElementOverride {
  std::size_t index = 0;
  const Element* element = nullptr;

  /// elements[i], or the override where it stands in.
  [[nodiscard]] const Element& at(const std::vector<Element>& elements, std::size_t i) const {
    return element != nullptr && i == index ? *element : elements[i];
  }
};

/// Stamps the MNA system into `rhs` (always) and an arbitrary matrix sink:
/// `add(row, col, value)` is invoked for every matrix stamp in the exact
/// order of the original solver. The dense path adds into flat row-major
/// storage; the sparse path records coordinates (pattern build) or replays
/// them through a frozen slot sequence (numeric refill) — one stamp pass,
/// three consumers, and because the element loop is shared the add sequence
/// is identical across them. `diode_lin(i)` gives diode `i`'s companion
/// linearisation (linearise_at: at a junction-voltage estimate per element).
/// With `over.element` set, that element stands in for
/// `circuit.elements()[over.index]`.
///
/// With `visit` set, only the listed elements (ascending indices) and
/// `over.index` are stamped, in element order. A caller that skips only
/// elements whose stamps its sinks ignore gets the same sums: the campaign
/// context's RHS-only assembly visits just the elements that stamp the RHS.
/// Either way diodes are linearised in ascending element order, once each.
/// Aligned, like the LU kernels, so no instance's speed depends on where the
/// linker happens to put it.
template <typename DiodeLin, typename AddFn>
[[gnu::aligned(64)]] inline void assemble_with(const Circuit& circuit, const SolveOptions& opt,
                                               const CompanionState& state, const Structure& st,
                                               DiodeLin&& diode_lin, AddFn&& add, double* rhs,
                                               ElementOverride over = {},
                                               const std::vector<std::size_t>* visit = nullptr) {
  const auto& elements = circuit.elements();
  const std::size_t dim = st.dim;
  const int n_nodes = st.n_nodes;
  const int n_branches = st.n_branches;

  auto vrow = [](int node) { return static_cast<std::size_t>(node - 1); };

  auto stamp_conductance = [&](int na, int nb, double g) {
    if (na != 0) add(vrow(na), vrow(na), g);
    if (nb != 0) add(vrow(nb), vrow(nb), g);
    if (na != 0 && nb != 0) {
      add(vrow(na), vrow(nb), -g);
      add(vrow(nb), vrow(na), -g);
    }
  };
  // Current `j` flowing from node na to node nb through the element.
  auto stamp_current = [&](int na, int nb, double j) {
    if (na != 0) rhs[vrow(na)] -= j;
    if (nb != 0) rhs[vrow(nb)] += j;
  };
  auto stamp_branch = [&](int na, int nb, int branch) {
    const std::size_t k = static_cast<std::size_t>(static_cast<int>(dim) - n_branches + branch);
    if (na != 0) {
      add(vrow(na), k, 1.0);
      add(k, vrow(na), 1.0);
    }
    if (nb != 0) {
      add(vrow(nb), k, -1.0);
      add(k, vrow(nb), -1.0);
    }
  };
  auto branch_rhs = [&](int branch) -> double& {
    return rhs[static_cast<std::size_t>(static_cast<int>(dim) - n_branches + branch)];
  };

  // gmin from every non-ground node keeps floating nodes solvable (the
  // standard SPICE trick; an "open" fault would otherwise be singular).
  for (int node = 1; node < n_nodes; ++node) add(vrow(node), vrow(node), opt.gmin);

  // One loop, the stamps in its body: position k walks every element, or
  // `visit` with the override merged into its order.
  const std::size_t count = visit == nullptr ? elements.size() : visit->size();
  bool override_due = visit != nullptr && over.element != nullptr;
  for (std::size_t k = 0; k < count || override_due;) {
    std::size_t i = k;
    if (visit == nullptr) {
      ++k;
    } else if (override_due && (k == count || over.index <= (*visit)[k])) {
      i = over.index;
      override_due = false;
      if (k < count && (*visit)[k] == i) ++k;
    } else {
      i = (*visit)[k++];
    }
    const Element& e = over.at(elements, i);
    switch (e.kind) {
      case ElementKind::Resistor:
        stamp_conductance(e.a, e.b, 1.0 / e.value);
        break;
      case ElementKind::Mcu:
        stamp_conductance(e.a, e.b, 1.0 / e.value);
        break;
      case ElementKind::Switch:
        stamp_conductance(e.a, e.b,
                          1.0 / (e.closed ? opt.closed_resistance : opt.open_resistance));
        break;
      case ElementKind::Capacitor:
        if (state.transient) {
          const double g = e.value / state.dt;
          stamp_conductance(e.a, e.b, g);
          // Norton companion: history current g * v_prev from b to a.
          stamp_current(e.a, e.b, -g * state.cap_voltage[i]);
        }
        // DC: open circuit, no stamp.
        break;
      case ElementKind::Inductor:
        if (state.transient) {
          const double g = state.dt / e.value;
          stamp_conductance(e.a, e.b, g);
          stamp_current(e.a, e.b, state.inductor_current[i]);
        } else {
          // DC short: a 0 V source with a branch-current unknown.
          stamp_branch(e.a, e.b, st.branch_index[i]);
          branch_rhs(st.branch_index[i]) = 0.0;
        }
        break;
      case ElementKind::Diode: {
        // Linearise around the current junction-voltage estimate.
        const DiodeLinearisation lin = diode_lin(i);
        stamp_conductance(e.a, e.b, lin.geq);
        stamp_current(e.a, e.b, lin.ieq);
        break;
      }
      case ElementKind::VSource:
      case ElementKind::CurrentSensor:
        stamp_branch(e.a, e.b, st.branch_index[i]);
        branch_rhs(st.branch_index[i]) = e.kind == ElementKind::VSource ? e.value : 0.0;
        break;
      case ElementKind::ISource:
        stamp_current(e.a, e.b, e.value);
        break;
      case ElementKind::VoltageSensor:
        break;  // ideal voltmeter: no stamp
    }
  }
}

/// The diode linearisation of a full assembly: diode `i` at its junction
/// estimate `diode_v[i]`.
inline auto linearise_at(const std::vector<double>& diode_v, const SolveOptions& opt) {
  return [&diode_v, &opt](std::size_t i) { return linearise_diode(diode_v[i], opt); };
}

/// The classic entry point over flat row-major `dim x dim` storage. Both
/// buffers must be pre-zeroed. The dense add is `+=` of the signed stamp,
/// which is the same IEEE operation the old in-lambda `-=` performed, so no
/// output byte moved.
inline void assemble(const Circuit& circuit, const SolveOptions& opt,
                     const CompanionState& state, const Structure& st,
                     const std::vector<double>& diode_v, double* a, double* rhs) {
  const std::size_t dim = st.dim;
  assemble_with(circuit, opt, state, st, linearise_at(diode_v, opt),
                [a, dim](std::size_t r, std::size_t c, double v) { a[r * dim + c] += v; }, rhs);
}

inline SolveResult extract_result(const Circuit& circuit, const Structure& st,
                                  const std::vector<double>& x) {
  const auto& elements = circuit.elements();
  SolveResult result;
  result.node_voltage.assign(static_cast<std::size_t>(st.n_nodes), 0.0);
  for (int node = 1; node < st.n_nodes; ++node) {
    result.node_voltage[static_cast<std::size_t>(node)] = x[static_cast<std::size_t>(node - 1)];
  }
  result.branch_current.assign(elements.size(), std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (st.branch_index[i] >= 0) {
      result.branch_current[i] =
          x[static_cast<std::size_t>(st.n_nodes - 1 + st.branch_index[i])];
    }
  }
  return result;
}

/// Junction voltage every cold-started Newton run begins from, and the
/// largest move of a junction estimate per iteration (voltage limiting). A
/// cold start therefore needs at least |v - kColdJunctionVolt| /
/// kJunctionStepVolt iterations to reach a junction voltage v.
inline constexpr double kColdJunctionVolt = 0.6;
inline constexpr double kJunctionStepVolt = 0.1;

/// One bounded, non-throwing Newton run over a pluggable linear-solve step,
/// written into the caller's `attempt`.
///
/// `solve_step(diode_v, x_out, failure, message)` solves the MNA system
/// linearised at `diode_v` into `x_out` (sized dim) and returns true, or
/// returns false with `failure`/`message` set (singular system, low-rank
/// update rejected, ...). Everything else — budgets, the non-finite guard,
/// diode voltage limiting, and the convergence test — is shared verbatim
/// between the naive and campaign paths. `junctions` lists the diodes of the
/// system being solved (diode_junctions); `diode_v` is indexed like its
/// `element_count` elements. `x_new` is the caller's buffer for the next
/// iterate; `seed` must not alias `attempt`. The converged iterate is
/// `attempt.x`; extract_result() turns it into node voltages and branch
/// currents for callers that want them.
///
/// The scans over the iterate and the junctions keep their maxima in
/// independent accumulators, so no iteration waits on the previous one's
/// max. That changes no value: max is exact and, on the non-NaN values it
/// keeps (std::max drops a NaN second argument, in any chain), independent
/// of the order it sees them, and a non-finite iterate gives up before its
/// change is read. Aligned like assemble_with.
template <typename SolveStep>
[[gnu::aligned(64)]] void newton_attempt(std::size_t element_count,
                                         const std::vector<Junction>& junctions,
                                         const SolveOptions& opt, const Structure& st,
                                         const NewtonSeed* seed, const Deadline& deadline,
                                         std::vector<double>& x_new, NewtonAttempt& attempt,
                                         SolveStep&& solve_step) {
  const std::size_t dim = st.dim;
  attempt.converged = false;
  attempt.failure = SolveFailure::None;
  attempt.message.clear();
  attempt.iterations = 0;
  attempt.residual = 0.0;
  std::vector<double>& x = attempt.x;
  std::vector<double>& diode_v = attempt.diode_v;
  if (dim == 0) {
    x.clear();
    diode_v.clear();
    attempt.converged = true;
    return;
  }

  // Diode junction voltage estimates for Newton iteration; warm-started from
  // the previous ladder attempt (or the nominal solve) when available.
  if (seed != nullptr && seed->diode_v.size() == element_count) {
    diode_v.assign(seed->diode_v.begin(), seed->diode_v.end());
  } else {
    diode_v.assign(element_count, kColdJunctionVolt);
  }
  if (seed != nullptr && seed->x.size() == dim) {
    x.assign(seed->x.begin(), seed->x.end());
  } else {
    x.assign(dim, 0.0);
  }
  x_new.resize(dim);

  auto give_up = [&](SolveFailure failure, const char* message) {
    attempt.failure = failure;
    attempt.message = message;
  };

  const bool has_diode = !junctions.empty();
  const std::size_t n_junctions = junctions.size();
  auto node_v = [&](int node) {
    return node == 0 ? 0.0 : x_new[static_cast<std::size_t>(node - 1)];
  };
  // Newton update for one diode junction voltage, with voltage limiting for
  // robust convergence; returns the move Newton asked for.
  auto update_junction = [&](const Junction& j) {
    const double target = node_v(j.a) - node_v(j.b);
    const double previous = diode_v[j.index];
    const double step = std::clamp(target - previous, -kJunctionStepVolt, kJunctionStepVolt);
    diode_v[j.index] = previous + step;
    return std::abs(target - previous);
  };

  bool converged = false;
  for (int iteration = 0; !converged; ++iteration) {
    if (iteration >= opt.max_newton_iterations) {
      return give_up(SolveFailure::IterationBudget, "newton iteration did not converge");
    }
    if (deadline.has_value() && std::chrono::steady_clock::now() >= *deadline) {
      return give_up(SolveFailure::WallClockBudget, "solve wall-clock budget exhausted");
    }
    attempt.iterations = iteration + 1;

    SolveFailure failure = SolveFailure::Singular;
    if (!solve_step(diode_v, x_new, failure, attempt.message)) {
      attempt.failure = failure;
      return;
    }

    // Non-finite guard: a NaN/Inf iterate (NaN source value, zero-resistance
    // loop, numeric blow-up) would otherwise poison every later iteration and
    // masquerade as "singular" once it reaches the diode stamps. The same
    // pass measures the iterate's change.
    bool finite = true;
    double change0 = 0.0;
    double change1 = 0.0;
    std::size_t i = 0;
    for (; i + 2 <= dim; i += 2) {
      finite &= std::isfinite(x_new[i]) & std::isfinite(x_new[i + 1]);
      change0 = std::max(change0, std::abs(x_new[i] - x[i]));
      change1 = std::max(change1, std::abs(x_new[i + 1] - x[i + 1]));
    }
    if (i < dim) {
      finite &= std::isfinite(x_new[i]);
      change0 = std::max(change0, std::abs(x_new[i] - x[i]));
    }
    if (!finite) {
      SolverMetrics::get().nonfinite_guard.add();
      return give_up(SolveFailure::NonFinite,
                     "newton iterate is not finite (NaN/Inf in circuit values?)");
    }
    const double max_change = std::max(change0, change1);

    double moved0 = 0.0;
    double moved1 = 0.0;
    std::size_t j = 0;
    for (; j + 2 <= n_junctions; j += 2) {
      moved0 = std::max(moved0, update_junction(junctions[j]));
      moved1 = std::max(moved1, update_junction(junctions[j + 1]));
    }
    if (j < n_junctions) moved0 = std::max(moved0, update_junction(junctions[j]));
    const double max_diode_change = std::max(moved0, moved1);

    std::swap(x, x_new);
    attempt.residual = has_diode ? std::max(max_change, max_diode_change) : max_change;

    converged = !has_diode || (max_diode_change < opt.newton_tolerance &&
                               max_change < std::max(opt.newton_tolerance, 1e-9));
  }
  attempt.converged = true;
}

/// Newton storage a caller keeps across solves, so that a solve allocates
/// nothing once the buffers have grown: the next iterate and the junction
/// list.
struct NewtonScratch {
  std::vector<double> x_new;
  std::vector<Junction> junctions;
};

/// newton_attempt over every element of `circuit`, with the converged
/// iterate extracted into `attempt.result`.
template <typename SolveStep>
[[gnu::aligned(64)]] void newton_attempt(const Circuit& circuit, const SolveOptions& opt,
                                         const Structure& st, const NewtonSeed* seed,
                                         const Deadline& deadline, NewtonScratch& scratch,
                                         NewtonAttempt& attempt, SolveStep&& solve_step) {
  const auto& elements = circuit.elements();
  diode_junctions(elements, scratch.junctions);
  newton_attempt(elements.size(), scratch.junctions, opt, st, seed, deadline, scratch.x_new,
                 attempt, std::forward<SolveStep>(solve_step));
  if (attempt.converged) attempt.result = extract_result(circuit, st, attempt.x);
}

/// One circuit structure's frozen sparse assembly plan: the CSC pattern of
/// the stamp pass plus the slot sequence that replays every later assembly
/// as straight indexed adds. Building it runs the stamp pass once with a
/// coordinate-recording sink; this is also where the per-structure shape
/// validation happens exactly once — refills never re-derive the pattern.
struct SparsePlan {
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;   ///< CSC slot of each recorded stamp, in order
  std::vector<double> values;        ///< CSC numeric array, refilled per assembly
  std::uint64_t fingerprint = 0;     ///< pattern.fingerprint(), computed once

  void build(const Circuit& circuit, const SolveOptions& opt, const CompanionState& state,
             const Structure& st) {
    sparse::PatternBuilder builder;
    builder.begin(st.dim);
    std::vector<double> rhs_sink(st.dim, 0.0);
    assemble_with(
        circuit, opt, state, st,
        [&opt](std::size_t) { return linearise_diode(kColdJunctionVolt, opt); },
        [&](std::size_t r, std::size_t c, double) { builder.add(r, c); }, rhs_sink.data());
    builder.freeze(pattern, slots);
    fingerprint = pattern.fingerprint();
    values.assign(pattern.nnz(), 0.0);
  }

  /// Numeric refill: zeroes `values`, replays the stamp pass through the
  /// frozen slot sequence and writes `rhs` (pre-zeroed, dim entries) in the
  /// same pass. Returns false if the stamp stream no longer matches the plan
  /// (a structurally different circuit slipped in) — the caller must fall
  /// back to dense rather than trust a half-filled matrix.
  [[nodiscard]] bool refill(const Circuit& circuit, const SolveOptions& opt,
                            const CompanionState& state, const Structure& st,
                            const std::vector<double>& diode_v, double* rhs) {
    std::fill(values.begin(), values.end(), 0.0);
    std::size_t t = 0;
    bool overflow = false;
    assemble_with(circuit, opt, state, st, linearise_at(diode_v, opt),
                  [&](std::size_t, std::size_t, double v) {
                    if (t < slots.size()) {
                      values[static_cast<std::size_t>(slots[t++])] += v;
                    } else {
                      overflow = true;
                    }
                  },
                  rhs);
    return !overflow && t == slots.size();
  }
};

/// Reusable buffers of one solve path. Hoisted out of the Newton loop so an
/// attempt allocates its matrix once, and shared across ladder rungs and
/// transient steps by the callers.
struct Workspace {
  dense::LuFactorization lu;
  std::vector<double> rhs;
  NewtonScratch newton;
};

/// The one general solve step: assemble the full matrix and factor it every
/// iteration on the dense kernel, with `ws` providing the (reused) storage.
/// Every DC rung and transient step runs here, and so does the campaign's
/// naive oracle; only the campaign context factors sparse.
inline NewtonAttempt attempt_solve_dense(const Circuit& circuit, const SolveOptions& opt,
                                         const CompanionState& state, const Structure& st,
                                         const NewtonSeed* seed, const Deadline& deadline,
                                         Workspace& ws) {
  auto solve_step = [&](const std::vector<double>& diode_v, std::vector<double>& x_out,
                        SolveFailure& failure, std::string& message) {
    std::vector<double>& flat = ws.lu.reset(st.dim);
    ws.rhs.assign(st.dim, 0.0);
    assemble(circuit, opt, state, st, diode_v, flat.data(), ws.rhs.data());
    try {
      ws.lu.factor("singular system (floating node or short loop?)");
    } catch (const SimulationError& error) {
      SolverMetrics::get().singular.add();
      failure = SolveFailure::Singular;
      message = error.what();
      return false;
    }
    ws.lu.solve_in_place(ws.rhs.data());
    x_out = ws.rhs;
    return true;
  };
  NewtonAttempt attempt;
  newton_attempt(circuit, opt, st, seed, deadline, ws.newton, attempt, solve_step);
  return attempt;
}

OperatingPoint make_operating_point(const Circuit& circuit, const SolveResult& solved);

}  // namespace decisive::sim::mna
