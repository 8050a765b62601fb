#include "decisive/sim/campaign_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/sim/dense.hpp"
#include "decisive/sim/sparse.hpp"
#include "mna.hpp"

namespace decisive::sim {

namespace {

/// Context instrumentation, cached once per process.
struct BatchMetrics {
  obs::Counter& contexts;
  obs::Counter& contexts_unusable;
  obs::Counter& sparse_contexts;
  obs::Counter& factor_reuses;
  obs::Counter& lowrank_solves;
  obs::Counter& rhs_only_solves;
  obs::Counter& fallback_structural;
  obs::Counter& fallback_conditioning;
  obs::Counter& fallback_not_converged;
  obs::Counter& fallback_near_threshold;
  obs::Histogram& active_terms;

  static BatchMetrics& get() {
    auto& registry = obs::Registry::global();
    static BatchMetrics metrics{
        registry.counter("decisive_batch_contexts_total"),
        registry.counter("decisive_batch_contexts_unusable_total"),
        registry.counter("decisive_batch_sparse_contexts_total"),
        registry.counter("decisive_batch_factor_reuses_total"),
        registry.counter("decisive_batch_lowrank_solves_total"),
        registry.counter("decisive_batch_rhs_only_solves_total"),
        registry.counter("decisive_batch_fallback_structural_total"),
        registry.counter("decisive_batch_fallback_conditioning_total"),
        registry.counter("decisive_batch_fallback_not_converged_total"),
        registry.counter("decisive_batch_fallback_near_threshold_total"),
        registry.histogram("decisive_batch_active_terms",
                           {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})};
    return metrics;
  }

  /// Counts one branch's decline by reason.
  void count_fallback(BatchOutcome outcome) {
    switch (outcome) {
      case BatchOutcome::Structural: fallback_structural.add(); break;
      case BatchOutcome::Conditioning: fallback_conditioning.add(); break;
      case BatchOutcome::NotConverged: fallback_not_converged.add(); break;
      case BatchOutcome::NearThreshold: fallback_near_threshold.add(); break;
      case BatchOutcome::Solved:
      case BatchOutcome::Disabled: break;
    }
  }
};

/// Junction-voltage movement (vs the nominal operating point) below which a
/// non-faulted diode is *pinned to its nominal linearisation point*: no
/// low-rank matrix term, and its RHS companion stamp uses the nominal
/// junction voltage too, so matrix and RHS stay consistent. Warm-started
/// solves keep unaffected diodes at (numerically) their nominal junction
/// voltage, but not exactly — each factored solve injects ~1e-9 V of
/// conditioning-amplified round-off, accumulating to ~1e-7 V over a
/// step-limited Newton run (measured bimodal on a 192-stage rail: noise
/// <= 8e-8 V, genuine moves >= 2.6e-2 V). The threshold must sit above the
/// noise floor — else every diode in the circuit registers as "moved" on
/// any resistor fault and the dense-update guard rejects the whole batch.
/// Pinning a diode that truly moved dv replaces its companion model with
/// one linearised dv away, a *second-order* error (~geq*dv^2/vt, i.e.
/// ~1.7e-8 A at the threshold), orders below the classification knife-edge
/// guard; for noise-level wobble it is ~1e-12 A.
constexpr double kDiodeSkipVolt = 1e-5;

/// Residual acceptance for either branch, relative to max(1, ||rhs||inf).
constexpr double kResidualRelative = 1e-8;

/// Knife-edge guard on the MCU brown-out comparison (supply >= min_supply):
/// the context's iterate differs from the naive one in the last ulps, so a
/// supply this close to the threshold (beyond the supply's own error bound)
/// must be decided by the naive path.
constexpr double kMcuSupplyGuard = 1e-6;

/// Convergence-margin guard: a warm start that barely squeaks under the
/// iteration budget could converge where the cold-started naive path would
/// not, changing the row's outcome class. Solves using >= 90% of the budget
/// are handed back to the naive path.
[[nodiscard]] bool near_iteration_budget(int iterations, const SolveOptions& opt) {
  return iterations * 10 >= opt.max_newton_iterations * 9;
}

/// Cold-start guard: the naive path starts every junction at
/// kColdJunctionVolt and moves it at most kJunctionStepVolt per iteration,
/// so a junction that ends far from there costs the naive path at least that
/// walk — and its Newton run often more. A solution whose walk alone would
/// take half the budget is left to the naive path, however quickly this
/// warm-started context reached it.
[[nodiscard]] bool long_cold_walk(double junction_v, const SolveOptions& opt) {
  return std::abs(junction_v - mna::kColdJunctionVolt) >=
         0.5 * mna::kJunctionStepVolt * opt.max_newton_iterations;
}

/// The linear conductance an element contributes between its terminals in a
/// DC MNA matrix; 0 for elements with no (node-pair) conductance stamp.
/// Diodes are handled separately (their stamp depends on the linearisation
/// point).
double linear_conductance(const Element& e, const SolveOptions& opt) {
  switch (e.kind) {
    case ElementKind::Resistor:
    case ElementKind::Mcu:
      return 1.0 / e.value;
    case ElementKind::Switch:
      return 1.0 / (e.closed ? opt.closed_resistance : opt.open_resistance);
    default:
      return 0.0;
  }
}

/// An element's DC right-hand-side stamp, as the coefficient of its own
/// cached column: an independent current source puts -value on its
/// incidence vector, a voltage source +value on its branch row (a diode's
/// companion current is linearisation-dependent and handled apart).
double source_stamp(const Element& e) {
  switch (e.kind) {
    case ElementKind::ISource: return -e.value;
    case ElementKind::VSource: return e.value;
    default: return 0.0;
  }
}

[[nodiscard]] bool has_branch_unknown(ElementKind kind) {
  return kind == ElementKind::VSource || kind == ElementKind::CurrentSensor ||
         kind == ElementKind::Inductor;
}

/// r -= A x and m += |A| |x| for the CSC matrix (`pattern`, `values`).
void subtract_csc(const sparse::Pattern& pattern, const std::vector<double>& values,
                  const std::vector<double>& x, std::vector<double>& r,
                  std::vector<double>& m) {
  for (std::size_t c = 0; c < pattern.n; ++c) {
    const double xc = x[c];
    if (xc == 0.0) continue;
    for (std::int32_t p = pattern.col_ptr[c]; p < pattern.col_ptr[c + 1]; ++p) {
      const auto row = static_cast<std::size_t>(pattern.row_ind[static_cast<std::size_t>(p)]);
      const double a = values[static_cast<std::size_t>(p)];
      r[row] -= a * xc;
      m[row] += std::abs(a) * std::abs(xc);
    }
  }
}

/// y += s * z over n entries.
void axpy(double s, const double* z, double* y, std::size_t n) {
  for (std::size_t r = 0; r < n; ++r) y[r] += s * z[r];
}

mna::Deadline deadline_from(std::chrono::steady_clock::time_point start,
                            const SolveOptions& opt) {
  if (opt.max_wall_clock_seconds <= 0.0) return std::nullopt;
  return start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(opt.max_wall_clock_seconds));
}

}  // namespace

std::string_view to_string(BatchOutcome outcome) noexcept {
  switch (outcome) {
    case BatchOutcome::Solved: return "solved";
    case BatchOutcome::Structural: return "structural";
    case BatchOutcome::Conditioning: return "conditioning";
    case BatchOutcome::NotConverged: return "not-converged";
    case BatchOutcome::NearThreshold: return "near-threshold";
    case BatchOutcome::Disabled: return "disabled";
  }
  return "disabled";
}

struct CampaignContext::Workspace::Impl {
  // Both branches: the RHS at the final linearisation (the residual gate's),
  // the gate's residual — solved in place into the solution's error bound —
  // with |A||x| beside it, and the sparse triangular-solve buffer.
  std::vector<double> rhs;
  std::vector<double> residual;
  std::vector<double> magnitude;
  std::vector<double> solve_scratch;
  // Low-rank branch.
  std::vector<std::size_t> diodes;     ///< the faulted system's diodes, when the fault is one
  std::vector<double> x_fault;         ///< x_pin plus the fault's own RHS delta
  std::vector<std::size_t> moved;      ///< diodes off their pinned point in the last step
  std::vector<double> moved_v;         ///< ...the junction voltages they were stamped at
  std::vector<double> moved_dieq;      ///< ...and their companion-current deltas
  std::vector<double> eff_diode_v;     ///< the gate's linearisation points
  std::vector<int> term_col;           ///< active update terms: cached column ids
  std::vector<std::size_t> term_elem;  ///< active update terms: element index
  std::vector<double> term_g;          ///< active update terms: conductance deltas
  std::vector<double> small_rhs;
  dense::LuFactorization small_lu;
  // Refactor branch.
  Circuit faulted;                     ///< the nominal circuit with the override applied
  mna::SparsePlan plan;                ///< the faulted circuit's pattern + slot replay
  sparse::SparseLu slu;
  std::vector<double> solution;        ///< solve buffer, so `rhs` survives the solve
};

CampaignContext::Workspace::Workspace() : impl_(std::make_unique<Impl>()) {}
CampaignContext::Workspace::~Workspace() = default;
CampaignContext::Workspace::Workspace(Workspace&&) noexcept = default;
CampaignContext::Workspace& CampaignContext::Workspace::operator=(Workspace&&) noexcept =
    default;

struct CampaignContext::Impl {
  using Ws = Workspace::Impl;

  Circuit nominal;
  SolveOptions opt;
  mna::Structure structure;
  mna::CompanionState dc_state;  // DC: no companion sources
  // The warm start of every fault: `diode_v` is the nominal linearisation
  // point (each diode's junction voltage at the baseline), `x` is x_pin =
  // A_nom^-1 rhs_nom, the nominal solution at that linearisation and the
  // base every low-rank iterate starts from.
  mna::NewtonSeed seed;
  std::vector<std::size_t> readings;  // the reading table: observable element indices
  bool usable = false;

  // The one factorisation of the nominal Jacobian, assembled at the
  // nominal linearisation point. Sparse: `plan` holds the nominal pattern
  // and CSC values (the residual gate's matrix and partial_factor's base)
  // and `slu` the factor whose symbolic the refactor branch shares. Dense:
  // `a_nom` is the unfactored copy for the residual gate.
  bool sparse = false;
  mna::SparsePlan plan;
  sparse::SparseLu slu;
  dense::LuFactorization lu;
  std::vector<double> a_nom;
  std::vector<double> rhs_nom;  // the nominal RHS at that linearisation

  // Per element index: conductance contribution inside A_nom, the cached
  // column id (-1 = none), and diode bookkeeping.
  std::vector<double> cond_nom;
  std::vector<double> geq_nom;
  std::vector<double> ieq_nom;
  std::vector<int> col_of;
  std::vector<std::size_t> diode_indices;

  // Cached columns, column-major (col * dim + row): Z = A_nom^-1 U over the
  // elements' incidence vectors, and A_nom^-1 e_k over voltage sources'
  // branch rows.
  std::vector<double> z_cols;

  [[nodiscard]] std::size_t dim() const noexcept { return structure.dim; }

  [[nodiscard]] const double* column(int col) const {
    return z_cols.data() + static_cast<std::size_t>(col) * dim();
  }

  /// u_i^T v for the element's reduced incidence vector e_a - e_b.
  [[nodiscard]] static double u_dot(const Element& e, const double* v) {
    double sum = 0.0;
    if (e.a != 0) sum += v[e.a - 1];
    if (e.b != 0) sum -= v[e.b - 1];
    return sum;
  }

  /// v += s * u_i.
  static void u_axpy(const Element& e, double s, double* v) {
    if (e.a != 0) v[e.a - 1] += s;
    if (e.b != 0) v[e.b - 1] -= s;
  }

  /// b := A_nom^-1 b against the shared factor.
  void solve_nominal(double* b, std::vector<double>& scratch) const {
    if (sparse) {
      slu.solve_in_place(b, scratch);
    } else {
      lu.solve_in_place(b);
    }
  }

  /// r -= A_nom x and m += |A_nom| |x|.
  void subtract_nominal(const std::vector<double>& x, std::vector<double>& r,
                        std::vector<double>& m) const {
    if (sparse) {
      subtract_csc(plan.pattern, plan.values, x, r, m);
      return;
    }
    const std::size_t n = dim();
    for (std::size_t row = 0; row < n; ++row) {
      const double* a = a_nom.data() + row * n;
      double dot = 0.0;
      double mag = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        dot += a[c] * x[c];
        mag += std::abs(a[c]) * std::abs(x[c]);
      }
      r[row] -= dot;
      m[row] += mag;
    }
  }

  /// Woodbury: z := z - Z_active (G^-1 + U^T Z_active)^-1 U^T z over the
  /// workspace's active terms, against `w.small_lu` as factored for them.
  /// With z = A_nom^-1 b this solves (A_nom + sum g_j u_j u_j^T) x = b.
  void woodbury_correct(std::vector<double>& z, Ws& w) const;

  bool factor(const OperatingPoint& baseline);
  void cache_columns();
  [[nodiscard]] bool eligible(std::size_t index, const Element& failed) const noexcept;
  [[nodiscard]] bool fill_ok(const sparse::SparseLu& factor, std::size_t n) const {
    const double n_sq = static_cast<double>(n) * static_cast<double>(n);
    return static_cast<double>(factor.lu_nnz()) <= opt.sparse_max_fill * n_sq;
  }

  template <typename SubtractMatrix, typename SolveMatrix>
  BatchOutcome gate(const std::vector<Element>& elements, mna::ElementOverride fault,
                    const mna::Structure& st,
                    const std::vector<std::size_t>& diodes, const mna::NewtonAttempt& attempt,
                    Ws& w, SubtractMatrix&& subtract_matrix, SolveMatrix&& solve_matrix,
                    CampaignSolve& out) const;
  BatchOutcome solve_lowrank(std::size_t index, const Element& failed, Ws& w,
                             const mna::Deadline& deadline, mna::NewtonAttempt& attempt,
                             CampaignSolve& out) const;
  BatchOutcome solve_refactor(std::size_t index, const Element& failed, Ws& w,
                              const mna::Deadline& deadline, mna::NewtonAttempt& attempt,
                              CampaignSolve& out) const;
};

bool CampaignContext::Impl::factor(const OperatingPoint& baseline) {
  // Linearise each diode where the baseline's Newton converged: at its
  // terminals' voltage difference. Every other entry keeps Newton's cold
  // start, as a solve of its own would have left it.
  const auto& elements = nominal.elements();
  const std::vector<double>& v = baseline.node_voltage;
  if (v.size() != static_cast<std::size_t>(structure.n_nodes)) return false;
  seed.diode_v.assign(elements.size(), mna::kColdJunctionVolt);
  for (const std::size_t d : diode_indices) {
    seed.diode_v[d] = v[static_cast<std::size_t>(elements[d].a)] -
                      v[static_cast<std::size_t>(elements[d].b)];
  }

  const std::size_t n = dim();
  rhs_nom.assign(n, 0.0);
  if (opt.sparse && n >= static_cast<std::size_t>(std::max(opt.sparse_min_dim, 1))) {
    plan.build(nominal, opt, dc_state, structure);
    if (plan.refill(nominal, opt, dc_state, structure, seed.diode_v, rhs_nom.data()) &&
        slu.factor(plan.pattern, plan.values.data(), nullptr)) {
      if (fill_ok(slu, n)) {
        sparse = true;
        return true;
      }
      sparse::SparseMetrics::get().fallback_fill.add();
    }
    // A kernel that objects leaves the context on the dense factor.
    plan = mna::SparsePlan{};
    slu = sparse::SparseLu{};
    std::fill(rhs_nom.begin(), rhs_nom.end(), 0.0);
  }

  std::vector<double>& flat = lu.reset(n);
  mna::assemble(nominal, opt, dc_state, structure, seed.diode_v, flat.data(), rhs_nom.data());
  a_nom = flat;
  try {
    lu.factor("singular system (floating node or short loop?)");
  } catch (const SimulationError&) {
    return false;
  }
  return true;
}

void CampaignContext::Impl::cache_columns() {
  // Per-element conductance contributions and cached A^-1 u columns for
  // every element whose fault (or diode relinearisation) can appear as a
  // node-pair conductance or current delta; A^-1 e_k for every voltage
  // source, whose value sits on its branch row k.
  const std::size_t n = dim();
  const auto& elements = nominal.elements();
  cond_nom.assign(elements.size(), 0.0);
  geq_nom.assign(elements.size(), 0.0);
  ieq_nom.assign(elements.size(), 0.0);
  col_of.assign(elements.size(), -1);
  std::vector<double> u(n, 0.0);
  std::vector<double> scratch;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const Element& e = elements[i];
    switch (e.kind) {
      case ElementKind::Resistor:
      case ElementKind::Mcu:
      case ElementKind::Switch:
        cond_nom[i] = linear_conductance(e, opt);
        break;
      case ElementKind::Diode: {
        const mna::DiodeLinearisation lin = mna::linearise_diode(seed.diode_v[i], opt);
        geq_nom[i] = lin.geq;
        ieq_nom[i] = lin.ieq;
        cond_nom[i] = geq_nom[i];
        break;
      }
      default:
        break;
    }
    std::fill(u.begin(), u.end(), 0.0);
    if (e.kind == ElementKind::VSource) {
      u[static_cast<std::size_t>(structure.n_nodes - 1 + structure.branch_index[i])] = 1.0;
    } else {
      const bool delta_capable =
          e.kind == ElementKind::Resistor || e.kind == ElementKind::Mcu ||
          e.kind == ElementKind::Switch || e.kind == ElementKind::Capacitor ||
          e.kind == ElementKind::Diode || e.kind == ElementKind::ISource;
      const bool u_nonzero = e.a != e.b && (e.a != 0 || e.b != 0);
      if (!delta_capable || !u_nonzero) continue;
      u_axpy(e, 1.0, u.data());
    }
    solve_nominal(u.data(), scratch);
    col_of[i] = static_cast<int>(z_cols.size() / n);
    z_cols.insert(z_cols.end(), u.begin(), u.end());
  }
  seed.x = rhs_nom;
  solve_nominal(seed.x.data(), scratch);
}

bool CampaignContext::Impl::eligible(std::size_t index, const Element& failed) const noexcept {
  const auto& elements = nominal.elements();
  if (index >= elements.size()) return false;
  const Element& e = elements[index];
  if (failed.a != e.a || failed.b != e.b) return false;
  // A branch unknown (voltage source, DC inductor, current sensor) must stay
  // what it was: losing it changes the system dimension, and only a voltage
  // source's value has a column to move along.
  if (has_branch_unknown(e.kind) || has_branch_unknown(failed.kind)) {
    return failed.kind == e.kind;
  }
  // Any linear two-terminal form is a conductance and/or current delta on
  // the node pair. A diode that is not the nominal one has no pinned
  // linearisation point to update from.
  return failed.kind != ElementKind::Diode;
}

void CampaignContext::Impl::woodbury_correct(std::vector<double>& z, Ws& w) const {
  const std::size_t k = w.term_col.size();
  if (k == 0) return;
  const auto& elements = nominal.elements();
  w.small_rhs.resize(k);
  for (std::size_t i = 0; i < k; ++i) w.small_rhs[i] = u_dot(elements[w.term_elem[i]], z.data());
  w.small_lu.solve_in_place(w.small_rhs.data());
  for (std::size_t j = 0; j < k; ++j) {
    const double wj = w.small_rhs[j];
    if (wj != 0.0) axpy(-wj, column(w.term_col[j]), z.data(), dim());
  }
}

/// The one gate ladder, applied to either branch's final iterate: clean
/// convergence with iteration headroom, a cold-start walk the naive path
/// can afford, a full-system residual check, error bounds on the junction
/// voltages, and the MCU knife-edge guard. `elements` with `fault` applied
/// is the faulted netlist, with `st` its structure and `diodes` its diodes.
/// `w.rhs` holds the RHS at the final linearisation; `subtract_matrix(x, r,
/// m)` performs r -= A x and
/// m += |A||x|, and `solve_matrix(v)` v := A^-1 v, for the branch's own
/// matrix there. The naive path never checks a residual, so gating the
/// accepted solution is strictly stronger. On success fills `out`'s
/// readings and their error bounds.
template <typename SubtractMatrix, typename SolveMatrix>
BatchOutcome CampaignContext::Impl::gate(const std::vector<Element>& elements,
                                         mna::ElementOverride fault, const mna::Structure& st,
                                         const std::vector<std::size_t>& diodes,
                                         const mna::NewtonAttempt& attempt, Ws& w,
                                         SubtractMatrix&& subtract_matrix,
                                         SolveMatrix&& solve_matrix, CampaignSolve& out) const {
  if (!attempt.converged) {
    const bool out_of_budget = attempt.failure == SolveFailure::IterationBudget ||
                               attempt.failure == SolveFailure::WallClockBudget ||
                               attempt.failure == SolveFailure::NonFinite;
    return out_of_budget ? BatchOutcome::NotConverged : BatchOutcome::Conditioning;
  }
  // A warm start that barely fits the budget — or whose junctions sit so far
  // from the cold start that the naive walk alone strains it — might
  // converge where the cold-started naive path would not; the naive path
  // must decide.
  if (near_iteration_budget(attempt.iterations, opt)) return BatchOutcome::NotConverged;
  for (const std::size_t d : diodes) {
    if (long_cold_walk(attempt.diode_v[d], opt)) return BatchOutcome::NotConverged;
  }

  // Residual gate: r = rhs - A x must vanish to solver precision, or the
  // solve was too ill-conditioned to trust.
  const std::vector<double>& x = attempt.x;
  w.residual.assign(w.rhs.begin(), w.rhs.end());
  w.magnitude.assign(w.rhs.size(), 0.0);
  subtract_matrix(x, w.residual, w.magnitude);
  double rhs_norm = 0.0;
  double res_norm = 0.0;
  for (std::size_t r = 0; r < w.rhs.size(); ++r) {
    rhs_norm = std::max(rhs_norm, std::abs(w.rhs[r]));
    res_norm = std::max(res_norm, std::abs(w.residual[r]));
  }
  if (!std::isfinite(res_norm) || res_norm > kResidualRelative * std::max(1.0, rhs_norm)) {
    return BatchOutcome::Conditioning;
  }

  // Accuracy gate. One solve bounds, to first order, each unknown's
  // distance from what the naive path computes: |r| is this solution's own
  // error seen through A, and eps (|A||x| + |rhs|) the rounding any
  // backward-stable solve of the system — the naive path's included — may
  // commit. A^-1 of their sum estimates |A^-1| times it (exactly where A^-1
  // >= 0, as for a resistive network's nodal matrix). Junction voltages not
  // known to within the Newton tolerance go back to the naive path: there —
  // a node left floating on gmin by an Open fault, a source stranded behind
  // reverse-biased diodes or a milliohm short — the naive path's own
  // round-off defeats its convergence test and its plain Newton stalls into
  // the recovery ladder, while pinned diodes let this context converge; and
  // the Woodbury update loses the near-zero voltages of such nodes. Measured
  // bounds: at most 1.1e-11 V on the rails and power_supply.mdl, at least
  // 1.3e-7 V on every random general circuit fault whose naive Newton stalls.
  std::vector<double>& bound = w.residual;
  for (std::size_t r = 0; r < bound.size(); ++r) {
    bound[r] = std::abs(bound[r]) +
               std::numeric_limits<double>::epsilon() * (w.magnitude[r] + std::abs(w.rhs[r]));
  }
  solve_matrix(bound);
  auto at = [](const std::vector<double>& v, int node) {
    return node == 0 ? 0.0 : v[static_cast<std::size_t>(node - 1)];
  };
  auto value_between = [&](const Element& e) { return at(x, e.a) - at(x, e.b); };
  auto error_between = [&](const Element& e) {
    return std::abs(at(bound, e.a)) + std::abs(at(bound, e.b));
  };
  for (const std::size_t d : diodes) {
    if (!(error_between(fault.at(elements, d)) <= opt.newton_tolerance)) {
      return BatchOutcome::Conditioning;
    }
  }

  // Readings by slot, each with its error bound. Knife-edge gate: MCU
  // brown-out readings are a discrete function of the solved supply
  // voltage; ulp-level differences from the naive path must not flip them.
  out.readings.resize(readings.size());
  out.reading_error.resize(readings.size());
  for (std::size_t s = 0; s < readings.size(); ++s) {
    const std::size_t i = readings[s];
    const Element& e = fault.at(elements, i);
    double value = std::numeric_limits<double>::quiet_NaN();
    double error = 0.0;
    switch (e.kind) {
      case ElementKind::CurrentSensor: {
        const auto row = static_cast<std::size_t>(st.n_nodes - 1 + st.branch_index[i]);
        value = x[row];
        error = std::abs(bound[row]);
        break;
      }
      case ElementKind::VoltageSensor:
        value = value_between(e);
        error = error_between(e);
        break;
      case ElementKind::Mcu: {
        const double supply = value_between(e);
        if (!(std::abs(supply - e.min_supply) >= kMcuSupplyGuard + error_between(e))) {
          return BatchOutcome::NearThreshold;
        }
        value = (e.ram_ok && supply >= e.min_supply) ? 1.0 : 0.0;
        break;
      }
      default:
        break;  // the fault turned this MCU into a plain resistor: no reading
    }
    out.readings[s] = value;
    out.reading_error[s] = error;
  }
  return BatchOutcome::Solved;
}

BatchOutcome CampaignContext::Impl::solve_lowrank(std::size_t index, const Element& failed,
                                                  Ws& w, const mna::Deadline& deadline,
                                                  mna::NewtonAttempt& attempt,
                                                  CampaignSolve& out) const {
  if (!eligible(index, failed)) return BatchOutcome::Structural;
  const std::size_t n = dim();
  const auto& elements = nominal.elements();
  const Element& before = elements[index];

  // The fault's own conductance delta between the element's (unchanged)
  // terminals. A nominal diode's contribution is its linearised geq, so e.g.
  // "diode opens" is (1/R_open - geq_nom) on the same node pair.
  const double delta_fault = linear_conductance(failed, opt) - cond_nom[index];
  // The fault's own RHS delta, a multiple of the element's column: a
  // current or voltage source's changed value, and the companion current a
  // faulted diode no longer carries (its stamp is -ieq on its incidence).
  const double rhs_fault = source_stamp(failed) - source_stamp(before) +
                           (before.kind == ElementKind::Diode ? ieq_nom[index] : 0.0);
  if ((delta_fault != 0.0 || rhs_fault != 0.0) && col_of[index] < 0 &&
      before.a != before.b && (before.a != 0 || before.b != 0)) {
    // A delta with no cached column on a live node pair is unexpected: let
    // the naive path decide. (On identical or all-ground nodes the stamp is
    // a no-op.)
    return BatchOutcome::Structural;
  }

  BatchMetrics& metrics = BatchMetrics::get();
  metrics.factor_reuses.add();
  // A faulted diode is a resistor now: it leaves the Newton loop's diodes.
  const std::vector<std::size_t>* diodes = &diode_indices;
  if (before.kind == ElementKind::Diode) {
    w.diodes.clear();
    for (const std::size_t d : diode_indices) {
      if (d != index) w.diodes.push_back(d);
    }
    diodes = &w.diodes;
  }
  w.x_fault.assign(seed.x.begin(), seed.x.end());
  if (rhs_fault != 0.0 && col_of[index] >= 0) {
    axpy(rhs_fault, column(col_of[index]), w.x_fault.data(), n);
  }
  std::size_t max_active = 0;

  auto solve_step = [&](const std::vector<double>& diode_v, std::vector<double>& x_out,
                        SolveFailure& failure, std::string& message) {
    // Active low-rank terms: the fault's conductance delta plus any diode
    // whose junction voltage genuinely moved off its nominal point. Diodes
    // within the skip band stay pinned to their nominal linearisation — no
    // matrix term and no RHS change, so companion matrix and RHS stay
    // consistent (an inconsistent pair would leak a first-order error into
    // the solution; a consistently stale linearisation point is only a
    // second-order one).
    w.term_col.clear();
    w.term_elem.clear();
    w.term_g.clear();
    w.moved.clear();
    w.moved_v.clear();
    w.moved_dieq.clear();
    if (delta_fault != 0.0 && col_of[index] >= 0) {
      w.term_col.push_back(col_of[index]);
      w.term_elem.push_back(index);
      w.term_g.push_back(delta_fault);
    }
    for (const std::size_t d : *diodes) {
      if (col_of[d] < 0) continue;  // degenerate node pair: the stamp is a no-op
      const double v = diode_v[d];
      if (std::abs(v - seed.diode_v[d]) <= kDiodeSkipVolt) continue;
      const mna::DiodeLinearisation lin = mna::linearise_diode(v, opt);
      w.moved.push_back(d);
      w.moved_v.push_back(v);
      w.moved_dieq.push_back(lin.ieq - ieq_nom[d]);
      const double delta = lin.geq - geq_nom[d];
      if (delta == 0.0) continue;
      w.term_col.push_back(col_of[d]);
      w.term_elem.push_back(d);
      w.term_g.push_back(delta);
    }
    const std::size_t k = w.term_col.size();
    max_active = std::max(max_active, k);
    if (k > n / 2) {
      // The update is no longer "low-rank": a fresh factorisation is cheaper
      // and better conditioned.
      failure = SolveFailure::Singular;
      message = "low-rank update too dense";
      return false;
    }
    // Base solve in the cached subspace: A_nom^-1 rhs is the fault's base
    // plus each moved diode's column weighted by its companion-current delta
    // (a diode's RHS stamp is -ieq on its incidence vector).
    x_out.assign(w.x_fault.begin(), w.x_fault.end());
    for (std::size_t m = 0; m < w.moved.size(); ++m) {
      if (w.moved_dieq[m] != 0.0) {
        axpy(-w.moved_dieq[m], column(col_of[w.moved[m]]), x_out.data(), n);
      }
    }
    if (k == 0) return true;

    // The Woodbury system G^-1 + U^T Z_active, with Z_active the cached
    // A_nom^-1 u columns and G = diag(term_g). U^T entries are O(1) lookups
    // via the active elements' node pairs.
    std::vector<double>& s = w.small_lu.reset(k);
    for (std::size_t i = 0; i < k; ++i) {
      const Element& e_i = elements[w.term_elem[i]];
      s[i * k + i] = 1.0 / w.term_g[i];
      for (std::size_t j = 0; j < k; ++j) s[i * k + j] += u_dot(e_i, column(w.term_col[j]));
    }
    try {
      w.small_lu.factor("singular low-rank update");
    } catch (const SimulationError&) {
      failure = SolveFailure::Singular;
      message = "low-rank update system is singular";
      return false;
    }
    woodbury_correct(x_out, w);
    return true;
  };

  attempt = mna::newton_attempt(elements, *diodes, opt, structure, &seed, deadline, solve_step);
  metrics.active_terms.observe(static_cast<double>(max_active));
  if (attempt.converged) {
    // The residual gate's RHS: assembled from scratch at the final
    // linearisation, so the check is independent of the incremental
    // bookkeeping above.
    w.eff_diode_v.assign(seed.diode_v.begin(), seed.diode_v.end());
    for (std::size_t m = 0; m < w.moved.size(); ++m) w.eff_diode_v[w.moved[m]] = w.moved_v[m];
    w.rhs.assign(n, 0.0);
    mna::assemble(nominal, opt, dc_state, structure, w.eff_diode_v, nullptr, w.rhs.data(),
                  {index, &failed});
  }
  // The residual runs against A_nom + sum g_i u_i u_i^T; the active terms
  // are still those of the final linearisation.
  const BatchOutcome outcome = gate(
      elements, {index, &failed}, structure, *diodes, attempt, w,
      [&](const std::vector<double>& x, std::vector<double>& r, std::vector<double>& m) {
        subtract_nominal(x, r, m);
        for (std::size_t j = 0; j < w.term_col.size(); ++j) {
          const Element& e_j = elements[w.term_elem[j]];
          const double ux = u_dot(e_j, x.data());
          u_axpy(e_j, -w.term_g[j] * ux, r.data());
          const double mag = std::abs(w.term_g[j]) *
                             ((e_j.a != 0 ? std::abs(x[e_j.a - 1]) : 0.0) +
                              (e_j.b != 0 ? std::abs(x[e_j.b - 1]) : 0.0));
          if (e_j.a != 0) m[e_j.a - 1] += mag;
          if (e_j.b != 0) m[e_j.b - 1] += mag;
        }
      },
      [&](std::vector<double>& v) {
        solve_nominal(v.data(), w.solve_scratch);
        woodbury_correct(v, w);
      },
      out);
  if (outcome == BatchOutcome::Solved) {
    (max_active == 0 ? metrics.rhs_only_solves : metrics.lowrank_solves).add();
  }
  return outcome;
}

BatchOutcome CampaignContext::Impl::solve_refactor(std::size_t index, const Element& failed,
                                                   Ws& w, const mna::Deadline& deadline,
                                                   mna::NewtonAttempt& attempt,
                                                   CampaignSolve& out) const {
  sparse::SparseMetrics& smetrics = sparse::SparseMetrics::get();
  w.faulted = nominal;
  w.faulted.elements()[index] = failed;
  const Circuit& faulted = w.faulted;
  const mna::Structure st = mna::analyze_structure(faulted, false);
  if (st.dim == 0 || st.dim > structure.dim || st.n_nodes != structure.n_nodes) {
    // Faults only ever *remove* branch unknowns (Open/Short turn a source or
    // DC inductor into a resistor); anything else is out of contract.
    return BatchOutcome::Structural;
  }

  // The faulted circuit's own assembly plan (pattern + slot replay), derived
  // once per fault; the per-iteration cost is then pure numeric refill.
  w.plan.build(faulted, opt, dc_state, st);

  // First-factorisation mode: an unchanged pattern adopts the shared nominal
  // symbolic (numeric replay only); a deleted branch unknown reuses the
  // untouched symbolic prefix via partial_factor; anything else pays a full
  // factorisation (still one-off — later iterations refactor).
  enum class First { Refactor, Partial, Full };
  First first = First::Full;
  std::vector<std::int32_t> new_of_old;
  if (st.dim == structure.dim && w.plan.fingerprint == plan.fingerprint) {
    w.slu.adopt(slu.symbolic());
    smetrics.symbolic_reuse.add();
    first = First::Refactor;
  } else if (st.dim < structure.dim) {
    // Node rows are untouched and surviving branch rows keep their element
    // order, so the old-to-new unknown map is strictly increasing over
    // survivors — exactly partial_factor's contract.
    const int keep_nodes = structure.n_nodes - 1;
    new_of_old.assign(structure.dim, -1);
    for (int r = 0; r < keep_nodes; ++r) new_of_old[static_cast<std::size_t>(r)] = r;
    for (std::size_t i = 0; i < nominal.elements().size(); ++i) {
      const int old_b = structure.branch_index[i];
      if (old_b < 0) continue;
      const int new_b = st.branch_index[i];
      new_of_old[static_cast<std::size_t>(keep_nodes + old_b)] =
          new_b < 0 ? -1 : keep_nodes + new_b;
    }
    first = First::Partial;
  }

  bool factored = false;
  auto solve_step = [&](const std::vector<double>& diode_v, std::vector<double>& x_out,
                        SolveFailure& failure, std::string& message) {
    w.rhs.assign(st.dim, 0.0);
    if (!w.plan.refill(faulted, opt, dc_state, st, diode_v, w.rhs.data())) {
      failure = SolveFailure::Singular;
      message = "sparse plan does not match the stamped circuit";
      return false;
    }
    std::string err;
    bool ok = false;
    if (factored || first == First::Refactor) {
      ok = w.slu.refactor(w.plan.pattern, w.plan.values.data(), &err);
      if (!ok) {
        ok = w.slu.factor(w.plan.pattern, w.plan.values.data(), &err);
        if (ok) smetrics.repivots.add();
      }
    } else if (first == First::Partial) {
      ok = w.slu.partial_factor(*slu.symbolic(), plan.pattern, new_of_old, w.plan.pattern,
                                w.plan.values.data(), nullptr, &err);
      if (!ok) ok = w.slu.factor(w.plan.pattern, w.plan.values.data(), &err);
    } else {
      ok = w.slu.factor(w.plan.pattern, w.plan.values.data(), &err);
    }
    if (!ok) {
      failure = SolveFailure::Singular;
      message = std::move(err);
      return false;
    }
    if (!factored) {
      factored = true;
      if (!fill_ok(w.slu, st.dim)) {
        smetrics.fallback_fill.add();
        failure = SolveFailure::Singular;
        message = "sparse factorisation fill exceeded the density gate";
        return false;
      }
    }
    // Solve into a separate buffer so `w.rhs` still holds the final-iteration
    // RHS for the residual gate.
    w.solution = w.rhs;
    w.slu.solve_in_place(w.solution.data(), w.solve_scratch);
    x_out = w.solution;
    return true;
  };

  const std::vector<std::size_t> diodes = mna::diode_indices(faulted.elements());
  attempt = mna::newton_attempt(faulted.elements(), diodes, opt, st, &seed, deadline, solve_step);
  // The residual runs against the *exact* faulted matrix; every iteration
  // re-stamped the RHS in full, so `w.rhs` is already a fresh assembly.
  return gate(
      faulted.elements(), {}, st, diodes, attempt, w,
      [&](const std::vector<double>& x, std::vector<double>& r, std::vector<double>& m) {
        subtract_csc(w.plan.pattern, w.plan.values, x, r, m);
      },
      [&](std::vector<double>& r) { w.slu.solve_in_place(r.data(), w.solve_scratch); }, out);
}

CampaignContext::CampaignContext(const Circuit& nominal, const OperatingPoint& baseline,
                                 const SolveOptions& options)
    : impl_(std::make_unique<Impl>()) {
  BatchMetrics& metrics = BatchMetrics::get();
  metrics.contexts.add();
  Impl& im = *impl_;
  im.nominal = nominal;
  im.opt = options;
  im.structure = mna::analyze_structure(im.nominal, false);
  im.readings = sim::reading_elements(im.nominal);
  im.diode_indices = mna::diode_indices(im.nominal.elements());
  // A trivial system is free on the naive path; a singular one, or a
  // baseline that is not this circuit's, is no shared linearisation point.
  if (im.dim() == 0 || !im.factor(baseline)) {
    metrics.contexts_unusable.add();
    return;
  }
  if (im.sparse) metrics.sparse_contexts.add();
  im.cache_columns();
  im.usable = true;
}

CampaignContext::~CampaignContext() = default;
CampaignContext::CampaignContext(CampaignContext&&) noexcept = default;
CampaignContext& CampaignContext::operator=(CampaignContext&&) noexcept = default;

bool CampaignContext::usable() const noexcept { return impl_->usable; }

bool CampaignContext::sparse_factor() const noexcept { return impl_->sparse; }

const std::vector<std::size_t>& CampaignContext::reading_elements() const noexcept {
  return impl_->readings;
}

bool CampaignContext::eligible(std::size_t element, const Element& failed) const noexcept {
  return impl_->usable && impl_->eligible(element, failed);
}

CampaignSolve CampaignContext::try_solve(std::size_t element, const Element& failed,
                                         Workspace& ws) const {
  CampaignSolve solve;
  const Impl& im = *impl_;
  if (!im.usable) return solve;
  BatchMetrics& metrics = BatchMetrics::get();
  mna::SolverMetrics& solver_metrics = mna::SolverMetrics::get();
  solver_metrics.solves.add();
  const auto start = std::chrono::steady_clock::now();
  const mna::Deadline deadline = deadline_from(start, im.opt);
  Workspace::Impl& w = *ws.impl_;

  mna::NewtonAttempt attempt;
  int iterations = 0;
  solve.lowrank = im.solve_lowrank(element, failed, w, deadline, attempt, solve);
  iterations += attempt.iterations;
  metrics.count_fallback(solve.lowrank);
  bool solved = solve.lowrank == BatchOutcome::Solved;
  if (!solved && im.sparse && element < im.nominal.elements().size()) {
    attempt = mna::NewtonAttempt{};
    solve.refactor = im.solve_refactor(element, failed, w, deadline, attempt, solve);
    iterations += attempt.iterations;
    metrics.count_fallback(*solve.refactor);
    solved = *solve.refactor == BatchOutcome::Solved;
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  solver_metrics.iterations.add(static_cast<std::uint64_t>(iterations));
  solver_metrics.solve_seconds.observe(elapsed);
  if (!solved) {
    solve.readings.clear();
    solve.reading_error.clear();
    return solve;
  }
  solver_metrics.converged.add();
  solve.solved = true;
  solve.diagnostics.converged = true;
  solve.diagnostics.strategy = SolveStrategy::Newton;
  solve.diagnostics.ladder_rung = 0;
  solve.diagnostics.iterations = iterations;
  solve.diagnostics.residual = attempt.residual;
  solve.diagnostics.failure = SolveFailure::None;
  solve.diagnostics.elapsed_seconds = elapsed;
  return solve;
}

}  // namespace decisive::sim
