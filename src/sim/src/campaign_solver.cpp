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

/// r = rhs - A x and m = |A| |x| for the CSC matrix (`pattern`, `values`).
void residual_csc(const sparse::Pattern& pattern, const std::vector<double>& values,
                  const std::vector<double>& rhs, const std::vector<double>& x,
                  std::vector<double>& r, std::vector<double>& m) {
  r.assign(rhs.begin(), rhs.end());
  m.assign(rhs.size(), 0.0);
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

/// One `y += s * z` of a column combination.
struct Shift {
  double s = 0.0;
  const double* z = nullptr;
};

/// y = x + s_1 z_1 + s_2 z_2 + ... over n entries, in one pass: each entry
/// takes exactly the additions of a copy followed by one axpy per shift, in
/// shift order. `y` may be `x`. One and two shifts, nearly every call on the
/// rails, have loops of their own: the general loop reloads each shift per
/// entry (a store to `y` may alias it) and does not vectorise.
void add_shifts(const double* x, const std::vector<Shift>& shifts, double* y, std::size_t n) {
  switch (shifts.size()) {
    case 0:
      if (y != x) std::copy(x, x + n, y);
      return;
    case 1: {
      const Shift s0 = shifts[0];
      for (std::size_t r = 0; r < n; ++r) y[r] = x[r] + s0.s * s0.z[r];
      return;
    }
    case 2: {
      const Shift s0 = shifts[0];
      const Shift s1 = shifts[1];
      for (std::size_t r = 0; r < n; ++r) y[r] = x[r] + s0.s * s0.z[r] + s1.s * s1.z[r];
      return;
    }
    default:
      for (std::size_t r = 0; r < n; ++r) {
        double v = x[r];
        for (const Shift& shift : shifts) v += shift.s * shift.z[r];
        y[r] = v;
      }
  }
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
  /// One active low-rank term: conductance delta `g` between nodes `a` and
  /// `b`, whose incidence vector's cached column is `col`.
  struct Term {
    int col = -1;
    int a = 0;
    int b = 0;
    double g = 0.0;
  };
  /// A diode off its pinned point in the last step: its cached column, the
  /// companion it was stamped with there, and that companion's current
  /// delta against the nominal one.
  struct MovedDiode {
    std::size_t index = 0;
    int col = -1;
    double dieq = 0.0;
    mna::DiodeLinearisation lin;
  };

  // Both branches: the Newton run and its next-iterate buffer, the result
  // try_solve hands back (its reading vectors keep their capacity), the RHS
  // at the final linearisation (the residual gate's), the gate's residual —
  // turned in place into the solution's error bound — with |A||x| beside
  // it, and the sparse triangular-solve buffer.
  mna::NewtonAttempt attempt;
  std::vector<double> x_new;
  CampaignSolve solve;
  std::vector<double> rhs;
  std::vector<double> residual;
  std::vector<double> magnitude;
  std::vector<double> solve_scratch;
  /// The faulted system's junctions when they differ from the context's: a
  /// faulted diode leaves the low-rank branch's list; the refactor branch
  /// lists the faulted circuit's diodes.
  std::vector<mna::Junction> junctions;
  // Low-rank branch.
  std::vector<double> x_fault;      ///< x_pin plus the fault's own RHS delta
  std::vector<MovedDiode> moved;    ///< in element order
  std::vector<Term> terms;          ///< the fault's term first, then moved diodes'
  std::vector<Shift> shifts;        ///< the column combination being added
  std::vector<double> small_rhs;
  dense::LuFactorization small_lu;  ///< the Woodbury system
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

  /// A nominal diode with a cached column and its pinned (nominal
  /// linearisation) voltage: all the moved-diode scan reads of a diode that
  /// has not moved, in place of gathering column ids and both junction
  /// voltages through element indices.
  struct PinnedPoint {
    std::size_t index = 0;
    double v = 0.0;
  };
  /// One slot of the reading table, with the element fields its reading
  /// reads.
  struct Reading {
    std::size_t index = 0;
    ElementKind kind = ElementKind::VoltageSensor;
    int a = 0;
    int b = 0;
    bool ram_ok = true;
    double min_supply = 0.0;
  };

  static Reading reading_of(std::size_t index, const Element& e) {
    return {index, e.kind, e.a, e.b, e.ram_ok, e.min_supply};
  }

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
  std::vector<Reading> reading_table;  // ...and their fields, slot by slot
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

  // Per element index: conductance contribution inside A_nom, the nominal
  // diode companion, and the cached column id (-1 = none).
  std::vector<double> cond_nom;
  std::vector<double> geq_nom;
  std::vector<double> ieq_nom;
  std::vector<int> col_of;
  std::vector<mna::Junction> junctions;   // every diode's, in element order
  std::vector<PinnedPoint> pinned;        // every diode with a cached column
  std::vector<std::size_t> rhs_elements;  // the elements whose DC stamp writes the RHS

  // Cached columns, column-major (col * dim + row): Z = A_nom^-1 U over the
  // elements' incidence vectors, and A_nom^-1 e_k over voltage sources'
  // branch rows.
  std::vector<double> z_cols;

  [[nodiscard]] std::size_t dim() const noexcept { return structure.dim; }

  [[nodiscard]] const double* column(int col) const {
    return z_cols.data() + static_cast<std::size_t>(col) * dim();
  }

  /// u^T v for a term's reduced incidence vector e_a - e_b.
  [[nodiscard]] static double u_dot(const Ws::Term& t, const double* v) {
    double sum = 0.0;
    if (t.a != 0) sum += v[t.a - 1];
    if (t.b != 0) sum -= v[t.b - 1];
    return sum;
  }

  /// v += s * u.
  static void u_axpy(const Ws::Term& t, double s, double* v) {
    if (t.a != 0) v[t.a - 1] += s;
    if (t.b != 0) v[t.b - 1] -= s;
  }

  /// b := A_nom^-1 b against the shared factor.
  void solve_nominal(double* b, std::vector<double>& scratch) const {
    if (sparse) {
      slu.solve_in_place(b, scratch);
    } else {
      lu.solve_in_place(b);
    }
  }

  /// r = rhs - A_nom x and m = |A_nom| |x|.
  void nominal_residual(const std::vector<double>& rhs, const std::vector<double>& x,
                        std::vector<double>& r, std::vector<double>& m) const {
    if (sparse) {
      residual_csc(plan.pattern, plan.values, rhs, x, r, m);
      return;
    }
    const std::size_t n = dim();
    r.resize(n);
    m.resize(n);
    for (std::size_t row = 0; row < n; ++row) {
      const double* a = a_nom.data() + row * n;
      double dot = 0.0;
      double mag = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        dot += a[c] * x[c];
        mag += std::abs(a[c]) * std::abs(x[c]);
      }
      r[row] = rhs[row] - dot;
      m[row] = mag;
    }
  }

  /// Builds and factors the Woodbury system G^-1 + U^T Z_active over the
  /// workspace's active terms, Z_active their cached A_nom^-1 u columns and
  /// G = diag(g). U^T entries are O(1) lookups at the terms' node pairs.
  /// False when it is singular.
  [[nodiscard]] bool factor_woodbury(Ws& w) const;

  /// Woodbury: z := z - Z_active (G^-1 + U^T Z_active)^-1 U^T z over the
  /// workspace's active terms, against the system factor_woodbury factored
  /// for them. With z = A_nom^-1 b this solves (A_nom + sum g_j u_j u_j^T)
  /// x = b.
  void woodbury_correct(std::vector<double>& z, Ws& w) const;

  bool factor(const OperatingPoint& baseline);
  void cache_columns();
  [[nodiscard]] bool eligible(std::size_t index, const Element& failed) const noexcept;
  [[nodiscard]] bool fill_ok(const sparse::SparseLu& factor, std::size_t n) const {
    const double n_sq = static_cast<double>(n) * static_cast<double>(n);
    return static_cast<double>(factor.lu_nnz()) <= opt.sparse_max_fill * n_sq;
  }

  template <typename Residual, typename SolveMatrix>
  BatchOutcome gate(mna::ElementOverride fault, const mna::Structure& st,
                    const std::vector<mna::Junction>& junctions, Ws& w, Residual&& residual,
                    SolveMatrix&& solve_matrix) const;
  /// Aligned like the kernels: the context's Newton loop is inlined here.
  [[gnu::aligned(64)]] BatchOutcome solve_lowrank(std::size_t index, const Element& failed,
                                                  Ws& w, const mna::Deadline& deadline) const;
  BatchOutcome solve_refactor(std::size_t index, const Element& failed, Ws& w,
                              const mna::Deadline& deadline) const;
};

bool CampaignContext::Impl::factor(const OperatingPoint& baseline) {
  // Linearise each diode where the baseline's Newton converged: at its
  // terminals' voltage difference. Every other entry keeps Newton's cold
  // start, as a solve of its own would have left it.
  const auto& elements = nominal.elements();
  const std::vector<double>& v = baseline.node_voltage;
  if (v.size() != static_cast<std::size_t>(structure.n_nodes)) return false;
  seed.diode_v.assign(elements.size(), mna::kColdJunctionVolt);
  for (const mna::Junction& j : junctions) {
    seed.diode_v[j.index] =
        v[static_cast<std::size_t>(j.a)] - v[static_cast<std::size_t>(j.b)];
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
  int columns = 0;
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
    const bool delta_capable =
        e.kind == ElementKind::Resistor || e.kind == ElementKind::Mcu ||
        e.kind == ElementKind::Switch || e.kind == ElementKind::Capacitor ||
        e.kind == ElementKind::Diode || e.kind == ElementKind::ISource;
    const bool u_nonzero = e.a != e.b && (e.a != 0 || e.b != 0);
    if (e.kind == ElementKind::VSource || (delta_capable && u_nonzero)) col_of[i] = columns++;
  }

  // The column block is sized once; each column is its source vector,
  // solved in place.
  z_cols.assign(static_cast<std::size_t>(columns) * n, 0.0);
  std::vector<double> scratch;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (col_of[i] < 0) continue;
    const Element& e = elements[i];
    double* u = z_cols.data() + static_cast<std::size_t>(col_of[i]) * n;
    if (e.kind == ElementKind::VSource) {
      u[static_cast<std::size_t>(structure.n_nodes - 1 + structure.branch_index[i])] = 1.0;
    } else {
      if (e.a != 0) u[e.a - 1] += 1.0;
      if (e.b != 0) u[e.b - 1] -= 1.0;
    }
    solve_nominal(u, scratch);
  }
  seed.x = rhs_nom;
  solve_nominal(seed.x.data(), scratch);

  for (const mna::Junction& j : junctions) {
    if (col_of[j.index] < 0) continue;  // degenerate node pair: never a low-rank term
    pinned.push_back({j.index, seed.diode_v[j.index]});
  }
  for (std::size_t i = 0; i < elements.size(); ++i) {
    switch (elements[i].kind) {
      case ElementKind::Diode:
      case ElementKind::ISource:
      case ElementKind::VSource:
      case ElementKind::CurrentSensor:
      case ElementKind::Inductor:  // DC: a 0 V source, whose branch row it writes
        rhs_elements.push_back(i);
        break;
      default:
        break;
    }
  }
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

bool CampaignContext::Impl::factor_woodbury(Ws& w) const {
  const std::size_t k = w.terms.size();
  std::vector<double>& s = w.small_lu.reset(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Ws::Term& t_i = w.terms[i];
    s[i * k + i] = 1.0 / t_i.g;
    for (std::size_t j = 0; j < k; ++j) s[i * k + j] += u_dot(t_i, column(w.terms[j].col));
  }
  try {
    w.small_lu.factor("singular low-rank update");
  } catch (const SimulationError&) {
    return false;
  }
  return true;
}

void CampaignContext::Impl::woodbury_correct(std::vector<double>& z, Ws& w) const {
  const std::size_t k = w.terms.size();
  if (k == 0) return;
  w.small_rhs.resize(k);
  for (std::size_t i = 0; i < k; ++i) w.small_rhs[i] = u_dot(w.terms[i], z.data());
  w.small_lu.solve_in_place(w.small_rhs.data());
  w.shifts.clear();
  for (std::size_t j = 0; j < k; ++j) {
    const double wj = w.small_rhs[j];
    if (wj != 0.0) w.shifts.push_back({-wj, column(w.terms[j].col)});
  }
  add_shifts(z.data(), w.shifts, z.data(), dim());
}

/// The one gate ladder, applied to either branch's final iterate
/// (`w.attempt`): clean convergence with iteration headroom, a cold-start
/// walk the naive path can afford, a full-system residual check, error
/// bounds on the junction voltages, and the MCU knife-edge guard. The
/// nominal netlist with `fault` applied is the faulted one, with `st` its
/// structure and `junctions` its diodes. `w.rhs` holds the RHS at the final
/// linearisation; `residual(x, r, m)` sets r = rhs - A x and m = |A||x|, and
/// `solve_matrix(v)` v := A^-1 v, for the branch's own matrix there. The naive path never checks a residual, so gating the accepted
/// solution is strictly stronger. On success fills `w.solve`'s readings and
/// their error bounds.
template <typename Residual, typename SolveMatrix>
BatchOutcome CampaignContext::Impl::gate(mna::ElementOverride fault, const mna::Structure& st,
                                         const std::vector<mna::Junction>& junctions, Ws& w,
                                         Residual&& residual, SolveMatrix&& solve_matrix) const {
  const mna::NewtonAttempt& attempt = w.attempt;
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
  for (const mna::Junction& j : junctions) {
    if (long_cold_walk(attempt.diode_v[j.index], opt)) return BatchOutcome::NotConverged;
  }

  // Residual gate: r = rhs - A x must vanish to solver precision, or the
  // solve was too ill-conditioned to trust.
  const std::vector<double>& x = attempt.x;
  const std::size_t n = w.rhs.size();
  residual(x, w.residual, w.magnitude);

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
  //
  // One pass takes both norms (in independent max chains, like
  // newton_attempt's) and turns the residual into the bound's right-hand
  // side; the bound is solved only once the residual passes.
  std::vector<double>& bound = w.residual;
  double rhs_norm[2] = {0.0, 0.0};
  double res_norm[2] = {0.0, 0.0};
  for (std::size_t r = 0; r < n; ++r) {
    const double rhs_mag = std::abs(w.rhs[r]);
    const double res_mag = std::abs(bound[r]);
    rhs_norm[r & 1] = std::max(rhs_norm[r & 1], rhs_mag);
    res_norm[r & 1] = std::max(res_norm[r & 1], res_mag);
    bound[r] = res_mag + std::numeric_limits<double>::epsilon() * (w.magnitude[r] + rhs_mag);
  }
  const double rhs_max = std::max(rhs_norm[0], rhs_norm[1]);
  const double res_max = std::max(res_norm[0], res_norm[1]);
  if (!std::isfinite(res_max) || res_max > kResidualRelative * std::max(1.0, rhs_max)) {
    return BatchOutcome::Conditioning;
  }
  solve_matrix(bound);
  auto at = [](const std::vector<double>& v, int node) {
    return node == 0 ? 0.0 : v[static_cast<std::size_t>(node - 1)];
  };
  auto error_between = [&](int a, int b) {
    return std::abs(at(bound, a)) + std::abs(at(bound, b));
  };
  bool junctions_known = true;
  for (const mna::Junction& j : junctions) {
    junctions_known &= error_between(j.a, j.b) <= opt.newton_tolerance;
  }
  if (!junctions_known) return BatchOutcome::Conditioning;

  // Readings by slot, each with its error bound. Knife-edge gate: MCU
  // brown-out readings are a discrete function of the solved supply
  // voltage; ulp-level differences from the naive path must not flip them.
  CampaignSolve& out = w.solve;
  out.readings.resize(reading_table.size());
  out.reading_error.resize(reading_table.size());
  Reading overridden;
  for (std::size_t s = 0; s < reading_table.size(); ++s) {
    const Reading* slot = &reading_table[s];
    if (fault.element != nullptr && slot->index == fault.index) {
      overridden = reading_of(fault.index, *fault.element);
      slot = &overridden;
    }
    const Reading& r = *slot;
    double value = std::numeric_limits<double>::quiet_NaN();
    double error = 0.0;
    switch (r.kind) {
      case ElementKind::CurrentSensor: {
        const auto row = static_cast<std::size_t>(st.n_nodes - 1 + st.branch_index[r.index]);
        value = x[row];
        error = std::abs(bound[row]);
        break;
      }
      case ElementKind::VoltageSensor:
        value = at(x, r.a) - at(x, r.b);
        error = error_between(r.a, r.b);
        break;
      case ElementKind::Mcu: {
        const double supply = at(x, r.a) - at(x, r.b);
        if (!(std::abs(supply - r.min_supply) >= kMcuSupplyGuard + error_between(r.a, r.b))) {
          return BatchOutcome::NearThreshold;
        }
        value = (r.ram_ok && supply >= r.min_supply) ? 1.0 : 0.0;
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
                                                  Ws& w, const mna::Deadline& deadline) const {
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
  const int fault_col = col_of[index];
  if ((delta_fault != 0.0 || rhs_fault != 0.0) && fault_col < 0 && before.a != before.b &&
      (before.a != 0 || before.b != 0)) {
    // A delta with no cached column on a live node pair is unexpected: let
    // the naive path decide. (On identical or all-ground nodes the stamp is
    // a no-op.)
    return BatchOutcome::Structural;
  }

  BatchMetrics& metrics = BatchMetrics::get();
  metrics.factor_reuses.add();
  // A faulted diode is a resistor now: it leaves the Newton loop's diodes.
  // (Its pinned-table entry stays, but Newton never moves its estimate off
  // the pinned value, so the moved-diode scan always passes over it.)
  const std::vector<mna::Junction>* fault_junctions = &junctions;
  if (before.kind == ElementKind::Diode) {
    w.junctions.clear();
    for (const mna::Junction& j : junctions) {
      if (j.index != index) w.junctions.push_back(j);
    }
    fault_junctions = &w.junctions;
  }
  w.shifts.clear();
  if (rhs_fault != 0.0 && fault_col >= 0) w.shifts.push_back({rhs_fault, column(fault_col)});
  w.x_fault.resize(n);
  add_shifts(seed.x.data(), w.shifts, w.x_fault.data(), n);
  const bool fault_term = delta_fault != 0.0 && fault_col >= 0;
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
    w.terms.clear();
    w.moved.clear();
    if (fault_term) w.terms.push_back({fault_col, before.a, before.b, delta_fault});
    for (const PinnedPoint& p : pinned) {
      const double v = diode_v[p.index];
      if (std::abs(v - p.v) <= kDiodeSkipVolt) continue;
      // A moved diode (rare): its column, terminals and nominal companion.
      const int col = col_of[p.index];
      const mna::DiodeLinearisation lin = mna::linearise_diode(v, opt);
      w.moved.push_back({p.index, col, lin.ieq - ieq_nom[p.index], lin});
      const double delta = lin.geq - geq_nom[p.index];
      if (delta == 0.0) continue;
      const Element& d = elements[p.index];
      w.terms.push_back({col, d.a, d.b, delta});
    }
    const std::size_t k = w.terms.size();
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
    w.shifts.clear();
    for (const Ws::MovedDiode& m : w.moved) {
      if (m.dieq != 0.0) w.shifts.push_back({-m.dieq, column(m.col)});
    }
    x_out.resize(n);
    add_shifts(w.x_fault.data(), w.shifts, x_out.data(), n);
    if (k == 0) return true;
    if (!factor_woodbury(w)) {
      failure = SolveFailure::Singular;
      message = "low-rank update system is singular";
      return false;
    }
    woodbury_correct(x_out, w);
    return true;
  };

  mna::newton_attempt(elements.size(), *fault_junctions, opt, structure, &seed, deadline,
                      w.x_new, w.attempt, solve_step);
  metrics.active_terms.observe(static_cast<double>(max_active));
  if (w.attempt.converged) {
    // The residual gate's RHS: assembled from scratch at the final
    // linearisation, so the check is independent of the incremental
    // bookkeeping above. Only the elements that stamp the RHS are visited,
    // in element order, so every sum is the full assembly's. A diode still
    // at its pinned point stamps the companion the context computed there —
    // the very linearise_diode value, without its exp() — and a moved one
    // the companion its last step stamped. assemble_with linearises diodes
    // in ascending order, the order of `w.moved`.
    w.rhs.assign(n, 0.0);
    std::size_t next_moved = 0;
    mna::assemble_with(
        nominal, opt, dc_state, structure,
        [&](std::size_t i) {
          if (next_moved < w.moved.size() && w.moved[next_moved].index == i) {
            return w.moved[next_moved++].lin;
          }
          return mna::DiodeLinearisation{geq_nom[i], ieq_nom[i]};
        },
        [](std::size_t, std::size_t, double) {}, w.rhs.data(), {index, &failed},
        &rhs_elements);
  }
  // The residual runs against A_nom + sum g_i u_i u_i^T; the active terms
  // are still those of the final linearisation.
  const BatchOutcome outcome = gate(
      {index, &failed}, structure, *fault_junctions, w,
      [&](const std::vector<double>& x, std::vector<double>& r, std::vector<double>& m) {
        nominal_residual(w.rhs, x, r, m);
        for (const Ws::Term& t : w.terms) {
          const double ux = u_dot(t, x.data());
          u_axpy(t, -t.g * ux, r.data());
          const double mag = std::abs(t.g) * ((t.a != 0 ? std::abs(x[t.a - 1]) : 0.0) +
                                              (t.b != 0 ? std::abs(x[t.b - 1]) : 0.0));
          if (t.a != 0) m[t.a - 1] += mag;
          if (t.b != 0) m[t.b - 1] += mag;
        }
      },
      [&](std::vector<double>& v) {
        solve_nominal(v.data(), w.solve_scratch);
        woodbury_correct(v, w);
      });
  if (outcome == BatchOutcome::Solved) {
    (max_active == 0 ? metrics.rhs_only_solves : metrics.lowrank_solves).add();
  }
  return outcome;
}

BatchOutcome CampaignContext::Impl::solve_refactor(std::size_t index, const Element& failed,
                                                   Ws& w, const mna::Deadline& deadline) const {
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

  mna::diode_junctions(faulted.elements(), w.junctions);
  mna::newton_attempt(faulted.elements().size(), w.junctions, opt, st, &seed, deadline, w.x_new,
                      w.attempt, solve_step);
  // The residual runs against the *exact* faulted matrix; every iteration
  // re-stamped the RHS in full, so `w.rhs` is already a fresh assembly.
  return gate(
      {index, &failed}, st, w.junctions, w,
      [&](const std::vector<double>& x, std::vector<double>& r, std::vector<double>& m) {
        residual_csc(w.plan.pattern, w.plan.values, w.rhs, x, r, m);
      },
      [&](std::vector<double>& r) { w.slu.solve_in_place(r.data(), w.solve_scratch); });
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
  for (const std::size_t i : im.readings) {
    im.reading_table.push_back(Impl::reading_of(i, im.nominal.elements()[i]));
  }
  mna::diode_junctions(im.nominal.elements(), im.junctions);
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

const CampaignSolve& CampaignContext::try_solve(std::size_t element, const Element& failed,
                                                Workspace& ws) const {
  Workspace::Impl& w = *ws.impl_;
  CampaignSolve& solve = w.solve;
  solve.solved = false;
  solve.diagnostics = SolveDiagnostics{};
  solve.lowrank = BatchOutcome::Disabled;
  solve.refactor.reset();
  const Impl& im = *impl_;
  if (!im.usable) {
    solve.readings.clear();
    solve.reading_error.clear();
    return solve;
  }
  BatchMetrics& metrics = BatchMetrics::get();
  mna::SolverMetrics& solver_metrics = mna::SolverMetrics::get();
  solver_metrics.solves.add();
  const auto start = std::chrono::steady_clock::now();
  const mna::Deadline deadline = deadline_from(start, im.opt);

  // A branch that declines before its Newton run did no iterations.
  w.attempt.iterations = 0;
  solve.lowrank = im.solve_lowrank(element, failed, w, deadline);
  int iterations = w.attempt.iterations;
  metrics.count_fallback(solve.lowrank);
  bool solved = solve.lowrank == BatchOutcome::Solved;
  if (!solved && im.sparse && element < im.nominal.elements().size()) {
    w.attempt.iterations = 0;
    solve.refactor = im.solve_refactor(element, failed, w, deadline);
    iterations += w.attempt.iterations;
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
  solve.diagnostics.residual = w.attempt.residual;
  solve.diagnostics.failure = SolveFailure::None;
  solve.diagnostics.elapsed_seconds = elapsed;
  return solve;
}

}  // namespace decisive::sim
