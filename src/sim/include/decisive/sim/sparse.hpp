// Sparse direct solver subsystem: CSC patterns, fill-reducing ordering,
// Gilbert-Peierls LU with threshold partial pivoting, and the symbolic /
// numeric split that makes repeated MNA solves cheap.
//
// The design mirrors KLU's shape (the de-facto circuit-simulation
// factorisation): the *symbolic* analysis — column ordering, pivot row
// assignment and the full L/U elimination pattern — is computed once per
// circuit structure and frozen; every subsequent Newton iteration, transient
// step or campaign fault with the same structure replays a purely *numeric*
// refactorisation over that frozen pattern (no graph traversal, no
// allocation). Structural faults that delete one branch unknown reuse the
// untouched symbolic prefix via partial_factor() and re-run the
// Gilbert-Peierls sweep only from the first touched column.
//
// Numerical honesty: a sparse factorisation pivots differently from the
// dense kernel, so its solutions agree with dense only to rounding — never
// bit-for-bit. Callers that promise byte-identical artefacts (the FMEDA
// campaign) therefore accept sparse results only behind the PR-7 gate ladder
// and re-run anything suspicious on the dense oracle; this header only
// promises a *correct* factorisation or a clean `false`.
//
// Thread model: `Symbolic` is immutable after construction and shared
// read-only across workers via shared_ptr. A factored SparseLu is itself
// safe to solve from many threads at once: solve_in_place() is const and
// writes only the caller's scratch, so a campaign shares one nominal factor
// and each worker brings its own buffer. Factorisations mutate the SparseLu
// and need exclusive access. Pattern objects are immutable once frozen.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decisive/obs/registry.hpp"

namespace decisive::sim::sparse {

/// Pivot-stability gate of the numeric refactorisation: a frozen pivot whose
/// magnitude has fallen below this fraction of its column's post-elimination
/// max is no longer trustworthy — the caller must re-pivot (fresh factor())
/// or fall back to dense.
inline constexpr double kRefactorPivotGate = 1e-3;

/// Threshold partial pivoting: prefer the diagonal entry (best for pattern
/// stability across refactorisations of diagonally dominant MNA systems)
/// whenever it is within this factor of the column's max magnitude.
inline constexpr double kDiagonalPreference = 0.1;

/// Patterns denser than this are not worth sparse treatment; the caller
/// should keep the dense kernel. Checked by min_degree_order (which returns
/// the identity order for such patterns) and exposed for callers' fill gates.
inline constexpr double kDensePatternRatio = 0.25;

/// Compressed-sparse-column nonzero pattern of a square matrix. Row indices
/// are strictly increasing within each column. Immutable once built (the
/// numeric values live in a separate, parallel array).
struct Pattern {
  std::size_t n = 0;
  std::vector<std::int32_t> col_ptr;  ///< size n + 1
  std::vector<std::int32_t> row_ind;  ///< size nnz, sorted per column

  [[nodiscard]] std::size_t nnz() const noexcept { return row_ind.size(); }

  /// FNV-1a over n, col_ptr and row_ind: the campaign's symbolic-cache key.
  /// Equal fingerprints are treated as equal structures (64-bit collision
  /// odds are negligible against ~10^3 structures per campaign).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  bool operator==(const Pattern&) const = default;
};

/// Records the coordinate stream of one stamp pass, then freezes it into a
/// deduplicated Pattern plus the per-add slot sequence that lets every later
/// numeric assembly replay the identical stamp pass straight into the CSC
/// value array (no search, no sort — one indexed add per stamp).
class PatternBuilder {
 public:
  void begin(std::size_t n) {
    n_ = n;
    coords_.clear();
  }

  void add(std::size_t row, std::size_t col) {
    coords_.emplace_back(static_cast<std::int32_t>(col), static_cast<std::int32_t>(row));
  }

  [[nodiscard]] std::size_t recorded() const noexcept { return coords_.size(); }

  /// Builds `pattern` (sorted, deduplicated CSC) and fills `slots` with the
  /// CSC value index of every recorded add, in recording order.
  void freeze(Pattern& pattern, std::vector<std::int32_t>& slots) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> coords_;  ///< (col, row)
};

/// Fill-reducing column ordering: greedy minimum degree on the symmetric
/// pattern of A + A^T (MNA systems are structurally symmetric, so this is
/// the natural Markowitz specialisation). Deterministic: ties break to the
/// lowest index. Returns the identity order when the pattern is too dense
/// for sparse treatment (see kDensePatternRatio).
[[nodiscard]] std::vector<std::int32_t> min_degree_order(const Pattern& a);

/// The frozen result of symbolic analysis: column order, pivot rows, and the
/// complete L/U elimination pattern. Immutable; shared read-only across
/// threads. All row indices are *original* (unpermuted) row numbers; U
/// entries reference pivot *positions* and are stored in the exact
/// (topological) elimination order the numeric replay must follow.
struct Symbolic {
  std::size_t n = 0;
  std::vector<std::int32_t> perm_col;   ///< position k factors original column perm_col[k]
  std::vector<std::int32_t> pivot_row;  ///< original row pivotal at position k
  std::vector<std::int32_t> l_ptr;      ///< size n + 1; L column extents
  std::vector<std::int32_t> l_row;      ///< original row indices of L entries
  std::vector<std::int32_t> u_ptr;      ///< size n + 1; U column extents
  std::vector<std::int32_t> u_pos;      ///< pivot positions of U entries, topological order
  std::uint64_t pattern_fingerprint = 0;  ///< fingerprint of the A pattern this was built for

  /// Total stored entries of L + U including the n pivots.
  [[nodiscard]] std::size_t lu_nnz() const noexcept {
    return l_row.size() + u_pos.size() + n;
  }
};

/// Sparse LU factorisation PAQ = LU with owned numeric storage and scratch.
/// factor() performs the full symbolic + numeric Gilbert-Peierls sweep;
/// refactor() replays the numbers over a frozen Symbolic; partial_factor()
/// reuses an unchanged symbolic prefix across a structural edit. All three
/// report numerical trouble by returning false (never throwing), so callers
/// can fall back to the dense oracle without disturbing control flow.
/// refactor() and solve_in_place() are the campaign's hot members; both are
/// aligned to a cache line so their speed does not depend on where the
/// linker puts them.
class SparseLu {
 public:
  /// Full factorisation of `values` (CSC, parallel to `pattern.row_ind`):
  /// min-degree ordering, Gilbert-Peierls with threshold partial pivoting,
  /// fresh Symbolic. Returns false (with `error` set) when the matrix is
  /// numerically singular under the relative pivot floor shared with the
  /// dense kernel.
  bool factor(const Pattern& pattern, const double* values, std::string* error);

  /// Numeric-only replay over the adopted Symbolic (from a prior factor(),
  /// partial_factor() or adopt()). The pattern must be the one the symbolic
  /// was built for. Returns false when a frozen pivot fails the stability
  /// gate or the relative floor — re-pivot via factor() or go dense.
  [[gnu::aligned(64)]] bool refactor(const Pattern& pattern, const double* values,
                                     std::string* error);

  /// Partial refactorisation across a structural edit: `base` was built for
  /// `base_pattern`; `new_of_old` maps every old row/column index to its new
  /// index (-1 = deleted; must be strictly increasing over surviving
  /// indices). The longest prefix of base positions whose columns are
  /// untouched is copied (patterns reused, numbers replayed under the pivot
  /// gate); Gilbert-Peierls runs only from the first touched column.
  /// `reused_columns` (optional) reports the prefix length. Returns false on
  /// a pivot-gate trip or singularity — fall back to a full factor().
  bool partial_factor(const Symbolic& base, const Pattern& base_pattern,
                      const std::vector<std::int32_t>& new_of_old, const Pattern& pattern,
                      const double* values, std::size_t* reused_columns, std::string* error);

  /// Adopts a shared Symbolic (e.g. the campaign's cached one) so the next
  /// call can be a refactor() without a private factor() first.
  void adopt(std::shared_ptr<const Symbolic> symbolic);

  /// Solves A x = b in place; `b` must hold n entries. Only valid after a
  /// successful factor()/refactor()/partial_factor(). `scratch` is the
  /// caller's (resized to n), so concurrent solves need one buffer each.
  [[gnu::aligned(64)]] void solve_in_place(double* b, std::vector<double>& scratch) const;

  [[nodiscard]] const std::shared_ptr<const Symbolic>& symbolic() const noexcept {
    return sym_;
  }
  [[nodiscard]] bool factored() const noexcept { return factored_; }
  [[nodiscard]] std::size_t lu_nnz() const noexcept { return sym_ ? sym_->lu_nnz() : 0; }

 private:
  bool gilbert_peierls(const Pattern& pattern, const double* values,
                       const std::vector<std::int32_t>& col_order, std::size_t start_pos,
                       Symbolic& sym, std::vector<std::int32_t>& pinv, double floor,
                       std::string* error);
  bool replay_prefix(const Symbolic& sym, const Pattern& pattern, const double* values,
                     std::size_t end_pos, double floor, std::string* error);
  void finish(const Pattern& pattern);

  std::shared_ptr<const Symbolic> sym_;
  std::vector<double> l_val_;
  std::vector<double> u_val_;
  std::vector<double> u_diag_;
  bool factored_ = false;

  // Scratch (sized n on demand, reused across calls).
  std::vector<double> x_;
  std::vector<std::int32_t> mark_;
  std::vector<std::int32_t> stack_;
  std::vector<std::int32_t> pstack_;
  std::vector<std::int32_t> topo_;
  std::vector<std::int32_t> rows_;
  std::int32_t pass_ = 0;
};

/// Registry handles cached once per process, same idiom as
/// mna::SolverMetrics: kernel-level sparse counters plus the last-write
/// structure gauges.
struct SparseMetrics {
  obs::Counter& factors;            ///< full symbolic+numeric factorisations
  obs::Counter& refactors;          ///< numeric-only replays over a frozen pattern
  obs::Counter& repivots;           ///< refactor pivot-gate trips healed by a fresh factor
  obs::Counter& partial_refactors;  ///< structural edits absorbed by partial_factor
  obs::Counter& partial_reused_columns;  ///< symbolic prefix columns reused across those
  obs::Counter& symbolic_reuse;     ///< factorisations that adopted a cached Symbolic
  obs::Counter& fallback_fill;      ///< dense because fill ratio exceeded the gate
  obs::Gauge& nnz;         ///< A nonzeros of the last factored pattern
  obs::Gauge& lu_nnz;      ///< L+U entries of the last factorisation
  obs::Gauge& fill_gauge;  ///< lu_nnz / nnz of the last factorisation

  static SparseMetrics& get() {
    auto& registry = obs::Registry::global();
    static SparseMetrics metrics{
        registry.counter("decisive_sparse_factors_total"),
        registry.counter("decisive_sparse_refactors_total"),
        registry.counter("decisive_sparse_repivots_total"),
        registry.counter("decisive_sparse_partial_refactors_total"),
        registry.counter("decisive_sparse_partial_reused_columns_total"),
        registry.counter("decisive_sparse_symbolic_reuse_total"),
        registry.counter("decisive_sparse_fallback_fill_total"),
        registry.gauge("decisive_sparse_nnz"),
        registry.gauge("decisive_sparse_lu_nnz"),
        registry.gauge("decisive_sparse_fill_ratio")};
    return metrics;
  }
};

}  // namespace decisive::sim::sparse
