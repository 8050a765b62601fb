// Dense linear algebra kernel shared by every MNA solve path.
//
// One blocked, partial-pivot LU factorisation over flat row-major storage.
// The factorisation keeps its storage across calls, so a Newton loop or a
// fault campaign re-factors without reallocating, and a factored system can
// be re-solved against many right-hand sides (the campaign's low-rank
// updates solve against the nominal factorisation).
//
// Numerical contract: the blocked elimination performs bit-identical
// arithmetic to the classic unblocked row-by-row elimination. The panel
// restricts immediate updates to its own columns; the deferred trailing
// update applies each row's multipliers in ascending pivot order, which is
// exactly the per-entry operation sequence of the unblocked loop. Pivot
// selection (first strictly-largest magnitude, diagonal wins ties), the
// magnitude-relative singularity floor, and the `multiplier == 0` skip
// (which avoids 0 * Inf = NaN on rows carrying infinities from pathological
// inputs) are all preserved, so refactoring the solver onto this kernel
// changed no output byte.
#pragma once

#include <cstddef>
#include <vector>

namespace decisive::sim::dense {

/// Absolute pivot floor: catches the exactly-zero pivot of an empty or
/// rank-deficient column even when the matrix magnitude is itself zero.
inline constexpr double kPivotFloor = 1e-30;

/// Relative pivot floor, shared by the dense and sparse kernels. The old
/// absolute 1e-30 floor misclassified well-scaled *tiny* systems (every
/// entry ~1e-32, condition number ~1) as structurally singular; scaling the
/// floor to the matrix's largest magnitude keeps the singularity test about
/// *structure* (floating node, short loop, contradictory sources) instead of
/// units. 1e-20 leaves the 1e-12 gmin pivots of a default-options MNA system
/// (matrix max ~1e3 from the milliohm closed-switch stamps) eight orders of
/// magnitude above the floor.
inline constexpr double kPivotRelativeFloor = 1e-20;

/// The singularity floor for a matrix whose largest entry magnitude is
/// `matrix_max`: relative when the matrix has any magnitude, the absolute
/// floor otherwise (so the all-zero matrix still reads as singular).
[[nodiscard]] inline double singular_floor(double matrix_max) noexcept {
  return matrix_max > 0.0 ? kPivotRelativeFloor * matrix_max : kPivotFloor;
}

/// An LU factorisation (PA = LU, partial pivoting) with owned, reusable
/// storage. Assemble the matrix directly into `reset(n)`'s buffer, call
/// `factor()`, then `solve_in_place()` any number of right-hand sides.
/// Both are aligned to a cache line so their speed does not depend on where
/// the linker puts them.
class LuFactorization {
 public:
  /// Prepares (and zero-fills) the internal n x n row-major buffer for
  /// assembly. Capacity is kept across calls, so a loop that re-factors the
  /// same-sized system allocates only once.
  std::vector<double>& reset(std::size_t n) {
    n_ = n;
    lu_.assign(n * n, 0.0);
    return lu_;
  }

  /// Factors the assembled buffer in place. Throws SimulationError with
  /// `singular_message` when a pivot column is numerically empty.
  [[gnu::aligned(64)]] void factor(const char* singular_message);

  /// Solves (LU) x = P b in place; `b` must hold n entries. Applying the
  /// row interchanges up front and then substituting is operation-for-
  /// operation identical to interleaving swaps with the elimination.
  [[gnu::aligned(64)]] void solve_in_place(double* b) const;

 private:
  std::vector<double> lu_;  ///< row-major n*n; after factor(): L below, U on and above
  std::vector<std::size_t> pivots_;
  std::size_t n_ = 0;
};

}  // namespace decisive::sim::dense
