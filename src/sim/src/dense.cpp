#include "decisive/sim/dense.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "decisive/base/error.hpp"

namespace decisive::sim::dense {

namespace {

/// Columns factored per panel before the deferred trailing update. Chosen so
/// a panel of typical MNA rows stays cache-resident; correctness does not
/// depend on the value.
constexpr std::size_t kPanelWidth = 32;

}  // namespace

void LuFactorization::factor(const char* singular_message) {
  const std::size_t n = n_;
  double* a = lu_.data();
  pivots_.resize(n);
  // One O(n^2) magnitude scan (negligible against the O(n^3) elimination)
  // anchors the singularity floor to the matrix's own scale.
  double matrix_max = 0.0;
  for (const double value : lu_) matrix_max = std::max(matrix_max, std::abs(value));
  const double floor = singular_floor(matrix_max);
  for (std::size_t k0 = 0; k0 < n; k0 += kPanelWidth) {
    const std::size_t k1 = std::min(k0 + kPanelWidth, n);
    // Panel factorisation: pivot, scale, and update panel columns only.
    // Column k has already received every pre-panel pivot's contribution
    // (deferred updates of earlier panels) and every in-panel pivot's
    // contribution (the loop below), so pivot selection sees the same
    // values as the unblocked elimination.
    for (std::size_t k = k0; k < k1; ++k) {
      std::size_t pivot = k;
      double best = std::abs(a[k * n + k]);
      for (std::size_t row = k + 1; row < n; ++row) {
        const double mag = std::abs(a[row * n + k]);
        if (mag > best) {
          best = mag;
          pivot = row;
        }
      }
      if (best < floor) throw SimulationError(singular_message);
      pivots_[k] = pivot;
      if (pivot != k) {
        std::swap_ranges(a + k * n, a + (k + 1) * n, a + pivot * n);
      }
      const double inv = 1.0 / a[k * n + k];
      const double* src = a + k * n;
      for (std::size_t row = k + 1; row < n; ++row) {
        double* dst = a + row * n;
        const double multiplier = dst[k] * inv;
        dst[k] = multiplier;
        if (multiplier == 0.0) continue;
        for (std::size_t j = k + 1; j < k1; ++j) dst[j] -= multiplier * src[j];
      }
    }
    // Deferred trailing update: each row absorbs the whole panel's
    // rank-(k1-k0) contribution in one cache-resident pass, applying its
    // stored multipliers in ascending pivot order — the same per-entry
    // arithmetic sequence as the unblocked elimination.
    for (std::size_t row = k0 + 1; row < n; ++row) {
      double* dst = a + row * n;
      const std::size_t jmax = std::min(row, k1);
      for (std::size_t j = k0; j < jmax; ++j) {
        const double multiplier = dst[j];
        if (multiplier == 0.0) continue;
        const double* src = a + j * n;
        for (std::size_t c = k1; c < n; ++c) dst[c] -= multiplier * src[c];
      }
    }
  }
}

void LuFactorization::solve_in_place(double* b) const {
  const std::size_t n = n_;
  const double* a = lu_.data();
  for (std::size_t k = 0; k < n; ++k) {
    if (pivots_[k] != k) std::swap(b[k], b[pivots_[k]]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double bk = b[k];
    for (std::size_t row = k + 1; row < n; ++row) {
      const double multiplier = a[row * n + k];
      if (multiplier == 0.0) continue;
      b[row] -= multiplier * bk;
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= a[i * n + k] * b[k];
    b[i] = sum / a[i * n + i];
  }
}

}  // namespace decisive::sim::dense
