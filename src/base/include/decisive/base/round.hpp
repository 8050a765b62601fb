// Rounding to the nearest integer, halves away from zero, without a libm
// call: the hot loops that key doubles onto integer grids round millions of
// values per call.
#pragma once

#include <cmath>
#include <cstdint>

namespace decisive {

/// std::llround(x), inline. Truncates x + copysign(0.49999999999999994, x),
/// the largest double below 0.5: the expansion GCC emits for llround when
/// errno need not be set. For every |x| < 2^63 the rounded sum truncates to
/// llround's result: a half k + 0.5 sums exactly to k + 1 − 2^-54, which
/// rounds up to k + 1 (for k = 0 by the tie to even), and every double below
/// the half sums to less than that, which rounds below k + 1. NaN, ±inf and
/// |x| ≥ 2^63, whose truncation is undefined, go to std::llround itself, so
/// the two agree on every double.
inline std::int64_t llround_inline(double x) noexcept {
  if (!(std::fabs(x) < 0x1p63)) return std::llround(x);
  return static_cast<std::int64_t>(x + std::copysign(0x1.fffffffffffffp-2, x));
}

}  // namespace decisive
