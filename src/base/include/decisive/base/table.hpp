// Fixed-width text-table rendering, used by the `reproduce` tool to print the
// paper's tables and by examples for human-readable FMEA output.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace decisive {

/// Accumulates rows and renders them as an aligned ASCII table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a data row; short rows are padded with empty cells.
  void add_row(std::vector<std::string> row);

  /// Renders with a header rule, e.g.
  ///   Component | FIT | Safety_Related
  ///   ----------+-----+---------------
  ///   D1        | 10  | Yes
  [[nodiscard]] std::string render() const;

  [[nodiscard]] size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Deterministic PRNG (splitmix64 + xorshift) for the analyst model and for
/// synthetic system generation; std::mt19937 is avoided so that sequences are
/// reproducible across standard-library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) noexcept;

  /// Uniform in [0, 2^64).
  uint64_t next() noexcept;

  /// Uniform real in [0, 1).
  double uniform() noexcept;

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n); n must be > 0.
  uint64_t below(uint64_t n) noexcept;

  /// True with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

 private:
  uint64_t state_;
};

}  // namespace decisive
