#include <algorithm>
#include <string>

#include "decisive/base/error.hpp"
#include "decisive/oracles.hpp"
#include "decisive/sim/dense.hpp"

namespace decisive::oracle {

std::vector<double> solve_dense(const std::vector<std::vector<double>>& a,
                                std::vector<double> b) {
  const std::size_t n = b.size();
  if (a.size() != n) throw SimulationError("linear system dimension mismatch");
  for (std::size_t row = 0; row < n; ++row) {
    if (a[row].size() != n) {
      throw SimulationError("linear system row " + std::to_string(row) + " has " +
                            std::to_string(a[row].size()) + " columns, expected " +
                            std::to_string(n));
    }
  }
  sim::dense::LuFactorization lu;
  std::vector<double>& flat = lu.reset(n);
  for (std::size_t row = 0; row < n; ++row) {
    std::copy(a[row].begin(), a[row].end(),
              flat.begin() + static_cast<std::ptrdiff_t>(row * n));
  }
  lu.factor("singular system");
  lu.solve_in_place(b.data());
  return b;
}

}  // namespace decisive::oracle
