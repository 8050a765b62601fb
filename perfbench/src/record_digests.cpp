// Records the rail_campaign reference digests: for every seed class in
// [first, last], the digest of the dense one-solve-per-fault campaign's
// output (batch and sparse tiers off). The benchmark compares each run
// against these, so it never has to run the ~1 s dense reference itself.
//
//   perfbench_record_digests <first> <last> >> perfbench/data/rail_digests.txt
#include <cstdio>
#include <string>

#include "decisive/base/csv.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "harness.hpp"
#include "rail.hpp"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_record_digests <first-class> <last-class>\n");
    return 2;
  }
  const std::uint64_t first = std::stoull(argv[1]);
  const std::uint64_t last = std::stoull(argv[2]);
  decisive::core::CircuitFmeaOptions dense;
  dense.batch = false;
  dense.sparse = false;
  dense.solver.sparse = false;
  const auto reliability = perfbench::rail_reliability();
  for (std::uint64_t seed_class = first; seed_class <= last; ++seed_class) {
    const auto built = perfbench::make_rail(seed_class);
    const auto result = decisive::core::analyze_circuit(built, reliability, nullptr, dense);
    const std::string output =
        perfbench::rail_output(decisive::write_csv(result.to_csv()), result.warnings);
    std::printf("%llu %s\n", static_cast<unsigned long long>(seed_class),
                perfbench::digest(output).c_str());
    std::fflush(stdout);
  }
  return 0;
}
