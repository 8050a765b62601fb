// Shared pieces of the `reproduce` tool: the gate check, the two timers and
// the sections main() runs in order.
#pragma once

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

namespace reproduce {

/// A gate that did not hold. main() catches it per section, counts it and
/// goes on with the next section.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void expect(bool condition, const std::string& what) {
  if (!condition) throw GateFailure(what);
}

/// Wall time of one call, in seconds.
template <class Fn>
double seconds_of(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The one repeat policy: an untimed warm-up call, then the median of at
/// least three timed calls, repeated while they add up to under 20 ms (at
/// most 101 calls), in seconds.
template <class Fn>
double median_seconds(Fn&& fn) {
  fn();
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 3 || (total < 0.02 && samples.size() < 101)) {
    samples.push_back(seconds_of(fn));
    total += samples.back();
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  return samples[samples.size() / 2];
}

// Paper tables (paper_tables.cpp).
void table1_pll();
void table2_reliability();
void table3_sm_model();
void table4_fmeda();
void table5_efficiency();
void table6_scalability();
void rq1_correctness();
void rq2_coverage();
void ablation_threshold();

// Engines against their reference procedures (engine_tables.cpp).
void ablation_search();
void ext_fta();
void graph_fmea();
void campaign();

}  // namespace reproduce
