// The benchmark's metric definitions. Every workload reports every metric:
// an end-to-end metric is defined over the workload's own closed loop, and
// a per-layer metric is computed the same way on every workload (0 where
// the layer does no work). A per-layer metric whose source counter or reply
// field is gone is reported as -1 on its home workload and named on a
// "missing" line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct MetricInputs {
  const std::string& workload;
  const PhaseRecord& untraced;
  const PhaseRecord& traced;
  const std::vector<double>& setup_seconds;
  double peak_rss_mib = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// setup_s, peak_rss_mib, faults_per_s.p90, workflow_ms.p10 — tracing off.
std::vector<Metric> end_to_end_metrics(const MetricInputs& in);

/// The per-layer metrics of the traced run; appends the names of metrics
/// whose source is missing to `missing`.
std::vector<Metric> per_layer_metrics(const MetricInputs& in, std::vector<std::string>& missing);

}  // namespace perfbench
