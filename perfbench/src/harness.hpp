// The measuring harness shared by the four workloads of the DECISIVE
// benchmark: run options, measurement phases, benchmark-side layer spans,
// registry counter deltas, and the result line main() prints.
//
// A run has up to two measurement phases. The untraced phase gives every
// end-to-end metric. With --trace 1 it is followed by a traced phase of the
// same length: obs::TraceCollector is enabled, every benchmark-side
// LayerSpan is logged, and the registry is snapshotted at both ends so the
// per-layer metrics read counter deltas of exactly that phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "decisive/obs/span.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::filesystem::path assets;  ///< the repository's assets/ directory
  std::filesystem::path data;    ///< the benchmark's recorded digests and golden files
  std::filesystem::path work;    ///< scratch directory for files a workload writes
};

/// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The whole content of a file; throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// FNV-1a 64-bit digest, rendered as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view bytes);

/// SplitMix64: a fully specified generator, so seeded inputs are identical
/// on every standard library.
class SeededRandom {
 public:
  explicit SeededRandom(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double unit();
  /// Uniform integer in [0, bound).
  std::size_t below(std::size_t bound);

 private:
  std::uint64_t state_;
};

enum class Phase { Untraced, Traced };

/// What one measurement phase recorded.
struct PhaseRecord {
  std::vector<double> iteration_seconds;
  std::vector<double> iteration_rows;
  /// Named sample series (e.g. client-timed request classes), in ms.
  std::map<std::string, std::vector<double>, std::less<>> series;
  /// Self time, in seconds, of every LayerSpan closed during the phase.
  std::map<std::string, std::vector<double>, std::less<>> span_self_seconds;
  /// Registry counters and histogram buckets at the phase ends.
  std::map<std::string, double, std::less<>> counters_before;
  std::map<std::string, double, std::less<>> counters_after;
  std::map<std::string, std::vector<double>, std::less<>> hist_before;
  std::map<std::string, std::vector<double>, std::less<>> hist_after;
  std::map<std::string, std::vector<double>, std::less<>> hist_bounds;
};

/// The harness of one run. It registers itself as the one LayerSpans report
/// to, so only one may exist at a time.
class Harness {
 public:
  explicit Harness(RunOptions options);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] const RunOptions& options() const noexcept { return options_; }

  /// How many times the workload sets itself up; setup_s is the median.
  void add_setup_seconds(double seconds) { setup_seconds_.push_back(seconds); }

  /// Starts a measurement phase lasting `options().seconds` (halved when
  /// the run also has a traced phase).
  void begin_phase(Phase phase);
  void end_phase();
  [[nodiscard]] bool in_phase() const noexcept { return phase_.has_value(); }
  /// True while the current phase has recorded fewer than `min_iterations`
  /// iterations, or has time left (and, when traced, its Chrome trace is
  /// within the event budget).
  [[nodiscard]] bool keep_going(std::size_t min_iterations = 5) const;
  /// The phases this run measures, in order.
  [[nodiscard]] std::vector<Phase> phases() const;

  /// One closed-loop iteration of the workload: its wall time and the FMEDA
  /// rows its analyses delivered.
  void record_iteration(double seconds, std::size_t rows);
  void record_sample(std::string_view series, double ms);
  void record_span(const char* name, double self_seconds);

  /// Operations attempted and failed (exceptions, error replies, crashed or
  /// budget-exhausted campaign rows).
  void count_operations(std::uint64_t attempted, std::uint64_t failed = 0);

  /// Records a failed output check; the run reports correct=false.
  void fail_check(const std::string& what);
  /// Every check must also fire on a deliberately corrupted copy of the
  /// output; `fired` is the check's verdict on that copy.
  void expect_check_fires(bool fired, const std::string& what);

  /// Writes the Chrome trace of the traced phase and validates it.
  void export_trace();

  /// Prints the environment stamp and the final JSON result line.
  int finish();

 private:
  [[nodiscard]] PhaseRecord& current();

  RunOptions options_;
  std::vector<double> setup_seconds_;
  std::optional<Phase> phase_;
  Clock::time_point phase_start_{};
  PhaseRecord untraced_;
  PhaseRecord traced_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> check_failures_;
  std::string trace_json_;
};

/// A benchmark-side span around one call into a layer. It opens an
/// obs::Span, so the call shows in the Chrome trace, and, during a traced
/// phase, logs its self time (its duration minus that of nested
/// LayerSpans). Outside a traced phase it costs what an untraced obs::Span
/// costs. `name` must be a string literal.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  const char* name_;
  decisive::obs::Span span_;
  bool logged_;
  Clock::time_point start_{};
  double child_seconds_ = 0.0;
  LayerSpan* parent_ = nullptr;
};

/// Times `fn` as one LayerSpan named `name` and returns its result.
template <typename Fn>
auto in_span(const char* name, Fn&& fn) {
  LayerSpan span(name);
  return fn();
}

}  // namespace perfbench
