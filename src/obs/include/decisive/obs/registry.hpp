// Unified instrumentation registry: named counters, gauges and fixed-bucket
// histograms shared by every analysis engine.
//
// Design rules (DESIGN.md §10):
//  - always-on: the hot-path cost of an un-traced metric update is a couple
//    of relaxed atomic operations — engines never check a feature flag;
//  - registration is idempotent and thread-safe, and returned references
//    stay valid for the registry's lifetime, so call sites cache them in
//    function-local statics;
//  - metrics never feed analysis results. FMEDA/CSV artefacts must be
//    byte-identical whether or not anybody reads the registry (enforced by
//    test), so a metric is strictly write-only from the engines' side.
//
// Exposition: to_prometheus() renders the Prometheus text format (served by
// the `same session` `metrics` command and the one-shot `--metrics` dump);
// to_json() renders the same data as a JSON object (the `--metrics-json`
// shard snapshots).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace decisive::obs {

/// Monotonically increasing event count. All operations are relaxed atomics.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value. Every set() also stamps the wall
/// clock, so cross-shard snapshot merging can resolve "last write wins"
/// between processes (merge_registry_snapshots); a never-set gauge carries
/// timestamp 0.
class Gauge {
 public:
  void set(double value) noexcept;
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  /// Wall-clock milliseconds since the Unix epoch of the last set(); 0 when
  /// the gauge has never been written.
  [[nodiscard]] std::uint64_t updated_unix_ms() const noexcept {
    return updated_unix_ms_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    value_.store(0.0, std::memory_order_relaxed);
    updated_unix_ms_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<std::uint64_t> updated_unix_ms_{0};
};

/// Fixed-bucket histogram: strictly increasing upper bounds plus an overflow
/// bucket. observe() is lock-free (one relaxed fetch_add per observation plus
/// a CAS loop for the sum); readers see a consistent-enough snapshot for
/// monitoring purposes.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1, the
  /// last entry being the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  /// Bucket-resolution percentile estimate (upper bound of the bucket that
  /// contains the p-quantile observation); 0 when empty. p in [0, 1].
  [[nodiscard]] double percentile(double p) const;
  void reset() noexcept;

  /// Default latency buckets, 1 µs … 30 s, log-linear: four equal steps
  /// per octave (1, 1.25, 1.5, 1.75, 2, 2.5, ... µs).
  [[nodiscard]] static std::vector<double> latency_buckets();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Canonicalises a metric name to the Prometheus-safe alphabet
/// [a-zA-Z0-9_:]: every other byte becomes '_', a leading digit gains a '_'
/// prefix and an empty name becomes "_". Registration applies this, so a
/// hostile name (quotes, newlines) can never corrupt the text exposition or
/// a JSON snapshot.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Thread-safe name → metric registry. Instantiable for tests; production
/// code uses the process-wide global() instance.
class Registry {
 public:
  static Registry& global();

  /// Idempotent: returns the existing metric when `name` is already
  /// registered. References stay valid for the registry's lifetime. Names
  /// are passed through sanitize_metric_name(), so two spellings that
  /// sanitize identically alias the same metric.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is only consulted on first registration.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = Histogram::latency_buckets());

  /// Prometheus text exposition (metrics sorted by name; deterministic for a
  /// fixed set of values).
  [[nodiscard]] std::string to_prometheus() const;
  /// The same data as a JSON object: {"counters": {...}, "gauges":
  /// {name: {value, updated_unix_ms}}, "histograms": {name: {count, sum,
  /// p50, p90, p99, bounds, bucket_counts}}}. Bucket-level data makes the
  /// snapshot mergeable across shards (merge_registry_snapshots).
  [[nodiscard]] std::string to_json() const;

  /// Zeroes every registered metric (registrations survive), so a snapshot
  /// covers one measured section.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace decisive::obs
