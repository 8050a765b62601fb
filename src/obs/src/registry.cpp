#include "decisive/obs/registry.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/obs/shard.hpp"

namespace decisive::obs {

namespace {

std::atomic<int> g_shard_index{0};
std::atomic<int> g_shard_count{1};

}  // namespace

void set_shard_identity(ShardIdentity identity) noexcept {
  g_shard_index.store(identity.index, std::memory_order_relaxed);
  g_shard_count.store(identity.count, std::memory_order_relaxed);
}

ShardIdentity shard_identity() noexcept {
  return ShardIdentity{g_shard_index.load(std::memory_order_relaxed),
                       g_shard_count.load(std::memory_order_relaxed)};
}

namespace {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

std::string format_count(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%" PRIu64, value);
  return buffer;
}

}  // namespace

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

void Gauge::set(double value) noexcept {
  value_.store(value, std::memory_order_relaxed);
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  updated_unix_ms_.store(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(now).count()),
      std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw AnalysisError("histogram bucket bounds must be strictly increasing");
    }
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::percentile(double p) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = p * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= rank && counts[i] > 0) {
      // Overflow bucket has no upper bound; report the largest finite one.
      return i < bounds_.size() ? bounds_[i] : bounds_.empty() ? 0.0 : bounds_.back();
    }
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::reset() noexcept {
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::latency_buckets() {
  // Log-linear: each octave 2^e µs .. 2^(e+1) µs split into four equal
  // steps (1, 1.25, 1.5, 1.75, 2, 2.5, 3, 3.5, 4, 5, ... µs), so any
  // percentile reads within 25 % of the observation; closed at 30 s.
  std::vector<double> bounds;
  for (double octave = 1.0;; octave *= 2.0) {
    for (int step = 0; step < 4; ++step) {
      const double micros = octave * (1.0 + step / 4.0);
      if (micros >= 30e6) {
        bounds.push_back(30.0);
        return bounds;
      }
      bounds.push_back(micros * 1e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  if (out.front() >= '0' && out.front() <= '9') out.insert(out.begin(), '_');
  return out;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[sanitize_metric_name(name)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[sanitize_metric_name(name)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[sanitize_metric_name(name)];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::string Registry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + format_count(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + format_double(gauge->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out += "# TYPE " + name + " histogram\n";
    const auto& bounds = histogram->bounds();
    const auto counts = histogram->bucket_counts();
    std::uint64_t cumulative = 0;
    for (size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      out += name + "_bucket{le=\"" + format_double(bounds[i]) + "\"} " +
             format_count(cumulative) + "\n";
    }
    cumulative += counts[bounds.size()];
    out += name + "_bucket{le=\"+Inf\"} " + format_count(cumulative) + "\n";
    out += name + "_sum " + format_double(histogram->sum()) + "\n";
    out += name + "_count " + format_count(histogram->count()) + "\n";
  }
  return out;
}

std::string Registry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  json::Object counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] = json::Value(static_cast<double>(counter->value()));
  }
  json::Object gauges;
  for (const auto& [name, gauge] : gauges_) {
    json::Object g;
    g["value"] = json::Value(gauge->value());
    g["updated_unix_ms"] = json::Value(static_cast<double>(gauge->updated_unix_ms()));
    gauges[name] = json::Value(std::move(g));
  }
  json::Object histograms;
  for (const auto& [name, histogram] : histograms_) {
    json::Object h;
    h["count"] = json::Value(static_cast<double>(histogram->count()));
    h["sum"] = json::Value(histogram->sum());
    h["p50"] = json::Value(histogram->percentile(0.50));
    h["p90"] = json::Value(histogram->percentile(0.90));
    h["p99"] = json::Value(histogram->percentile(0.99));
    // Bucket-level data: what makes per-shard snapshots mergeable
    // (bucket-wise addition) instead of merely human-readable.
    json::Array bounds;
    for (const double b : histogram->bounds()) bounds.emplace_back(b);
    json::Array buckets;
    for (const std::uint64_t c : histogram->bucket_counts()) {
      buckets.emplace_back(static_cast<double>(c));
    }
    h["bounds"] = json::Value(std::move(bounds));
    h["bucket_counts"] = json::Value(std::move(buckets));
    histograms[name] = json::Value(std::move(h));
  }
  json::Object root;
  root["counters"] = json::Value(std::move(counters));
  root["gauges"] = json::Value(std::move(gauges));
  root["histograms"] = json::Value(std::move(histograms));
  return json::write(json::Value(std::move(root)));
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace decisive::obs
