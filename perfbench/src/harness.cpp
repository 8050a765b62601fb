#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "decisive/base/json.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/trace.hpp"
#include "metrics.hpp"

namespace perfbench {

namespace obs = decisive::obs;
namespace json = decisive::json;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(rank));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * frac;
}

std::string digest(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(hash));
  return out;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::uint64_t SeededRandom::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeededRandom::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t SeededRandom::below(std::size_t bound) {
  return static_cast<std::size_t>(next() % bound);
}

namespace {

constexpr std::size_t kTraceEventBudget = 100'000;

Harness* g_harness = nullptr;
LayerSpan* g_open_span = nullptr;
bool g_span_log = false;

/// Flattens the registry's JSON exposition into counters and histogram
/// bucket counts, so two snapshots can be subtracted.
void snapshot_registry(std::map<std::string, double, std::less<>>& counters,
                       std::map<std::string, std::vector<double>, std::less<>>& buckets,
                       std::map<std::string, std::vector<double>, std::less<>>* bounds) {
  const json::Value doc = json::parse(obs::Registry::global().to_json());
  counters.clear();
  buckets.clear();
  if (const json::Value* c = doc.find("counters")) {
    for (const auto& [name, value] : c->as_object()) counters[name] = value.as_number();
  }
  if (const json::Value* h = doc.find("histograms")) {
    for (const auto& [name, value] : h->as_object()) {
      std::vector<double> counts;
      for (const auto& n : value.find("bucket_counts")->as_array()) {
        counts.push_back(n.as_number());
      }
      buckets[name] = std::move(counts);
      if (bounds != nullptr) {
        std::vector<double> b;
        for (const auto& n : value.find("bounds")->as_array()) b.push_back(n.as_number());
        (*bounds)[name] = std::move(b);
      }
    }
  }
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The high-water mark of this process image's resident set. getrusage's
/// ru_maxrss would not do: it survives execve, so it would report the
/// launching process when that one was bigger.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace

Harness::Harness(RunOptions options) : options_(std::move(options)) {
  if (g_harness != nullptr) throw std::logic_error("only one harness may exist");
  g_harness = this;
}

Harness::~Harness() { g_harness = nullptr; }

std::vector<Phase> Harness::phases() const {
  if (options_.trace) return {Phase::Untraced, Phase::Traced};
  return {Phase::Untraced};
}

void Harness::begin_phase(Phase phase) {
  if (phase_.has_value()) throw std::logic_error("measurement phase already open");
  phase_ = phase;
  if (phase == Phase::Traced) {
    snapshot_registry(traced_.counters_before, traced_.hist_before, &traced_.hist_bounds);
    obs::TraceCollector::global().enable();
    g_span_log = true;
  }
  phase_start_ = Clock::now();
}

void Harness::end_phase() {
  if (!phase_.has_value()) throw std::logic_error("no measurement phase open");
  if (*phase_ == Phase::Traced) {
    g_span_log = false;
    obs::TraceCollector::global().disable();
    snapshot_registry(traced_.counters_after, traced_.hist_after, nullptr);
    trace_json_ = obs::TraceCollector::global().to_chrome_json();
  }
  phase_.reset();
}

bool Harness::keep_going(std::size_t min_iterations) const {
  const double budget = options_.trace ? options_.seconds / 2.0 : options_.seconds;
  const PhaseRecord& record = *phase_ == Phase::Traced ? traced_ : untraced_;
  if (record.iteration_seconds.size() < min_iterations) return true;
  // A traced phase also ends once the Chrome trace is big enough to
  // validate comfortably in memory.
  if (*phase_ == Phase::Traced &&
      obs::TraceCollector::global().event_count() >= kTraceEventBudget) {
    return false;
  }
  return seconds_since(phase_start_) < budget;
}

PhaseRecord& Harness::current() {
  if (!phase_.has_value()) throw std::logic_error("no measurement phase open");
  return *phase_ == Phase::Traced ? traced_ : untraced_;
}

void Harness::record_iteration(double seconds, std::size_t rows) {
  PhaseRecord& record = current();
  record.iteration_seconds.push_back(seconds);
  record.iteration_rows.push_back(static_cast<double>(rows));
}

void Harness::record_sample(std::string_view series, double ms) {
  PhaseRecord& record = current();
  auto it = record.series.find(series);
  if (it == record.series.end()) it = record.series.emplace(std::string(series), std::vector<double>{}).first;
  it->second.push_back(ms);
}

void Harness::record_span(const char* name, double self_seconds) {
  if (!phase_.has_value()) return;  // spans of set-up outside a phase are not metrics
  PhaseRecord& record = current();
  auto it = record.span_self_seconds.find(std::string_view(name));
  if (it == record.span_self_seconds.end()) {
    it = record.span_self_seconds.emplace(name, std::vector<double>{}).first;
  }
  it->second.push_back(self_seconds);
}

void Harness::count_operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Harness::fail_check(const std::string& what) { check_failures_.push_back(what); }

void Harness::expect_check_fires(bool fired, const std::string& what) {
  if (!fired) check_failures_.push_back("check did not fire on corrupted output: " + what);
}

void Harness::export_trace() {
  if (trace_json_.empty()) return;
  const std::string problem = obs::validate_chrome_trace(trace_json_);
  if (!problem.empty()) fail_check("Chrome trace invalid: " + problem);
  const auto path = options_.work / ("trace_" + options_.workload + ".json");
  std::ofstream out(path, std::ios::binary);
  out << trace_json_;
  if (!out) fail_check("cannot write " + path.string());
  trace_json_.clear();
}

int Harness::finish() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("{\"env\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"nproc\": %ld, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
              "\"source\": %s, \"threads\": 1}}\n",
              json_string(options_.workload).c_str(),
              static_cast<unsigned long long>(options_.seed),
              format_number(options_.seconds).c_str(), options_.trace ? 1 : 0, nproc,
              json_string(cpu_model()).c_str(), json_string(__VERSION__).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(std::getenv("PERFBENCH_SOURCE") != nullptr
                              ? std::getenv("PERFBENCH_SOURCE")
                              : "unknown")
                  .c_str());

  MetricInputs inputs{options_.workload, untraced_, traced_, setup_seconds_,
                      peak_rss_mib(),    attempted_, failed_};
  std::vector<Metric> metrics;
  std::vector<std::string> missing;
  if (options_.trace) {
    metrics = per_layer_metrics(inputs, missing);
  } else {
    metrics = end_to_end_metrics(inputs);
  }
  if (!missing.empty()) {
    std::string names;
    for (const auto& name : missing) names += (names.empty() ? "" : ", ") + name;
    std::printf("missing per-layer sources (reported as -1): %s\n", names.c_str());
  }
  for (const auto& failure : check_failures_) std::printf("CHECK FAILED: %s\n", failure.c_str());

  const bool correct = check_failures_.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " + format_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

LayerSpan::LayerSpan(const char* name) : name_(name), span_(name), logged_(g_span_log) {
  if (logged_) {
    parent_ = g_open_span;
    g_open_span = this;
    start_ = Clock::now();
  }
}

LayerSpan::~LayerSpan() {
  if (!logged_) return;
  const double total = seconds_since(start_);
  g_open_span = parent_;
  if (parent_ != nullptr) parent_->child_seconds_ += total;
  if (g_harness != nullptr) g_harness->record_span(name_, total - child_seconds_);
}

}  // namespace perfbench
