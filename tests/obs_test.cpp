// The instrumentation layer (src/obs/): registry semantics, Prometheus and
// JSON exposition, the leveled logger, RAII spans, and the Chrome trace
// collector — including the two properties the design leans on:
//  - traces from a multi-threaded campaign are balanced per thread, and
//  - analysis artefacts are byte-identical with tracing on or off.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/obs/log.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"
#include "decisive/obs/trace.hpp"
#include "decisive/sim/builder.hpp"

using namespace decisive;

namespace {

/// A small multi-fault circuit (same shape as the `reproduce` tool's campaign rail): every
/// resistor and diode is an FMEA candidate, so a campaign over it exercises
/// the worker pool and the solver from several threads.
sim::BuiltCircuit make_rail(int stages) {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int rail = c.node("rail");
  c.add_vsource("V1", vin, 0, 12.0);
  c.add_current_sensor("CS", vin, rail);
  built.observables.push_back("CS");
  for (int s = 0; s < stages; ++s) {
    const std::string id = std::to_string(s);
    const int tap = c.node("tap" + id);
    c.add_resistor("R" + id, rail, tap, 100.0 + s);
    c.add_diode("D" + id, tap, 0);
    c.add_resistor("RL" + id, tap, 0, 1000.0);
    c.add_voltage_sensor("VS" + id, tap, 0);
    built.observables.push_back("VS" + id);
    built.components.push_back({"R" + id, "Resistor", "R" + id});
    built.components.push_back({"D" + id, "Diode", "D" + id});
  }
  return built;
}

core::ReliabilityModel make_reliability() {
  core::ReliabilityModel reliability;
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
  return reliability;
}

std::string run_campaign_csv(int jobs) {
  core::CircuitFmeaOptions options;
  options.jobs = jobs;
  const auto result =
      core::analyze_circuit(make_rail(6), make_reliability(), nullptr, options);
  return write_csv(result.to_csv());
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, LookupIsIdempotentWithStableReferences) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x_total");
  a.add(2);
  obs::Counter& b = registry.counter("x_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 2u);

  obs::Histogram& h = registry.histogram("h_seconds", {1.0, 2.0});
  // Bounds are only consulted on first registration.
  obs::Histogram& h2 = registry.histogram("h_seconds", {9.0});
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(ObsRegistry, HistogramBucketsAndPercentiles) {
  obs::Histogram h({0.1, 1.0, 10.0});
  h.observe(0.05);   // bucket le=0.1
  h.observe(0.5);    // bucket le=1
  h.observe(0.5);    // bucket le=1
  h.observe(100.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 101.05, 1e-9);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 2, 0, 1}));
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.0);
  // The overflow bucket has no upper bound; the estimate saturates at the
  // largest finite bound.
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(ObsRegistry, HistogramRejectsNonIncreasingBounds) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), AnalysisError);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), AnalysisError);
}

TEST(ObsRegistry, PrometheusExposition) {
  obs::Registry registry;
  registry.counter("t_total").add(3);
  registry.gauge("g").set(2.5);
  obs::Histogram& h = registry.histogram("h_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE t_total counter\nt_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE g gauge\ng 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE h_seconds histogram\n"), std::string::npos);
  // Bucket counts are cumulative, closed by the +Inf bucket.
  EXPECT_NE(text.find("h_seconds_bucket{le=\"0.1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("h_seconds_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("h_seconds_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("h_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("h_seconds_sum 5.55\n"), std::string::npos);
}

TEST(ObsRegistry, JsonSnapshotParsesAndCarriesPercentiles) {
  obs::Registry registry;
  registry.counter("c_total").add(7);
  obs::Histogram& h = registry.histogram("h_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);

  const json::Value doc = json::parse(registry.to_json());
  ASSERT_TRUE(doc.is_object());
  const json::Object& root = doc.as_object();
  EXPECT_DOUBLE_EQ(root.at("counters").as_object().at("c_total").as_number(), 7.0);
  const json::Object& hist = root.at("histograms").as_object().at("h_seconds").as_object();
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("p50").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("p99").as_number(), 2.0);
}

TEST(ObsRegistry, SanitizesHostileMetricNames) {
  // A quote/newline name must not be able to corrupt the Prometheus text or
  // a JSON snapshot: registration canonicalises to [a-zA-Z0-9_:].
  EXPECT_EQ(obs::sanitize_metric_name("ok_name:v1"), "ok_name:v1");
  EXPECT_EQ(obs::sanitize_metric_name("evil\"} 999\ninjected 1"),
            "evil___999_injected_1");
  EXPECT_EQ(obs::sanitize_metric_name("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(obs::sanitize_metric_name(""), "_");

  obs::Registry registry;
  registry.counter("evil\"}\ntotal").add(1);
  const std::string text = registry.to_prometheus();
  EXPECT_EQ(text.find('"'), std::string::npos);
  EXPECT_NE(text.find("evil___total 1\n"), std::string::npos);
  // The JSON exposition stays parseable with the hostile name registered.
  const json::Value doc = json::parse(registry.to_json());
  EXPECT_DOUBLE_EQ(doc.as_object().at("counters").as_object().at("evil___total").as_number(),
                   1.0);
  // Two spellings that sanitize identically alias the same metric.
  EXPECT_EQ(&registry.counter("evil\"}\ntotal"), &registry.counter("evil___total"));
}

TEST(ObsRegistry, JsonSnapshotCarriesBucketLevelData) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("h_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  registry.gauge("g").set(4.0);

  const json::Value doc = json::parse(registry.to_json());
  const json::Object& root = doc.as_object();
  const json::Object& hist = root.at("histograms").as_object().at("h_seconds").as_object();
  const json::Array& bounds = hist.at("bounds").as_array();
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(bounds[1].as_number(), 2.0);
  const json::Array& buckets = hist.at("bucket_counts").as_array();
  ASSERT_EQ(buckets.size(), 3u);  // two finite buckets + overflow
  EXPECT_DOUBLE_EQ(buckets[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[2].as_number(), 1.0);
  // Gauges carry their last-write wall-clock stamp for cross-shard merging.
  const json::Object& gauge = root.at("gauges").as_object().at("g").as_object();
  EXPECT_DOUBLE_EQ(gauge.at("value").as_number(), 4.0);
  EXPECT_GT(gauge.at("updated_unix_ms").as_number(), 0.0);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("c_total");
  c.add(5);
  registry.gauge("g").set(1.0);
  registry.histogram("h_seconds").observe(0.1);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&registry.counter("c_total"), &c);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 0.0);
  EXPECT_EQ(registry.histogram("h_seconds").count(), 0u);
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

TEST(ObsLog, ParsesLevelsWithFallback) {
  EXPECT_EQ(obs::parse_log_level("debug", obs::LogLevel::Warn), obs::LogLevel::Debug);
  EXPECT_EQ(obs::parse_log_level("ERROR", obs::LogLevel::Warn), obs::LogLevel::Error);
  EXPECT_EQ(obs::parse_log_level("off", obs::LogLevel::Warn), obs::LogLevel::Off);
  EXPECT_EQ(obs::parse_log_level("bogus", obs::LogLevel::Info), obs::LogLevel::Info);
  EXPECT_EQ(obs::parse_log_level("", obs::LogLevel::Warn), obs::LogLevel::Warn);
}

TEST(ObsLog, ThresholdGatesLevels) {
  const obs::LogLevel before = obs::log_threshold();
  obs::set_log_threshold(obs::LogLevel::Warn);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::Debug));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::Info));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::Warn));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::Error));
  obs::set_log_threshold(obs::LogLevel::Off);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::Error));
  obs::set_log_threshold(before);
}

// ---------------------------------------------------------------------------
// Spans and the trace collector
// ---------------------------------------------------------------------------

TEST(ObsSpan, FeedsLatencyHistogram) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("span_seconds");
  {
    obs::Span span("test.work", &h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ObsTrace, DisabledCollectorRecordsNothing) {
  auto& collector = obs::TraceCollector::global();
  collector.disable();
  const std::size_t before = collector.event_count();
  {
    obs::Span span("test.untraced");
  }
  EXPECT_EQ(collector.event_count(), before);
}

TEST(ObsTrace, SingleThreadSpansNestAndBalance) {
  auto& collector = obs::TraceCollector::global();
  collector.enable();
  {
    obs::Span outer("test.outer");
    obs::Span inner("test.inner");
  }
  collector.disable();
  EXPECT_EQ(collector.event_count(), 4u);
  const std::string trace = collector.to_chrome_json();
  EXPECT_EQ(obs::validate_chrome_trace(trace), "");
  EXPECT_NE(trace.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"test.inner\""), std::string::npos);
}

TEST(ObsTrace, EnableStartsANewTrace) {
  auto& collector = obs::TraceCollector::global();
  collector.enable();
  {
    obs::Span span("test.first");
  }
  collector.enable();  // drops the previous events
  {
    obs::Span span("test.second");
  }
  collector.disable();
  EXPECT_EQ(collector.event_count(), 2u);
  EXPECT_EQ(collector.to_chrome_json().find("test.first"), std::string::npos);
}

TEST(ObsTrace, MultiThreadedCampaignTraceIsBalanced) {
  auto& collector = obs::TraceCollector::global();
  collector.enable();
  (void)run_campaign_csv(/*jobs=*/4);
  collector.disable();
  const std::string trace = collector.to_chrome_json();
  EXPECT_EQ(obs::validate_chrome_trace(trace), "");
  EXPECT_NE(trace.find("\"name\":\"campaign.task\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"solver.dc\""), std::string::npos);
  // Worker threads show up as distinct timelines.
  EXPECT_NE(trace.find("\"tid\":2"), std::string::npos);
}

TEST(ObsTrace, ArtefactsAreByteIdenticalWithTracingOnOrOff) {
  auto& collector = obs::TraceCollector::global();
  collector.disable();
  const std::string untraced_serial = run_campaign_csv(1);
  const std::string untraced_parallel = run_campaign_csv(4);

  collector.enable();
  const std::string traced_serial = run_campaign_csv(1);
  const std::string traced_parallel = run_campaign_csv(4);
  collector.disable();

  EXPECT_EQ(untraced_serial, traced_serial);
  EXPECT_EQ(untraced_parallel, traced_parallel);
  EXPECT_EQ(untraced_serial, untraced_parallel);
}

// ---------------------------------------------------------------------------
// The trace validator itself
// ---------------------------------------------------------------------------

TEST(ObsTraceValidator, RejectsMalformedDocuments) {
  EXPECT_NE(obs::validate_chrome_trace("not json"), "");
  EXPECT_NE(obs::validate_chrome_trace("{}"), "");
  EXPECT_NE(obs::validate_chrome_trace("{\"traceEvents\": 3}"), "");
}

TEST(ObsTraceValidator, AcceptsAnEmptyTrace) {
  EXPECT_EQ(obs::validate_chrome_trace("{\"traceEvents\":[]}"), "");
}

TEST(ObsTraceValidator, RejectsUnbalancedEvents) {
  const char* unclosed =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1}"
      "]}";
  EXPECT_NE(obs::validate_chrome_trace(unclosed), "");

  const char* crossed =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1},"
      "{\"name\":\"b\",\"ph\":\"B\",\"ts\":2,\"pid\":1,\"tid\":1},"
      "{\"name\":\"a\",\"ph\":\"E\",\"ts\":3,\"pid\":1,\"tid\":1},"
      "{\"name\":\"b\",\"ph\":\"E\",\"ts\":4,\"pid\":1,\"tid\":1}"
      "]}";
  EXPECT_NE(obs::validate_chrome_trace(crossed), "");
}

TEST(ObsTraceValidator, RejectsNonMonotonicTimestampsPerThread) {
  const char* backwards =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":5,\"pid\":1,\"tid\":1},"
      "{\"name\":\"a\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":1}"
      "]}";
  EXPECT_NE(obs::validate_chrome_trace(backwards), "");
}
