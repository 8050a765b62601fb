// Flight-recorder tests: progress heartbeats, status folding and the
// cross-shard snapshot/trace merge algebra.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/obs/progress.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/snapshot.hpp"
#include "decisive/obs/trace.hpp"

using namespace decisive;

namespace {

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("decisive-flight-" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

// ---------------------------------------------------------------------------
// ProgressReporter + heartbeat documents
// ---------------------------------------------------------------------------

TEST(FlightRecorder, ReporterPublishesParseableHeartbeats) {
  TempDir tmp;
  const auto path = (tmp.path / "shard.heartbeat.json").string();

  obs::ProgressReporterOptions options;
  options.path = path;
  options.phase = "campaign";
  options.total = 4;
  options.workers = 2;
  options.interval_seconds = 0;  // publish on every tick
  obs::ProgressReporter reporter(options);

  // The constructor publishes an initial "0 done, running" beat so an
  // observer sees the shard as alive before the first task completes.
  obs::Heartbeat beat = obs::parse_heartbeat(slurp(path));
  EXPECT_EQ(beat.schema_version, 1);
  EXPECT_EQ(beat.phase, "campaign");
  EXPECT_EQ(beat.state, "running");
  EXPECT_EQ(beat.total, 4u);
  EXPECT_EQ(beat.done, 0u);
  ASSERT_EQ(beat.workers.size(), 2u);

  reporter.task_done(0, "Converged");
  reporter.task_done(1, "Converged");
  reporter.task_done(0, "Singular");
  beat = obs::parse_heartbeat(slurp(path));
  EXPECT_EQ(beat.state, "running");
  EXPECT_EQ(beat.done, 3u);
  EXPECT_EQ(beat.outcomes.at("Converged"), 2u);
  EXPECT_EQ(beat.outcomes.at("Singular"), 1u);
  EXPECT_EQ(beat.workers[0].done, 2u);
  EXPECT_EQ(beat.workers[1].done, 1u);
  EXPECT_GE(beat.updated_unix_ms, beat.started_unix_ms);
  EXPECT_GT(beat.pid, 0);

  reporter.task_done(1, "Converged");
  reporter.finish();
  beat = obs::parse_heartbeat(slurp(path));
  EXPECT_EQ(beat.state, "done");
  EXPECT_EQ(beat.done, 4u);
  EXPECT_EQ(beat.outcomes.at("Converged"), 3u);
}

TEST(FlightRecorder, ReporterClampsOutOfRangeWorkerIds) {
  obs::ProgressReporterOptions options;
  options.total = 2;
  options.workers = 1;
  obs::ProgressReporter reporter(options);  // empty path: in-memory only
  reporter.task_done(7, "Converged");
  reporter.task_done(-3, "Converged");
  const obs::Heartbeat beat = obs::parse_heartbeat(reporter.render());
  ASSERT_EQ(beat.workers.size(), 1u);
  EXPECT_EQ(beat.workers[0].done, 2u);
  EXPECT_EQ(beat.done, 2u);
}

TEST(FlightRecorder, ParseHeartbeatRejectsForeignDocuments) {
  EXPECT_THROW(obs::parse_heartbeat("not json"), ParseError);
  EXPECT_THROW(obs::parse_heartbeat("{\"kind\":\"metrics-snapshot\"}"), ParseError);
  EXPECT_THROW(obs::parse_heartbeat(
                   "{\"schema_version\":99,\"kind\":\"heartbeat\",\"state\":\"running\"}"),
               ParseError);
}

TEST(FlightRecorder, FoldStatusFlagsStaleRunningShardsDead) {
  const std::uint64_t now = 1'000'000;
  auto beat = [&](int index, const std::string& state, std::uint64_t age_ms,
                  std::uint64_t total, std::uint64_t done) {
    obs::Heartbeat b;
    b.schema_version = 1;
    b.phase = "campaign";
    b.shard = {index, 3};
    b.state = state;
    b.total = total;
    b.done = done;
    b.outcomes["Converged"] = done;
    b.updated_unix_ms = now - age_ms;
    b.throughput_per_second = 2.0;
    return b;
  };

  const std::vector<std::pair<std::string, obs::Heartbeat>> beats = {
      {"s0.heartbeat.json", beat(0, "running", 1'000, 10, 4)},
      {"s1.heartbeat.json", beat(1, "running", 60'000, 10, 2)},  // stale -> dead
      {"s2.heartbeat.json", beat(2, "done", 120'000, 10, 10)},   // old but finished
  };
  const obs::StatusView view = obs::fold_status(beats, now, /*stale_seconds=*/30);

  EXPECT_EQ(view.running_shards, 1);
  EXPECT_EQ(view.dead_shards, 1);
  EXPECT_EQ(view.done_shards, 1);
  ASSERT_EQ(view.shards.size(), 3u);
  EXPECT_FALSE(view.shards[0].dead);
  EXPECT_TRUE(view.shards[1].dead);
  EXPECT_FALSE(view.shards[2].dead);  // "done" never goes dead, however old
  EXPECT_EQ(view.total, 30u);
  EXPECT_EQ(view.done, 16u);
  EXPECT_EQ(view.outcomes.at("Converged"), 16u);
  // Throughput only counts live running shards (a dead shard contributes 0).
  EXPECT_DOUBLE_EQ(view.throughput_per_second, 2.0);

  const std::string rendered = view.render();
  EXPECT_NE(rendered.find("DEAD"), std::string::npos);
  EXPECT_NE(rendered.find("16/30"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Registry snapshot merge algebra
// ---------------------------------------------------------------------------

TEST(FlightRecorder, SnapshotRoundTripCarriesShardStamp) {
  obs::Registry registry;
  registry.counter("tasks_total").add(7);
  const std::string snapshot = obs::registry_snapshot_json(registry);
  obs::ShardIdentity shard{-1, -1};
  const json::Value metrics = obs::parse_registry_snapshot(snapshot, &shard);
  EXPECT_EQ(shard.index, 0);
  EXPECT_EQ(shard.count, 1);
  EXPECT_DOUBLE_EQ(metrics.as_object().at("counters").as_object().at("tasks_total").as_number(),
                   7.0);
  EXPECT_THROW(obs::parse_registry_snapshot("{\"kind\":\"heartbeat\"}"), ParseError);
}

// The property the sharded campaign relies on: merging K per-shard snapshots
// of a partitioned workload reproduces the unsharded snapshot exactly for
// counters and histogram buckets.
TEST(FlightRecorder, MergingShardSnapshotsEqualsTheUnshardedSnapshot) {
  constexpr int kShards = 3;
  // Deterministic workload: task t adds t%3+1 to a counter and observes a
  // latency of (t * 0.25) seconds; shard k processes tasks t%kShards == k.
  constexpr int kTasks = 60;
  const std::vector<double> bounds = {1.0, 4.0, 8.0};

  obs::Registry whole;
  std::vector<obs::Registry> shards(kShards);
  for (int t = 0; t < kTasks; ++t) {
    obs::Registry& shard = shards[t % kShards];
    const auto weight = static_cast<std::uint64_t>(t % 3 + 1);
    const double latency = t * 0.25;
    whole.counter("tasks_total").add(1);
    whole.counter("work_units_total").add(weight);
    whole.histogram("latency_seconds", bounds).observe(latency);
    shard.counter("tasks_total").add(1);
    shard.counter("work_units_total").add(weight);
    shard.histogram("latency_seconds", bounds).observe(latency);
  }
  // Gauges: last write wins by timestamp; shard 2's write happens last, so
  // the merged gauge must carry its value.
  for (int k = 0; k < kShards; ++k) shards[k].gauge("fit_budget").set(10.0 * (k + 1));
  whole.gauge("fit_budget").set(30.0);

  std::vector<std::string> texts;
  texts.reserve(kShards);
  for (const obs::Registry& shard : shards) {
    texts.push_back(obs::registry_snapshot_json(shard));
  }
  const std::string merged_text = obs::merge_registry_snapshots(texts);

  obs::ShardIdentity merged_shard{-1, -1};
  const json::Value merged_doc = obs::parse_registry_snapshot(merged_text, &merged_shard);
  const json::Value union_doc =
      obs::parse_registry_snapshot(obs::registry_snapshot_json(whole));
  const json::Object& merged = merged_doc.as_object();
  const json::Object& union_metrics = union_doc.as_object();
  // The merged document is stamped as an unsharded (0/1) snapshot.
  EXPECT_EQ(merged_shard.index, 0);
  EXPECT_EQ(merged_shard.count, 1);

  // Counters and histograms (count, sum, percentiles, buckets) must match
  // the unsharded run exactly — same JSON rendering, byte for byte.
  EXPECT_EQ(json::write(merged.at("counters")), json::write(union_metrics.at("counters")));
  EXPECT_EQ(json::write(merged.at("histograms")), json::write(union_metrics.at("histograms")));

  // Gauges match by value (timestamps are wall-clock, so compare the payload
  // that matters): last writer was shard 2.
  const json::Object& gauge =
      merged.at("gauges").as_object().at("fit_budget").as_object();
  EXPECT_DOUBLE_EQ(gauge.at("value").as_number(), 30.0);
}

TEST(FlightRecorder, MergeRejectsMismatchedHistogramBucketLayouts) {
  obs::Registry a;
  obs::Registry b;
  a.histogram("latency_seconds", {1.0, 2.0}).observe(0.5);
  b.histogram("latency_seconds", {1.0, 3.0}).observe(0.5);
  const std::vector<std::string> texts = {obs::registry_snapshot_json(a),
                                          obs::registry_snapshot_json(b)};
  try {
    (void)obs::merge_registry_snapshots(texts);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& error) {
    EXPECT_NE(std::string(error.what()).find("bucket layout"), std::string::npos)
        << error.what();
  }
}

// ---------------------------------------------------------------------------
// Trace merging
// ---------------------------------------------------------------------------

namespace {

std::string shard_trace(int index, int count, double ts0) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"traceEvents\":[\n"
                "{\"name\":\"solve\",\"cat\":\"decisive\",\"ph\":\"B\",\"ts\":%.1f,"
                "\"pid\":%d,\"tid\":1},\n"
                "{\"name\":\"solve\",\"cat\":\"decisive\",\"ph\":\"E\",\"ts\":%.1f,"
                "\"pid\":%d,\"tid\":1}\n"
                "],\"displayTimeUnit\":\"ms\",\"shard\":{\"index\":%d,\"count\":%d}}\n",
                ts0, index + 1, ts0 + 5.0, index + 1, index, count);
  return buffer;
}

}  // namespace

TEST(FlightRecorder, MergedTracesValidateEvenWhenShardsReuseThreadIds) {
  // Both shards use tid 1; without pid separation their B/E events would
  // interleave into an unbalanced lane.
  const std::vector<std::string> texts = {shard_trace(0, 2, 0.0), shard_trace(1, 2, 2.0)};
  const std::string merged = obs::merge_chrome_traces(texts);
  EXPECT_EQ(obs::validate_chrome_trace(merged), "");

  std::set<double> pids;
  const json::Value merged_doc = json::parse(merged);
  for (const json::Value& event : merged_doc.as_object().at("traceEvents").as_array()) {
    pids.insert(event.as_object().at("pid").as_number());
  }
  EXPECT_EQ(pids.size(), 2u);  // every shard got its own process lane
}
