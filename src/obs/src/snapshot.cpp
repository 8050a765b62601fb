#include "decisive/obs/snapshot.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "decisive/base/error.hpp"

namespace decisive::obs {

namespace {

constexpr int kSnapshotSchemaVersion = 1;

json::Value shard_value(ShardIdentity shard) {
  json::Object object;
  object["index"] = json::Value(shard.index);
  object["count"] = json::Value(shard.count);
  return json::Value(std::move(object));
}

const json::Object& require_object(const json::Value& document, const char* key,
                                   const char* what) {
  const json::Value* value = document.find(key);
  if (value == nullptr || !value->is_object()) {
    throw ParseError(std::string(what) + ": missing or invalid '" + key + "'");
  }
  return value->as_object();
}

double require_number(const json::Value& document, const char* key, const char* what) {
  const json::Value* value = document.find(key);
  if (value == nullptr || !value->is_number()) {
    throw ParseError(std::string(what) + ": missing or invalid '" + key + "'");
  }
  return value->as_number();
}

/// Same bucket-resolution estimate Histogram::percentile() computes, applied
/// to merged bucket counts, so a merged snapshot is byte-identical to the
/// snapshot one process observing all events would have written.
double percentile_from_buckets(const std::vector<double>& bounds,
                               const std::vector<std::uint64_t>& counts, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = p * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= rank && counts[i] > 0) {
      return i < bounds.size() ? bounds[i] : bounds.empty() ? 0.0 : bounds.back();
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace

std::string registry_snapshot_json(const Registry& registry) {
  json::Object root;
  root["schema_version"] = json::Value(kSnapshotSchemaVersion);
  root["kind"] = json::Value("metrics-snapshot");
  root["shard"] = shard_value(shard_identity());
  root["metrics"] = json::parse(registry.to_json());
  return json::write(json::Value(std::move(root)));
}

json::Value parse_registry_snapshot(std::string_view text, ShardIdentity* shard) {
  const json::Value document = json::parse(text);
  const json::Value* kind = document.find("kind");
  if (kind == nullptr || !kind->is_string() || kind->as_string() != "metrics-snapshot") {
    throw ParseError("snapshot: document is not a metrics-snapshot (missing kind)");
  }
  const int version = static_cast<int>(require_number(document, "schema_version", "snapshot"));
  if (version != kSnapshotSchemaVersion) {
    throw ParseError("snapshot: unsupported schema_version " + std::to_string(version));
  }
  if (shard != nullptr) {
    const json::Value* stamp = document.find("shard");
    if (stamp == nullptr || !stamp->is_object()) throw ParseError("snapshot: missing 'shard'");
    shard->index = static_cast<int>(require_number(*stamp, "index", "snapshot shard"));
    shard->count = static_cast<int>(require_number(*stamp, "count", "snapshot shard"));
  }
  const json::Value* metrics = document.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) throw ParseError("snapshot: missing 'metrics'");
  return *metrics;
}

std::string merge_registry_snapshots(const std::vector<std::string>& texts) {
  if (texts.empty()) throw AnalysisError("merge: no snapshots to merge");

  std::map<std::string, double> counters;
  // value, updated_unix_ms, input order — last-write-wins needs all three.
  struct GaugeState {
    double value = 0.0;
    double updated_unix_ms = 0.0;
    size_t input = 0;
    bool seen = false;
  };
  std::map<std::string, GaugeState> gauges;
  struct HistogramState {
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, HistogramState> histograms;

  for (size_t input = 0; input < texts.size(); ++input) {
    const json::Value metrics = parse_registry_snapshot(texts[input]);
    for (const auto& [name, value] : require_object(metrics, "counters", "snapshot")) {
      if (!value.is_number()) throw ParseError("snapshot: non-numeric counter '" + name + "'");
      counters[name] += value.as_number();
    }
    for (const auto& [name, value] : require_object(metrics, "gauges", "snapshot")) {
      const double v = require_number(value, "value", "snapshot gauge");
      const double ts = require_number(value, "updated_unix_ms", "snapshot gauge");
      GaugeState& state = gauges[name];
      // Later timestamp wins; on a tie the later input wins, keeping the
      // merge deterministic for a fixed input order.
      if (!state.seen || ts >= state.updated_unix_ms) {
        state = GaugeState{v, ts, input, true};
      }
    }
    for (const auto& [name, value] : require_object(metrics, "histograms", "snapshot")) {
      const json::Value* bounds = value.find("bounds");
      const json::Value* buckets = value.find("bucket_counts");
      if (bounds == nullptr || !bounds->is_array() || buckets == nullptr ||
          !buckets->is_array()) {
        throw ParseError("snapshot: histogram '" + name + "' lacks bucket-level data");
      }
      HistogramState& state = histograms[name];
      if (state.bounds.empty() && state.bucket_counts.empty()) {
        for (const json::Value& b : bounds->as_array()) state.bounds.push_back(b.as_number());
        state.bucket_counts.assign(buckets->as_array().size(), 0);
      } else {
        std::vector<double> incoming;
        for (const json::Value& b : bounds->as_array()) incoming.push_back(b.as_number());
        if (incoming != state.bounds) {
          throw AnalysisError("merge: histogram '" + name +
                              "' bucket layout differs between shards (" +
                              std::to_string(state.bounds.size()) + " vs " +
                              std::to_string(incoming.size()) + " bounds)");
        }
      }
      const json::Array& incoming_counts = buckets->as_array();
      if (incoming_counts.size() != state.bucket_counts.size()) {
        throw AnalysisError("merge: histogram '" + name +
                            "' bucket layout differs between shards (" +
                            std::to_string(state.bucket_counts.size()) + " vs " +
                            std::to_string(incoming_counts.size()) + " buckets)");
      }
      for (size_t i = 0; i < incoming_counts.size(); ++i) {
        state.bucket_counts[i] += static_cast<std::uint64_t>(incoming_counts[i].as_number());
      }
      state.sum += require_number(value, "sum", "snapshot histogram");
      state.count += static_cast<std::uint64_t>(require_number(value, "count", "snapshot histogram"));
    }
  }

  json::Object merged_counters;
  for (const auto& [name, value] : counters) merged_counters[name] = json::Value(value);
  json::Object merged_gauges;
  for (const auto& [name, state] : gauges) {
    json::Object g;
    g["value"] = json::Value(state.value);
    g["updated_unix_ms"] = json::Value(state.updated_unix_ms);
    merged_gauges[name] = json::Value(std::move(g));
  }
  json::Object merged_histograms;
  for (const auto& [name, state] : histograms) {
    json::Object h;
    h["count"] = json::Value(static_cast<double>(state.count));
    h["sum"] = json::Value(state.sum);
    h["p50"] = json::Value(percentile_from_buckets(state.bounds, state.bucket_counts, 0.50));
    h["p90"] = json::Value(percentile_from_buckets(state.bounds, state.bucket_counts, 0.90));
    h["p99"] = json::Value(percentile_from_buckets(state.bounds, state.bucket_counts, 0.99));
    json::Array bounds;
    for (const double b : state.bounds) bounds.emplace_back(b);
    json::Array buckets;
    for (const std::uint64_t c : state.bucket_counts) {
      buckets.emplace_back(static_cast<double>(c));
    }
    h["bounds"] = json::Value(std::move(bounds));
    h["bucket_counts"] = json::Value(std::move(buckets));
    merged_histograms[name] = json::Value(std::move(h));
  }
  json::Object metrics;
  metrics["counters"] = json::Value(std::move(merged_counters));
  metrics["gauges"] = json::Value(std::move(merged_gauges));
  metrics["histograms"] = json::Value(std::move(merged_histograms));

  json::Object root;
  root["schema_version"] = json::Value(kSnapshotSchemaVersion);
  root["kind"] = json::Value("metrics-snapshot");
  // The merged view is the whole run, so it carries the unsharded identity.
  root["shard"] = shard_value(ShardIdentity{0, 1});
  root["metrics"] = json::Value(std::move(metrics));
  return json::write(json::Value(std::move(root)));
}

std::string merge_chrome_traces(const std::vector<std::string>& texts) {
  if (texts.empty()) throw AnalysisError("merge: no traces to merge");

  json::Array merged_events;
  std::set<int> used_pids;
  for (size_t input = 0; input < texts.size(); ++input) {
    const json::Value document = json::parse(texts[input]);
    const json::Value* events = document.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      throw ParseError("trace #" + std::to_string(input) + ": missing 'traceEvents' array");
    }
    // Preferred lane for this input: its shard stamp when present, else its
    // own recorded pid. Collisions bump to the next free lane, so the merge
    // never interleaves two shards into one process lane.
    int preferred = static_cast<int>(input) + 1;
    if (const json::Value* stamp = document.find("shard");
        stamp != nullptr && stamp->is_object()) {
      if (const json::Value* index = stamp->find("index");
          index != nullptr && index->is_number()) {
        preferred = static_cast<int>(index->as_number()) + 1;
      }
    }
    std::map<int, int> pid_map;
    for (const json::Value& event : events->as_array()) {
      if (!event.is_object()) {
        throw ParseError("trace #" + std::to_string(input) + ": non-object event");
      }
      const json::Value* pid = event.find("pid");
      const int original = (pid != nullptr && pid->is_number())
                               ? static_cast<int>(pid->as_number())
                               : 1;
      auto [it, inserted] = pid_map.try_emplace(original, 0);
      if (inserted) {
        int lane = pid_map.size() == 1 ? preferred : original;
        while (used_pids.contains(lane)) ++lane;
        used_pids.insert(lane);
        it->second = lane;
      }
      json::Object out = event.as_object();
      out["pid"] = json::Value(it->second);
      merged_events.emplace_back(std::move(out));
    }
  }

  json::Object root;
  root["traceEvents"] = json::Value(std::move(merged_events));
  root["displayTimeUnit"] = json::Value("ms");
  root["shard"] = shard_value(ShardIdentity{0, 1});
  return json::write(json::Value(std::move(root)));
}

}  // namespace decisive::obs
