#include "decisive/obs/progress.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/base/persist.hpp"

namespace decisive::obs {

namespace {

std::uint64_t unix_ms_now() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
}

double monotonic_seconds_now() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

std::uint64_t require_uint(const json::Value& document, const char* key) {
  const json::Value* value = document.find(key);
  if (value == nullptr || !value->is_number() || value->as_number() < 0.0) {
    throw ParseError(std::string("heartbeat: missing or invalid '") + key + "'");
  }
  return static_cast<std::uint64_t>(value->as_number());
}

double optional_number(const json::Value& document, const char* key) {
  const json::Value* value = document.find(key);
  return (value != nullptr && value->is_number()) ? value->as_number() : 0.0;
}

std::string require_string(const json::Value& document, const char* key) {
  const json::Value* value = document.find(key);
  if (value == nullptr || !value->is_string()) {
    throw ParseError(std::string("heartbeat: missing or invalid '") + key + "'");
  }
  return value->as_string();
}

std::string format_rate(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%.1f", value);
  return buffer;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProgressReporter
// ---------------------------------------------------------------------------

ProgressReporter::ProgressReporter(ProgressReporterOptions options)
    : options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  worker_done_.assign(static_cast<size_t>(options_.workers), 0);
  worker_last_active_ms_.assign(static_cast<size_t>(options_.workers), 0);
  started_unix_ms_ = unix_ms_now();
  started_monotonic_s_ = monotonic_seconds_now();
  // Publish the initial "0 done" beat so observers see the shard as alive
  // from the moment it starts, not only after the first task lands.
  const std::lock_guard<std::mutex> lock(mutex_);
  publish_locked();
}

void ProgressReporter::task_done(int worker, std::string_view outcome) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  ++done_;
  if (const auto it = outcomes_.find(outcome); it != outcomes_.end()) {
    ++it->second;
  } else {
    outcomes_.emplace(outcome, 1);
  }
  const size_t slot = static_cast<size_t>(
      std::clamp(worker, 0, options_.workers - 1));
  ++worker_done_[slot];
  worker_last_active_ms_[slot] = unix_ms_now();
  const double now_s = monotonic_seconds_now();
  if (options_.interval_seconds <= 0.0 ||
      now_s - last_publish_monotonic_s_ >= options_.interval_seconds) {
    publish_locked();
  }
}

void ProgressReporter::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  publish_locked();
}

void ProgressReporter::finish() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  finished_ = true;
  publish_locked();
}

std::string ProgressReporter::render() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return render_locked();
}

std::string ProgressReporter::render_locked() const {
  const double elapsed =
      std::max(0.0, monotonic_seconds_now() - started_monotonic_s_);
  const double throughput = elapsed > 0.0 ? static_cast<double>(done_) / elapsed : 0.0;
  const std::uint64_t remaining = options_.total > done_ ? options_.total - done_ : 0;
  const double eta =
      throughput > 0.0 ? static_cast<double>(remaining) / throughput : 0.0;
  const ShardIdentity shard = shard_identity();

  json::Object root;
  root["schema_version"] = json::Value(1);
  root["kind"] = json::Value("heartbeat");
  root["phase"] = json::Value(options_.phase);
  json::Object shard_object;
  shard_object["index"] = json::Value(shard.index);
  shard_object["count"] = json::Value(shard.count);
  root["shard"] = json::Value(std::move(shard_object));
  root["pid"] = json::Value(static_cast<long long>(::getpid()));
  root["state"] = json::Value(finished_ ? "done" : "running");
  root["total"] = json::Value(static_cast<double>(options_.total));
  root["done"] = json::Value(static_cast<double>(done_));
  json::Object outcomes;
  for (const auto& [label, count] : outcomes_) {
    outcomes[label] = json::Value(static_cast<double>(count));
  }
  root["outcomes"] = json::Value(std::move(outcomes));
  root["started_unix_ms"] = json::Value(static_cast<double>(started_unix_ms_));
  root["updated_unix_ms"] = json::Value(static_cast<double>(unix_ms_now()));
  root["elapsed_seconds"] = json::Value(elapsed);
  root["throughput_per_second"] = json::Value(throughput);
  root["eta_seconds"] = json::Value(eta);
  json::Array workers;
  for (size_t i = 0; i < worker_done_.size(); ++i) {
    json::Object worker;
    worker["id"] = json::Value(static_cast<int>(i));
    worker["done"] = json::Value(static_cast<double>(worker_done_[i]));
    worker["last_active_unix_ms"] =
        json::Value(static_cast<double>(worker_last_active_ms_[i]));
    workers.emplace_back(std::move(worker));
  }
  root["workers"] = json::Value(std::move(workers));
  return json::write(json::Value(std::move(root)));
}

void ProgressReporter::publish_locked() {
  last_publish_monotonic_s_ = monotonic_seconds_now();
  if (options_.path.empty()) return;
  // A heartbeat is best-effort telemetry: a full disk must not abort the
  // analysis that is being observed.
  try {
    atomic_write_file(options_.path, render_locked());
  } catch (const Error&) {
  }
}

// ---------------------------------------------------------------------------
// Heartbeat parsing + status folding
// ---------------------------------------------------------------------------

Heartbeat parse_heartbeat(std::string_view text) {
  const json::Value document = json::parse(text);
  const json::Value* kind = document.find("kind");
  if (kind == nullptr || !kind->is_string() || kind->as_string() != "heartbeat") {
    throw ParseError("heartbeat: document is not a heartbeat (missing kind)");
  }
  Heartbeat beat;
  beat.schema_version = static_cast<int>(require_uint(document, "schema_version"));
  if (beat.schema_version != 1) {
    throw ParseError("heartbeat: unsupported schema_version " +
                     std::to_string(beat.schema_version));
  }
  beat.phase = require_string(document, "phase");
  const json::Value* shard = document.find("shard");
  if (shard == nullptr || !shard->is_object()) {
    throw ParseError("heartbeat: missing 'shard'");
  }
  beat.shard.index = static_cast<int>(require_uint(*shard, "index"));
  beat.shard.count = static_cast<int>(require_uint(*shard, "count"));
  beat.pid = static_cast<std::int64_t>(require_uint(document, "pid"));
  beat.state = require_string(document, "state");
  if (beat.state != "running" && beat.state != "done") {
    throw ParseError("heartbeat: unknown state '" + beat.state + "'");
  }
  beat.total = require_uint(document, "total");
  beat.done = require_uint(document, "done");
  if (const json::Value* outcomes = document.find("outcomes");
      outcomes != nullptr && outcomes->is_object()) {
    for (const auto& [label, count] : outcomes->as_object()) {
      if (!count.is_number()) throw ParseError("heartbeat: non-numeric outcome count");
      beat.outcomes[label] = static_cast<std::uint64_t>(count.as_number());
    }
  }
  beat.started_unix_ms = require_uint(document, "started_unix_ms");
  beat.updated_unix_ms = require_uint(document, "updated_unix_ms");
  beat.elapsed_seconds = optional_number(document, "elapsed_seconds");
  beat.throughput_per_second = optional_number(document, "throughput_per_second");
  beat.eta_seconds = optional_number(document, "eta_seconds");
  if (const json::Value* workers = document.find("workers");
      workers != nullptr && workers->is_array()) {
    for (const json::Value& row : workers->as_array()) {
      Heartbeat::Worker worker;
      worker.id = static_cast<int>(require_uint(row, "id"));
      worker.done = require_uint(row, "done");
      worker.last_active_unix_ms = require_uint(row, "last_active_unix_ms");
      beat.workers.push_back(worker);
    }
  }
  return beat;
}

StatusView fold_status(const std::vector<std::pair<std::string, Heartbeat>>& beats,
                       std::uint64_t now_unix_ms, double stale_seconds) {
  StatusView view;
  for (const auto& [file, beat] : beats) {
    ShardStatus status;
    status.file = file;
    status.beat = beat;
    status.age_seconds =
        now_unix_ms > beat.updated_unix_ms
            ? static_cast<double>(now_unix_ms - beat.updated_unix_ms) / 1e3
            : 0.0;
    status.dead = beat.state == "running" && status.age_seconds > stale_seconds;
    view.total += beat.total;
    view.done += beat.done;
    for (const auto& [label, count] : beat.outcomes) view.outcomes[label] += count;
    if (status.dead) {
      ++view.dead_shards;
    } else if (beat.state == "done") {
      ++view.done_shards;
    } else {
      ++view.running_shards;
      view.throughput_per_second += beat.throughput_per_second;
    }
    view.shards.push_back(std::move(status));
  }
  const std::uint64_t remaining = view.total > view.done ? view.total - view.done : 0;
  view.eta_seconds = view.throughput_per_second > 0.0
                         ? static_cast<double>(remaining) / view.throughput_per_second
                         : 0.0;
  return view;
}

std::string StatusView::render() const {
  std::string out;
  for (const ShardStatus& status : shards) {
    const Heartbeat& beat = status.beat;
    char line[256];
    if (status.dead) {
      std::snprintf(line, sizeof line,
                    "shard %d/%d  DEAD     %llu/%llu tasks  last beat %ss ago  (%s)\n",
                    beat.shard.index, beat.shard.count,
                    static_cast<unsigned long long>(beat.done),
                    static_cast<unsigned long long>(beat.total),
                    format_rate(status.age_seconds).c_str(), beat.phase.c_str());
    } else if (beat.state == "done") {
      std::snprintf(line, sizeof line, "shard %d/%d  done     %llu/%llu tasks  (%s)\n",
                    beat.shard.index, beat.shard.count,
                    static_cast<unsigned long long>(beat.done),
                    static_cast<unsigned long long>(beat.total), beat.phase.c_str());
    } else {
      std::snprintf(line, sizeof line,
                    "shard %d/%d  running  %llu/%llu tasks  %s/s  eta %ss  (%s)\n",
                    beat.shard.index, beat.shard.count,
                    static_cast<unsigned long long>(beat.done),
                    static_cast<unsigned long long>(beat.total),
                    format_rate(beat.throughput_per_second).c_str(),
                    format_rate(beat.eta_seconds).c_str(), beat.phase.c_str());
    }
    out += line;
  }
  char totals[256];
  std::snprintf(totals, sizeof totals,
                "total      %llu/%llu tasks  %d running, %d done, %d dead\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(total), running_shards, done_shards,
                dead_shards);
  out += totals;
  if (!outcomes.empty()) {
    out += "outcomes  ";
    bool first = true;
    for (const auto& [label, count] : outcomes) {
      if (!first) out += ", ";
      out += label + "=" + std::to_string(count);
      first = false;
    }
    out += "\n";
  }
  return out;
}

}  // namespace decisive::obs
