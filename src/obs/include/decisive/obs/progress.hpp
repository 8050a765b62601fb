// Flight-recorder progress heartbeats for long-running analyses.
//
// A ProgressReporter is ticked by the campaign runner (and the scaled
// graph-FMEA) as tasks complete, and periodically publishes a heartbeat JSON
// document — done/total, per-outcome counts, throughput, ETA, per-worker
// liveness — next to the shard's journal. The file is replaced via
// atomic_write_file, so an observer (`same status <dir>`) always reads a
// complete document, never a torn write; a shard that dies mid-run simply
// stops refreshing its heartbeat, and staleness is how the fold side flags
// it dead (mirroring the circuit-breaker philosophy: absence of progress is
// itself a signal).
//
// Heartbeat document (schema_version 1):
//   {"schema_version":1,"kind":"heartbeat","phase":"campaign",
//    "shard":{"index":0,"count":4},"pid":12345,"state":"running",
//    "total":100,"done":42,"outcomes":{"Converged":40,"Singular":2},
//    "started_unix_ms":...,"updated_unix_ms":...,"elapsed_seconds":1.9,
//    "throughput_per_second":22.1,"eta_seconds":2.6,
//    "workers":[{"id":0,"done":21,"last_active_unix_ms":...}, ...]}
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "decisive/obs/shard.hpp"

namespace decisive::obs {

struct ProgressReporterOptions {
  /// Heartbeat file path; empty disables publishing (ticks become no-ops
  /// except for the in-memory tallies, still readable via render()).
  std::string path;
  /// Analysis phase label, e.g. "campaign" or "graph-fmea".
  std::string phase = "campaign";
  /// Total number of tasks this shard will process.
  std::uint64_t total = 0;
  /// Number of workers; per-worker liveness rows are pre-sized to this.
  int workers = 1;
  /// Minimum seconds between heartbeat writes; task_done() calls inside the
  /// window only update the in-memory tallies. 0 publishes on every tick.
  double interval_seconds = 1.0;
};

/// Thread-safe progress tally + throttled heartbeat publisher. Workers call
/// task_done() concurrently; publishing happens inline on the ticking thread
/// (an atomic rename of a few hundred bytes — negligible next to a solve).
class ProgressReporter {
 public:
  explicit ProgressReporter(ProgressReporterOptions options);

  /// Record completion of one task by `worker` (0-based; out-of-range ids are
  /// clamped into the configured range) with its outcome label, then publish
  /// a heartbeat if the throttle window has elapsed.
  void task_done(int worker, std::string_view outcome);

  /// Publish a heartbeat immediately, ignoring the throttle.
  void flush();

  /// Publish the final heartbeat with state "done". Idempotent.
  void finish();

  /// Current heartbeat document text (what flush() would write).
  [[nodiscard]] std::string render() const;

 private:
  [[nodiscard]] std::string render_locked() const;
  void publish_locked();

  ProgressReporterOptions options_;
  mutable std::mutex mutex_;
  std::uint64_t done_ = 0;
  /// Transparent comparator: a tick looks its label up without building a
  /// string; only a label's first tick stores one.
  std::map<std::string, std::uint64_t, std::less<>> outcomes_;
  std::vector<std::uint64_t> worker_done_;
  std::vector<std::uint64_t> worker_last_active_ms_;
  std::uint64_t started_unix_ms_ = 0;
  double started_monotonic_s_ = 0.0;
  double last_publish_monotonic_s_ = -1.0;
  bool finished_ = false;
};

/// Parsed heartbeat document.
struct Heartbeat {
  int schema_version = 0;
  std::string phase;
  ShardIdentity shard;
  std::int64_t pid = 0;
  std::string state;  ///< "running" or "done"
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::map<std::string, std::uint64_t> outcomes;
  std::uint64_t started_unix_ms = 0;
  std::uint64_t updated_unix_ms = 0;
  double elapsed_seconds = 0.0;
  double throughput_per_second = 0.0;
  double eta_seconds = 0.0;
  struct Worker {
    int id = 0;
    std::uint64_t done = 0;
    std::uint64_t last_active_unix_ms = 0;
  };
  std::vector<Worker> workers;
};

/// Parses a heartbeat document. Throws ParseError on malformed JSON or a
/// document that is not a schema_version-1 heartbeat.
[[nodiscard]] Heartbeat parse_heartbeat(std::string_view text);

/// One shard's row in the folded status view.
struct ShardStatus {
  std::string file;  ///< heartbeat file (label only)
  Heartbeat beat;
  double age_seconds = 0.0;  ///< now - updated_unix_ms
  bool dead = false;         ///< state "running" but heartbeat older than the threshold
};

/// All shards folded into one live view.
struct StatusView {
  std::vector<ShardStatus> shards;
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::map<std::string, std::uint64_t> outcomes;
  double throughput_per_second = 0.0;  ///< sum over live running shards
  double eta_seconds = 0.0;            ///< remaining / throughput; 0 when unknown
  int running_shards = 0;
  int done_shards = 0;
  int dead_shards = 0;

  /// Human-readable multi-line rendering (what `same status` prints).
  [[nodiscard]] std::string render() const;
};

/// Folds per-shard heartbeats into one view. `now_unix_ms` is the observer's
/// clock; a shard in state "running" whose heartbeat is older than
/// `stale_seconds` is flagged dead. Input order is preserved.
[[nodiscard]] StatusView fold_status(const std::vector<std::pair<std::string, Heartbeat>>& beats,
                                     std::uint64_t now_unix_ms, double stale_seconds);

}  // namespace decisive::obs
