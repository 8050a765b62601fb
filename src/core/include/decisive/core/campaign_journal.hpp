// Crash-safe campaign checkpoint journal (ROADMAP item 5).
//
// A large fault-injection campaign must be preemptible: killed, OOM-ed or
// rescheduled mid-run, it resumes from its journal and re-executes only the
// tasks that have no checkpointed result — with the final FMEDA byte-
// identical to an uninterrupted run at any job or shard count.
//
// Format (line/token text, built from the base/persist.hpp token helpers):
//
//   journal <version> <fingerprint> <task-count> <shard-index> <shard-count> <cksum>
//   skip <escaped-warning> <cksum>                (one per campaign skip warning)
//   row <task-index> <17 FmedaRow fields> <cksum> (one per completed task)
//
// Every line ends in a 16-hex-digit FNV-1a checksum of the line's content
// before it. The file is append-only and flushed per record, so a crash can
// at worst tear the final line; recovery verifies checksums line by line and
// truncates the file at the first bad one (torn tail OR interior bit-flip —
// a record after a corrupt one cannot be trusted to belong to this campaign
// state, so the tail is dropped and those tasks simply re-run; the journal
// can delay a resume but never make it wrong).
//
// The fingerprint binds the journal to one campaign identity: circuit
// netlist, task list, classification thresholds and solver configuration
// (but not --jobs or the shard spec, which must not change results). A
// journal with a foreign fingerprint is discarded, never merged.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "decisive/core/fmeda.hpp"

namespace decisive::core {

/// Identity of a campaign run, persisted in (and checked against) a
/// journal's header line.
struct CampaignJournalHeader {
  std::uint64_t fingerprint = 0;  ///< campaign identity hash (CampaignRunner::fingerprint)
  std::uint64_t task_count = 0;   ///< global task count across all shards
  int shard_index = 0;            ///< shard this journal belongs to
  int shard_count = 1;

  [[nodiscard]] bool operator==(const CampaignJournalHeader& other) const noexcept {
    return fingerprint == other.fingerprint && task_count == other.task_count &&
           shard_index == other.shard_index && shard_count == other.shard_count;
  }
};

/// Result of replaying one journal file.
struct CampaignJournalReplay {
  /// True when the file held a journal whose header matches the expected
  /// campaign (always true for unchecked replays of a well-formed file).
  bool compatible = false;
  CampaignJournalHeader header;
  std::string note;                ///< why the journal was discarded or trimmed
  std::uint64_t valid_bytes = 0;   ///< length of the checksummed valid prefix
  std::uint64_t dropped_lines = 0; ///< torn/corrupt tail lines discarded
  std::vector<std::string> skip_warnings;   ///< campaign skip warnings, in order
  std::map<std::uint64_t, FmedaRow> rows;   ///< checkpointed tasks by global index
};

/// Replays the journal at `path`. A missing file, a foreign fingerprint or a
/// corrupt header yields {compatible=false, note} — the caller starts a
/// fresh journal. Checksum-invalid records mark the truncation point; the
/// valid prefix is still returned. Pass nullptr for `expected` to accept any
/// well-formed header (merge does this).
[[nodiscard]] CampaignJournalReplay replay_campaign_journal(
    const std::string& path, const CampaignJournalHeader* expected);

/// Append-side of the journal. Construction either resumes a compatible
/// journal (truncating the file to its valid prefix) or replaces it with a
/// fresh header + skip-warning preamble. append() is thread-safe and flushes
/// per record so a crash can tear at most the final line.
///
/// Fault-injection hook: when DECISIVE_CAMPAIGN_CRASH_AFTER_APPENDS=<k> is
/// set, the process raises SIGKILL after the k-th append — the deterministic
/// "preempted mid-campaign" specimen the kill-and-resume tests and the CI
/// smoke job are built on.
class CampaignJournal {
 public:
  /// `resume` is the replay of `path` against this campaign's header, or
  /// nullptr to force a fresh journal. Throws IoError when the file cannot
  /// be opened for appending.
  CampaignJournal(std::string path, const CampaignJournalHeader& header,
                  const std::vector<std::string>& skip_warnings,
                  const CampaignJournalReplay* resume);

  /// Appends one completed task record and flushes it.
  void append(std::uint64_t task_index, const FmedaRow& row);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::mutex mutex_;
  long crash_after_appends_ = -1;  ///< fault-injection hook, -1 = off
  std::uint64_t appends_ = 0;
  std::ofstream out_;
};

/// Merges per-shard journals into the single campaign FmedaResult, exactly
/// as an unsharded CampaignRunner::run() would have assembled it (rows in
/// global task order; warnings = skip warnings + per-row outcome warnings +
/// the degenerate-SPFM note). Throws AnalysisError when the journals do not
/// share one campaign fingerprint, a shard is missing, or any task has no
/// checkpointed result (resume the incomplete shard first).
[[nodiscard]] FmedaResult merge_campaign_journals(const std::vector<std::string>& paths);

/// Serialises one FmedaRow as the journal's space-separated field list
/// (without the "row" tag, index or checksum). Exposed for tests.
[[nodiscard]] std::string journal_row_tokens(const FmedaRow& row);

/// Inverse of journal_row_tokens; throws ParseError on malformed fields.
[[nodiscard]] FmedaRow journal_row_from_tokens(const std::vector<std::string>& tokens,
                                               size_t first);

}  // namespace decisive::core
