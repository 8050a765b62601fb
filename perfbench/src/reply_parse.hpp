// Readers for the session service's line-protocol replies.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

/// The last line of a reply, without its newline.
inline std::string_view last_line(std::string_view text) {
  if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  const auto newline = text.rfind('\n');
  return newline == std::string_view::npos ? text : text.substr(newline + 1);
}

/// The statistics a `reanalyze` reply reports.
struct ReanalyzeStats {
  bool short_circuit = false;
  double rows = 0;
  double units = 0;
  double hits = 0;
  double widened = 0;
  double fingerprint_ms = 0;
  double analyze_ms = 0;
  double total_ms = 0;
};

/// The number that follows `key` in `text`; nullopt when absent.
inline std::optional<double> number_after(std::string_view text, std::string_view key) {
  const auto at = text.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string rest(text.substr(at + key.size(), 32));
  char* end = nullptr;
  const double value = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return std::nullopt;
  return value;
}

/// Parses a `reanalyze` reply; nullopt when any field is missing (the reply
/// format changed).
inline std::optional<ReanalyzeStats> parse_reanalyze(std::string_view text) {
  const auto rows = number_after(text, "rows ");
  const auto units = number_after(text, "units ");
  const auto hits = number_after(text, " hits ");
  const auto widened = number_after(text, " widened ");
  const auto fingerprint = number_after(text, "time fingerprint ");
  const auto analyze = number_after(text, " analyze ");
  const auto total = number_after(text, " total ");
  if (!rows || !units || !hits || !widened || !fingerprint || !analyze || !total) {
    return std::nullopt;
  }
  ReanalyzeStats stats;
  stats.short_circuit = text.find("short-circuit") != std::string_view::npos;
  stats.rows = *rows;
  stats.units = *units;
  stats.hits = *hits;
  stats.widened = *widened;
  stats.fingerprint_ms = *fingerprint;
  stats.analyze_ms = *analyze;
  stats.total_ms = *total;
  return stats;
}

}  // namespace perfbench
