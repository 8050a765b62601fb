// Shared building blocks of the persisted artefacts: token escaping, exact
// numeric round-trips and the FNV-1a checksum the campaign journal frames
// its records with, and crash-safe whole-file replacement.
//
// Durability rules every persisted artefact follows:
//  - snapshot files (the progress heartbeats) are replaced atomically —
//    write the full new content to a sibling temp file, flush, then rename
//    over the target, so a crash mid-save can never truncate the previous
//    version;
//  - append-only files (the campaign journal) carry a checksum per record,
//    so a torn tail from a crash mid-append is detected and trimmed on
//    recovery instead of poisoning the replay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace decisive {

/// Percent-encodes the bytes that would break line/token framing (space,
/// '%', CR, LF). An empty input becomes the literal token "%" so every field
/// still occupies one token on the line.
std::string escape_token(std::string_view text);

/// Inverse of escape_token; throws ParseError on truncated escapes.
std::string unescape_token(std::string_view token);

/// Exact double round-trip via hexadecimal floating point ("%a").
std::string double_to_token(double value);

/// Inverse of double_to_token (also accepts decimal forms); throws
/// ParseError on garbage or trailing characters.
double double_from_token(const std::string& token);

/// Parses an unsigned decimal integer; throws ParseError on failure.
std::uint64_t u64_from_token(const std::string& token);

/// 64-bit FNV-1a over the bytes, optionally chained from a previous hash.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

/// Formats a 64-bit hash as 16 lower-case hex digits (the checksum token).
std::string hash_to_hex(std::uint64_t hash);

/// The whole content of the file at `path`, or nullopt when it cannot be
/// opened. A regular file is read at its size into one allocation, so a
/// large model or document is held once rather than through a doubling
/// buffer; anything else (a pipe, a device) is streamed.
std::optional<std::string> read_file(const std::string& path);

/// Crash-safe whole-file replacement: writes `content` to a sibling temp
/// file ("<path>.tmp.<pid>"), flushes it, then renames it over `path`. At
/// every instant `path` holds either the previous complete content or the
/// new complete content — never a truncated mix. Throws IoError on failure
/// (the previous file is left untouched).
///
/// Fault-injection hook: when the environment variable
/// DECISIVE_CRASH_BEFORE_RENAME is set, the process raises SIGKILL after the
/// temp file is written but before the rename — the exact window a
/// non-atomic save would corrupt. Crash-safety tests use it to prove the
/// previous file survives.
void atomic_write_file(const std::string& path, std::string_view content);

}  // namespace decisive
