#include "decisive/base/persist.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "decisive/base/error.hpp"

namespace decisive {

std::string escape_token(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == ' ' || c == '%' || c == '\n' || c == '\r') {
      char buffer[4];
      std::snprintf(buffer, sizeof buffer, "%%%02x", static_cast<unsigned char>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  // An empty field still needs a token on the line.
  return out.empty() ? std::string("%") : out;
}

std::string unescape_token(std::string_view token) {
  if (token == "%") return "";
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] == '%') {
      if (i + 2 >= token.size()) throw ParseError("truncated escape");
      const std::string hex(token.substr(i + 1, 2));
      out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
      i += 2;
    } else {
      out += token[i];
    }
  }
  return out;
}

std::string double_to_token(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

double double_from_token(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || end == token.c_str() || *end != '\0') {
    throw ParseError("bad double '" + token + "'");
  }
  return value;
}

std::uint64_t u64_from_token(const std::string& token) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') throw ParseError("bad integer '" + token + "'");
  return value;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) noexcept {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

std::string hash_to_hex(std::uint64_t hash) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text;
  std::error_code error;
  const auto size = std::filesystem::is_regular_file(path, error)
                        ? std::filesystem::file_size(path, error)
                        : std::uintmax_t{0};
  if (!error && size > 0) {
    text.resize(static_cast<size_t>(size));
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<size_t>(in.gcount()));
  }
  // A non-regular file, or bytes appended since its size was taken.
  if (in) {
    std::ostringstream rest;
    rest << in.rdbuf();
    text += std::move(rest).str();
  }
  return text;
}

void atomic_write_file(const std::string& path, std::string_view content) {
  const std::string temp = path + ".tmp." + std::to_string(
#ifdef _WIN32
                                                0
#else
                                                static_cast<long>(::getpid())
#endif
                                            );
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot write temp file '" + temp + "'");
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!out.flush()) {
      out.close();
      std::filesystem::remove(temp);
      throw IoError("cannot write temp file '" + temp + "'");
    }
  }
  if (std::getenv("DECISIVE_CRASH_BEFORE_RENAME") != nullptr) {
    // Crash injection for atomicity tests: die in the window where a
    // straight-through save would have already truncated the target.
    std::raise(SIGKILL);
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::filesystem::remove(temp);
    throw IoError("cannot replace '" + path + "': " + ec.message());
  }
}

}  // namespace decisive
