#include "decisive/base/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "decisive/base/error.hpp"

namespace decisive {

namespace {
bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}
}  // namespace

std::string_view trim(std::string_view text) noexcept {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      pieces.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += sep;
    out += pieces[i];
  }
  return out;
}

double parse_double(std::string_view text) {
  const std::string_view t = trim(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc() || ptr != t.data() + t.size()) {
    throw ParseError("expected a number, got '" + std::string(text) + "'");
  }
  return value;
}

long long parse_int(std::string_view text) {
  const std::string_view t = trim(text);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc() || ptr != t.data() + t.size()) {
    throw ParseError("expected an integer, got '" + std::string(text) + "'");
  }
  return value;
}

bool parse_bool(std::string_view text) {
  const std::string_view t = trim(text);
  if (iequals(t, "true") || t == "1") return true;
  if (iequals(t, "false") || t == "0") return false;
  throw ParseError("expected a boolean, got '" + std::string(text) + "'");
}

namespace {

/// printf("%.*f", decimals, value) in the C locale for a finite `value`: its
/// exact binary value rounded half to even at `decimals` places. A magnitude
/// below 2^53 with at most 22 decimals — every number the reports print — is
/// scaled exactly in 128-bit integers; anything else goes through
/// std::to_chars, which prints the same digits but pages in ~0.3 MiB of
/// lookup tables and code that the common case thus never touches.
std::string fixed_point(double value, int decimals) {
  const double magnitude = std::abs(value);
  if (!(magnitude < 0x1p53) || decimals > 22) {
    std::string out(std::size_t{312} + static_cast<std::size_t>(decimals), '\0');
    const char* end = std::to_chars(out.data(), out.data() + out.size(), value,
                                    std::chars_format::fixed, decimals)
                          .ptr;
    out.resize(static_cast<std::size_t>(end - out.data()));
    return out;
  }
  // magnitude == mantissa / 2^shift exactly, with mantissa < 2^53, shift >= 0.
  int exponent = 0;
  const double fraction = std::frexp(magnitude, &exponent);
  const auto mantissa = static_cast<std::uint64_t>(std::ldexp(fraction, 53));
  const int shift = 53 - exponent;
  unsigned __int128 scaled = mantissa;  // mantissa * 10^decimals < 2^127
  for (int d = 0; d < decimals; ++d) scaled *= 10;
  unsigned __int128 units = 0;
  if (shift < 128) {  // a larger shift leaves less than half a unit, never a tie
    units = scaled >> shift;
    if (shift > 0) {
      const unsigned __int128 rest = scaled - (units << shift);
      const unsigned __int128 half = static_cast<unsigned __int128>(1) << (shift - 1);
      if (rest > half || (rest == half && (units & 1) != 0)) ++units;
    }
  }
  // The digits of `units`, at least decimals + 1 of them, right-aligned.
  char digits[48];
  char* first = digits + sizeof(digits);
  int written = 0;
  auto emit = [&](std::uint64_t chunk, int min_digits) {
    do {
      *--first = static_cast<char>('0' + chunk % 10);
      chunk /= 10;
      ++written;
      --min_digits;
    } while (chunk != 0 || min_digits > 0);
  };
  constexpr std::uint64_t kTen19 = 10'000'000'000'000'000'000ULL;
  if ((units >> 64) == 0) {
    emit(static_cast<std::uint64_t>(units), decimals + 1);
  } else {
    emit(static_cast<std::uint64_t>(units % kTen19), 19);
    emit(static_cast<std::uint64_t>(units / kTen19), 0);
  }
  while (written < decimals + 1) {
    *--first = '0';
    ++written;
  }
  std::string out;
  out.reserve(static_cast<std::size_t>(written) + 2);
  if (std::signbit(value)) out += '-';
  out.append(first, static_cast<std::size_t>(written - decimals));
  if (decimals > 0) {
    out += '.';
    out.append(first + (written - decimals), static_cast<std::size_t>(decimals));
  }
  return out;
}

}  // namespace

std::string format_number(double value, int max_decimals) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  // A negative precision means 6, as it does for printf.
  std::string out = fixed_point(value, max_decimals < 0 ? 6 : max_decimals);
  if (out.find('.') != std::string::npos) {
    while (!out.empty() && out.back() == '0') out.pop_back();
    if (!out.empty() && out.back() == '.') out.pop_back();
  }
  if (out == "-0") out = "0";
  return out;
}

std::string format_percent(double fraction, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", decimals, fraction * 100.0);
  return std::string(buffer);
}

}  // namespace decisive
