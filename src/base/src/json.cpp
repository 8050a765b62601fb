#include "decisive/base/json.hpp"

#include <cmath>
#include <charconv>
#include <cstdio>
#include <optional>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"

namespace decisive::json {

bool Value::as_bool() const {
  if (!is_bool()) throw ParseError("json value is not a boolean");
  return std::get<bool>(data_);
}
double Value::as_number() const {
  if (!is_number()) throw ParseError("json value is not a number");
  return std::get<double>(data_);
}
const std::string& Value::as_string() const {
  if (!is_string()) throw ParseError("json value is not a string");
  return std::get<std::string>(data_);
}
const Array& Value::as_array() const {
  if (!is_array()) throw ParseError("json value is not an array");
  return std::get<Array>(data_);
}
const Object& Value::as_object() const {
  if (!is_object()) throw ParseError("json value is not an object");
  return std::get<Object>(data_);
}
Array& Value::as_array() {
  if (!is_array()) throw ParseError("json value is not an array");
  return std::get<Array>(data_);
}
Object& Value::as_object() {
  if (!is_object()) throw ParseError("json value is not an object");
  return std::get<Object>(data_);
}

const Value* Value::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<Object>(data_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("json: " + message + " (offset " + std::to_string(pos_) + ")");
  }
  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  char get() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }
  bool consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    get();  // '{'
    Object obj;
    skip_ws();
    if (peek() == '}') {
      get();
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      if (get() != ':') fail("expected ':'");
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char next = get();
      if (next == '}') return Value(std::move(obj));
      if (next != ',') fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    get();  // '['
    Array arr;
    skip_ws();
    if (peek() == ']') {
      get();
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char next = get();
      if (next == ']') return Value(std::move(arr));
      if (next != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    if (get() != '"') fail("expected string");
    std::string out;
    for (;;) {
      const char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = get();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = get();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!eof()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("bad number");
    return Value(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void write_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_value(const Value& value, int depth, std::string& out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  const std::string inner(static_cast<size_t>(depth + 1) * 2, ' ');
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    const double d = value.as_number();
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      out += std::to_string(static_cast<long long>(d));
    } else {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", d);
      out += buffer;
    }
  } else if (value.is_string()) {
    write_string(value.as_string(), out);
  } else if (value.is_array()) {
    const auto& arr = value.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += "[\n";
    for (size_t i = 0; i < arr.size(); ++i) {
      out += inner;
      write_value(arr[i], depth + 1, out);
      if (i + 1 < arr.size()) out += ',';
      out += '\n';
    }
    out += indent + "]";
  } else {
    const auto& obj = value.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += "{\n";
    size_t i = 0;
    for (const auto& [k, v] : obj) {
      out += inner;
      write_string(k, out);
      out += ": ";
      write_value(v, depth + 1, out);
      if (++i < obj.size()) out += ',';
      out += '\n';
    }
    out += indent + "}";
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw IoError("cannot open JSON file '" + path + "'");
  return parse(*text);
}

std::string write(const Value& value) {
  std::string out;
  write_value(value, 0, out);
  out += '\n';
  return out;
}

}  // namespace decisive::json
