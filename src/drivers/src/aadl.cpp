#include "decisive/drivers/aadl.hpp"

#include <cctype>
#include <optional>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"

namespace decisive::drivers {

std::optional<std::string> AadlSubcomponent::property(std::string_view key) const {
  for (const auto& [k, v] : properties) {
    if (iequals(k, key)) return v;
  }
  return std::nullopt;
}

const AadlComponentType* AadlPackage::type(std::string_view type_name) const noexcept {
  for (const auto& t : types) {
    if (iequals(t.name, type_name)) return &t;
  }
  return nullptr;
}

const AadlImplementation* AadlPackage::implementation(
    std::string_view type_name) const noexcept {
  for (const auto& impl : implementations) {
    if (iequals(impl.type_name, type_name)) return &impl;
  }
  return nullptr;
}

namespace {

/// Word/punctuation tokenizer for the AADL subset. AADL keywords are
/// case-insensitive; identifiers keep their case.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  [[nodiscard]] bool eof() {
    skip_ws();
    return pos_ >= text_.size();
  }

  /// Peeks the next token without consuming it.
  std::string peek() {
    const size_t saved = pos_;
    std::string token = next();
    pos_ = saved;
    return token;
  }

  std::string next() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_];
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') {
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      return std::string(text_.substr(start, pos_ - start));
    }
    // Multi-char operators.
    if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
      pos_ += 2;
      return "->";
    }
    if (c == '=' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
      pos_ += 2;
      return "=>";
    }
    if (c == ':' && pos_ + 1 < text_.size() && text_[pos_ + 1] == ':') {
      pos_ += 2;
      return "::";
    }
    ++pos_;
    return std::string(1, c);
  }

  /// Consumes a token and checks it (case-insensitively for keywords).
  void expect(std::string_view token) {
    const std::string got = next();
    if (!iequals(got, token)) {
      fail("expected '" + std::string(token) + "', got '" + got + "'");
    }
  }

  bool accept(std::string_view token) {
    const size_t saved = pos_;
    if (!eof() && iequals(peek(), token)) {
      next();
      return true;
    }
    pos_ = saved;
    return false;
  }

  [[noreturn]] void fail(const std::string& message) {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError("aadl: " + message + " (line " + std::to_string(line) + ")");
  }

 private:
  void skip_ws() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      // "--" comments to end of line.
      if (pos_ + 1 < text_.size() && text_[pos_] == '-' && text_[pos_ + 1] == '-' &&
          (pos_ + 2 >= text_.size() || text_[pos_ + 2] != '>')) {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool is_category(const std::string& word) {
  return iequals(word, "system") || iequals(word, "device") || iequals(word, "process") ||
         iequals(word, "abstract") || iequals(word, "thread") || iequals(word, "processor");
}

class Parser {
 public:
  explicit Parser(std::string_view text) : lex_(text) {}

  AadlPackage parse() {
    lex_.expect("package");
    package_.name = lex_.next();
    lex_.accept("public");  // optional section marker

    while (!lex_.eof()) {
      const std::string word = lex_.peek();
      if (iequals(word, "end")) {
        lex_.next();
        const std::string closing = lex_.next();
        if (!iequals(closing, package_.name)) {
          lex_.fail("package ends with '" + closing + "', expected '" + package_.name + "'");
        }
        lex_.expect(";");
        return package_;
      }
      if (is_category(word)) {
        parse_classifier();
      } else {
        lex_.fail("unsupported construct '" + word + "' (supported: component types and "
                  "implementations)");
      }
    }
    lex_.fail("missing 'end " + package_.name + ";'");
  }

 private:
  void parse_classifier() {
    const std::string category = to_lower(lex_.next());
    if (lex_.accept("implementation")) {
      parse_implementation();
      return;
    }
    // Component type declaration.
    AadlComponentType type;
    type.category = category;
    type.name = lex_.next();
    if (lex_.accept("features")) {
      while (!iequals(lex_.peek(), "end")) {
        AadlFeature feature;
        feature.name = lex_.next();
        lex_.expect(":");
        std::string direction = to_lower(lex_.next());
        if (direction == "in" && iequals(lex_.peek(), "out")) {
          lex_.next();
          direction = "in out";
        }
        if (direction != "in" && direction != "out" && direction != "in out") {
          lex_.fail("feature '" + feature.name + "' needs a direction (in/out)");
        }
        feature.direction = direction;
        // "feature" / "data port" / "port" keyword(s) until ';'.
        while (!iequals(lex_.peek(), ";")) lex_.next();
        lex_.expect(";");
        type.features.push_back(std::move(feature));
      }
    }
    lex_.expect("end");
    const std::string closing = lex_.next();
    if (!iequals(closing, type.name)) {
      lex_.fail("type '" + type.name + "' ends with '" + closing + "'");
    }
    lex_.expect(";");
    package_.types.push_back(std::move(type));
  }

  void parse_implementation() {
    AadlImplementation impl;
    impl.type_name = lex_.next();
    lex_.expect(".");
    impl.impl_name = lex_.next();

    for (;;) {
      if (lex_.accept("subcomponents")) {
        while (!iequals(lex_.peek(), "connections") && !iequals(lex_.peek(), "end") &&
               !iequals(lex_.peek(), "properties")) {
          impl.subcomponents.push_back(parse_subcomponent());
        }
        continue;
      }
      if (lex_.accept("connections")) {
        while (!iequals(lex_.peek(), "end") && !iequals(lex_.peek(), "properties") &&
               !iequals(lex_.peek(), "subcomponents")) {
          impl.connections.push_back(parse_connection());
        }
        continue;
      }
      if (lex_.accept("properties")) {
        // Implementation-level properties: skip to 'end'.
        while (!iequals(lex_.peek(), "end")) lex_.next();
        continue;
      }
      break;
    }

    lex_.expect("end");
    const std::string closing_type = lex_.next();
    lex_.expect(".");
    const std::string closing_impl = lex_.next();
    if (!iequals(closing_type, impl.type_name) || !iequals(closing_impl, impl.impl_name)) {
      lex_.fail("implementation '" + impl.type_name + "." + impl.impl_name +
                "' has mismatched end");
    }
    lex_.expect(";");
    package_.implementations.push_back(std::move(impl));
  }

  AadlSubcomponent parse_subcomponent() {
    AadlSubcomponent sub;
    sub.name = lex_.next();
    lex_.expect(":");
    const std::string category = lex_.next();
    if (!is_category(category)) {
      lex_.fail("subcomponent '" + sub.name + "' has unsupported category '" + category + "'");
    }
    sub.category = to_lower(category);
    sub.type = lex_.next();
    // Optional qualified type "pkg::Type".
    while (lex_.accept("::")) sub.type = lex_.next();
    // Optional ".impl" qualifier.
    if (lex_.accept(".")) lex_.next();
    // Optional inline property associations { Key => value; ... }.
    if (lex_.accept("{")) {
      while (!lex_.accept("}")) {
        std::string key = lex_.next();
        while (lex_.accept("::")) key += "::" + lex_.next();
        lex_.expect("=>");
        std::string value;
        while (!iequals(lex_.peek(), ";")) {
          if (!value.empty()) value += ' ';
          value += lex_.next();
        }
        lex_.expect(";");
        sub.properties.emplace_back(std::move(key), std::move(value));
      }
    }
    lex_.expect(";");
    return sub;
  }

  AadlConnection parse_connection() {
    AadlConnection conn;
    conn.name = lex_.next();
    lex_.expect(":");
    // "feature"/"port" keyword(s) before the endpoints.
    while (!iequals(lex_.peek(), ";")) {
      const std::string word = lex_.next();
      if (iequals(word, "feature") || iequals(word, "port")) continue;
      // First endpoint: word is either "comp" (followed by .feature) or a
      // bare feature of the implementation itself.
      conn.src_component = word;
      if (lex_.accept(".")) {
        conn.src_feature = lex_.next();
      } else {
        conn.src_feature = conn.src_component;
        conn.src_component.clear();
      }
      lex_.expect("->");
      conn.dst_component = lex_.next();
      if (lex_.accept(".")) {
        conn.dst_feature = lex_.next();
      } else {
        conn.dst_feature = conn.dst_component;
        conn.dst_component.clear();
      }
      break;
    }
    lex_.expect(";");
    return conn;
  }

  Lexer lex_;
  AadlPackage package_;
};

}  // namespace

AadlPackage parse_aadl(std::string_view text) {
  static obs::Counter& parses = obs::Registry::global().counter("decisive_parse_aadl_total");
  static obs::Histogram& seconds =
      obs::Registry::global().histogram("decisive_parse_aadl_seconds");
  parses.add();
  obs::Span span("parse.aadl", &seconds);
  return Parser(text).parse();
}

AadlPackage parse_aadl_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw IoError("cannot open AADL file '" + path + "'");
  return parse_aadl(*text);
}

}  // namespace decisive::drivers
