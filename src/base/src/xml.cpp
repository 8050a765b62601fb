#include "decisive/base/xml.hpp"

#include <fstream>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::xml {

const std::string* Element::attribute(std::string_view attr_name) const noexcept {
  for (const auto& [k, v] : attributes) {
    if (k == attr_name) return &v;
  }
  return nullptr;
}

std::string Element::attribute_or(std::string_view attr_name, std::string_view fallback) const {
  const std::string* value = attribute(attr_name);
  return value ? *value : std::string(fallback);
}

const Element* Element::child(std::string_view child_name) const noexcept {
  for (const auto& c : children) {
    if (c->name == child_name) return c.get();
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(std::string_view child_name) const {
  std::vector<const Element*> out;
  for (const auto& c : children) {
    if (c->name == child_name) out.push_back(c.get());
  }
  return out;
}

Element& Element::add_child(std::string child_name) {
  children.push_back(std::make_unique<Element>());
  children.back()->name = std::move(child_name);
  return *children.back();
}

void Element::set_attribute(std::string attr_name, std::string value) {
  for (auto& [k, v] : attributes) {
    if (k == attr_name) {
      v = std::move(value);
      return;
    }
  }
  attributes.emplace_back(std::move(attr_name), std::move(value));
}

namespace {

/// Receives each child of the document root instead of the root keeping it.
using ChildSink = std::function<void(const Element& root, const Element& child)>;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<Element> parse_document(const ChildSink* root_children = nullptr) {
    skip_misc();
    auto root = parse_element(root_children);
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after document element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError("xml: " + message + " (line " + std::to_string(line) + ")");
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char get() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }
  bool consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }
  void expect(std::string_view token) {
    if (!consume(token)) fail("expected '" + std::string(token) + "'");
  }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) ++pos_;
  }

  // Skips whitespace, comments, PIs and the XML declaration between nodes.
  void skip_misc() {
    for (;;) {
      skip_ws();
      if (consume("<!--")) {
        const size_t end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (consume("<?")) {
        const size_t end = text_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated processing instruction");
        pos_ = end + 2;
      } else if (consume("<!DOCTYPE")) {
        const size_t end = text_.find('>', pos_);
        if (end == std::string_view::npos) fail("unterminated DOCTYPE");
        pos_ = end + 1;
      } else {
        return;
      }
    }
  }

  static bool is_name_char(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '-' || c == '.' || c == ':';
  }

  std::string parse_name() {
    const size_t start = pos_;
    while (!eof() && is_name_char(peek())) ++pos_;
    if (pos_ == start) fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string decode_entities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      const size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) fail("unterminated entity reference");
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else if (!entity.empty() && entity[0] == '#') {
        long code = 0;
        const std::string_view digits = entity.substr(1);
        if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
          code = std::strtol(std::string(digits.substr(1)).c_str(), nullptr, 16);
        } else {
          code = std::strtol(std::string(digits).c_str(), nullptr, 10);
        }
        if (code <= 0 || code > 0x10FFFF) fail("bad character reference");
        // UTF-8 encode.
        const unsigned long cp = static_cast<unsigned long>(code);
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xC0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (cp >> 18));
          out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        }
      } else {
        fail("unknown entity '&" + std::string(entity) + ";'");
      }
      i = semi;
    }
    return out;
  }

  /// Parses one element; its children go to `sink` when given, else into it.
  std::unique_ptr<Element> parse_element(const ChildSink* sink = nullptr) {
    expect("<");
    auto element = std::make_unique<Element>();
    element->name = parse_name();
    // Attributes.
    for (;;) {
      skip_ws();
      if (eof()) fail("unterminated start tag");
      if (consume("/>")) return element;
      if (consume(">")) break;
      std::string attr = parse_name();
      skip_ws();
      expect("=");
      skip_ws();
      const char quote = get();
      if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
      const size_t start = pos_;
      while (!eof() && peek() != quote) ++pos_;
      if (eof()) fail("unterminated attribute value");
      element->attributes.emplace_back(std::move(attr),
                                       decode_entities(text_.substr(start, pos_ - start)));
      ++pos_;  // closing quote
    }
    // Content.
    for (;;) {
      if (eof()) fail("unterminated element '" + element->name + "'");
      if (consume("<!--")) {
        const size_t end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (consume("<![CDATA[")) {
        const size_t end = text_.find("]]>", pos_);
        if (end == std::string_view::npos) fail("unterminated CDATA section");
        element->text.append(text_.substr(pos_, end - pos_));
        pos_ = end + 3;
      } else if (consume("</")) {
        const std::string closing = parse_name();
        if (closing != element->name) {
          fail("mismatched closing tag '" + closing + "' for '" + element->name + "'");
        }
        skip_ws();
        expect(">");
        return element;
      } else if (!eof() && peek() == '<') {
        std::unique_ptr<Element> child = parse_element();
        if (sink != nullptr) {
          (*sink)(*element, *child);
        } else {
          element->children.push_back(std::move(child));
        }
      } else {
        const size_t start = pos_;
        while (!eof() && peek() != '<') ++pos_;
        const std::string chunk = decode_entities(text_.substr(start, pos_ - start));
        const std::string_view trimmed = trim(chunk);
        if (!trimmed.empty()) {
          if (!element->text.empty()) element->text += ' ';
          element->text += trimmed;
        }
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void write_element(const Element& element, Writer& writer) {
  writer.start(element.name);
  for (const auto& [k, v] : element.attributes) writer.attribute(k, v);
  if (!element.text.empty()) writer.text(element.text);
  for (const auto& child : element.children) write_element(*child, writer);
  writer.end();
}

}  // namespace

std::unique_ptr<Element> parse(std::string_view text) { return Parser(text).parse_document(); }

std::unique_ptr<Element> parse_children(std::string_view text, const ChildSink& on_child) {
  return Parser(text).parse_document(&on_child);
}

std::unique_ptr<Element> parse_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw IoError("cannot open XML file '" + path + "'");
  return parse(*text);
}

std::string write(const Element& root) {
  std::string out;
  Writer writer(out);
  write_element(root, writer);
  return out;
}

Writer::Writer(std::string& out) : out_(out) {
  out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
}

void Writer::indent(size_t depth) { out_.append(depth * 2, ' '); }

void Writer::start(std::string_view name) {
  if (!open_.empty()) {
    Frame& parent = open_.back();
    if (parent.state == Open::Tag) out_ += '>';
    if (parent.state != Open::Children) out_ += '\n';
    parent.state = Open::Children;
  }
  indent(open_.size());
  out_ += '<';
  out_ += name;
  open_.push_back({std::string(name), Open::Tag});
}

void Writer::attribute(std::string_view name, std::string_view value) {
  out_ += ' ';
  out_ += name;
  out_ += "=\"";
  out_ += escape(value);
  out_ += '"';
}

void Writer::text(std::string_view content) {
  out_ += '>';
  out_ += escape(content);
  open_.back().state = Open::Text;
}

void Writer::end() {
  const Frame frame = std::move(open_.back());
  open_.pop_back();
  if (frame.state == Open::Tag) {
    out_ += "/>\n";
    return;
  }
  if (frame.state == Open::Children) indent(open_.size());
  out_ += "</";
  out_ += frame.name;
  out_ += ">\n";
}

void write_file(const std::string& path, const Element& root) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot write XML file '" + path + "'");
  out << write(root);
  if (!out) throw IoError("failed while writing XML file '" + path + "'");
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace decisive::xml
