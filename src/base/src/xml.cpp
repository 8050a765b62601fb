#include "decisive/base/xml.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
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

/// The number of '\n' in `text`, eight bytes at a time: in `x`, a byte is
/// zero where the text has '\n', and `zero` keeps the top bit of exactly
/// those bytes (bytes carry nothing into each other: (b & 0x7f) + 0x7f is at
/// most 0xfe). A streamed parse counts every byte it drops from its window,
/// and a byte loop there cost as much as the rest of the window's work.
size_t count_newlines(std::string_view text) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr std::uint64_t kNewlines = 0x0a0a0a0a0a0a0a0aULL;
  constexpr std::uint64_t kBytes = 0x0101010101010101ULL;
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, text.data() + i, 8);
    const std::uint64_t x = word ^ kNewlines;
    const std::uint64_t zero = ~(((x & kLow7) + kLow7) | x | kLow7);
    count += static_cast<size_t>(((zero >> 7) * kBytes) >> 56);
  }
  for (; i < text.size(); ++i) count += text[i] == '\n' ? 1 : 0;
  return count;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Reads `in` through a window of about `window` bytes instead of taking
  /// the whole text (parse_streamed). A seekable stream shorter than the
  /// window is read whole by the first read, into a buffer of its size.
  Parser(std::istream& in, size_t window) : in_(&in), window_(std::max<size_t>(window, 1)) {
    std::streambuf* buf = in.rdbuf();
    const std::streampos here =
        buf != nullptr ? buf->pubseekoff(0, std::ios::cur, std::ios::in) : std::streampos(-1);
    if (here != std::streampos(-1)) {
      const std::streamoff rest = buf->pubseekoff(0, std::ios::end, std::ios::in) - here;
      buf->pubseekpos(here, std::ios::in);
      // One byte over, so that the first read already meets the end.
      if (rest >= 0 && static_cast<std::uintmax_t>(rest) < window_) {
        window_ = static_cast<size_t>(rest) + 1;
      }
    }
    refill(0);
  }

  std::unique_ptr<Element> parse_document(const ChildSink* root_children = nullptr) {
    if (in_ != nullptr) return parse_streamed(*root_children);
    skip_misc();
    auto root = parse_element(root_children);
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after document element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    size_t line = 1 + line_base_;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError("xml: " + message + " (line " + std::to_string(line) + ")");
  }

  /// Streaming: drops the window's bytes before `keep_from` and appends the
  /// next bytes of the stream, as many as the window holds (so a piece longer
  /// than the window doubles it). pos_ moves with the kept bytes. False once
  /// the stream was already spent.
  bool refill(size_t keep_from) {
    if (at_end_) return false;
    line_base_ += count_newlines(text_.substr(0, keep_from));
    const size_t kept = text_.size() - keep_from;
    std::memmove(buffer_.data(), buffer_.data() + keep_from, kept);
    pos_ -= std::min(pos_, keep_from);
    const size_t want = std::max(window_, kept);
    if (buffer_.size() < kept + want) buffer_.resize(kept + want);
    in_->read(buffer_.data() + kept, static_cast<std::streamsize>(want));
    const auto got = static_cast<size_t>(in_->gcount());
    at_end_ = got < want;
    text_ = std::string_view(buffer_.data(), kept + got);
    return true;
  }

  /// parse_document over a stream. The window holds one piece of the root's
  /// content at a time: the prologue with the root's start tag, then each
  /// child, comment or text run. A piece that fails to parse while the
  /// stream has more, or a text run that reaches the window's end, is parsed
  /// again from its start once more of the stream is in; a parse that
  /// succeeded never looked past the window. Only a failure with the whole
  /// rest of the stream in the window is reported, so it reads exactly as the
  /// whole text's parse would, line number included. Each child goes to
  /// `sink` after it parsed, outside the retry, so the sink's own errors
  /// propagate.
  std::unique_ptr<Element> parse_streamed(const ChildSink& sink) {
    std::unique_ptr<Element> root;
    bool closed = false;
    for (;;) {
      try {
        pos_ = 0;
        skip_misc();
        root = parse_start_tag(closed);
        break;
      } catch (const ParseError&) {
        if (!refill(0)) throw;
      }
    }
    std::unique_ptr<Element> child;
    std::string text;
    while (!closed) {
      // Keep an eighth of a window ahead, so that only a piece longer than
      // that ends up parsed twice, and a refill moves at most that much.
      if (!at_end_ && text_.size() - pos_ < window_ / 8) refill(pos_);
      const size_t start = pos_;
      Item item = Item::Comment;
      try {
        item = parse_item(*root, child, text);
        if (item == Item::Text && eof() && !at_end_) {
          pos_ = start;
          refill(start);
          continue;
        }
      } catch (const ParseError&) {
        pos_ = start;
        if (!refill(start)) throw;
        continue;
      }
      closed = item == Item::Closed;
      if (item == Item::Child) {
        sink(*root, *child);
      } else {
        add_text(*root, item, text);
      }
    }
    while (refill(pos_)) {
    }
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after document element");
    return root;
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

  /// Parses a start tag into a new element; `closed` tells "<name .../>".
  std::unique_ptr<Element> parse_start_tag(bool& closed) {
    expect("<");
    auto element = std::make_unique<Element>();
    element->name = parse_name();
    // Attributes.
    for (;;) {
      skip_ws();
      if (eof()) fail("unterminated start tag");
      if (consume("/>")) {
        closed = true;
        return element;
      }
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
    closed = false;
    return element;
  }

  /// One piece of an element's content.
  enum class Item { Closed, Child, Cdata, Text, Comment };

  /// Parses the next piece of `element`'s content without adding it: a
  /// child into `child`, CDATA or a text run (decoded, trimmed) into `text`.
  Item parse_item(const Element& element, std::unique_ptr<Element>& child, std::string& text) {
    if (eof()) fail("unterminated element '" + element.name + "'");
    if (consume("<!--")) {
      const size_t end = text_.find("-->", pos_);
      if (end == std::string_view::npos) fail("unterminated comment");
      pos_ = end + 3;
      return Item::Comment;
    }
    if (consume("<![CDATA[")) {
      const size_t end = text_.find("]]>", pos_);
      if (end == std::string_view::npos) fail("unterminated CDATA section");
      text.assign(text_.substr(pos_, end - pos_));
      pos_ = end + 3;
      return Item::Cdata;
    }
    if (consume("</")) {
      const std::string closing = parse_name();
      if (closing != element.name) {
        fail("mismatched closing tag '" + closing + "' for '" + element.name + "'");
      }
      skip_ws();
      expect(">");
      return Item::Closed;
    }
    if (!eof() && peek() == '<') {
      child = parse_element();
      return Item::Child;
    }
    const size_t start = pos_;
    while (!eof() && peek() != '<') ++pos_;
    const std::string chunk = decode_entities(text_.substr(start, pos_ - start));
    text.assign(trim(chunk));
    return Item::Text;
  }

  /// Adds CDATA verbatim, and a non-empty text run after a space.
  static void add_text(Element& element, Item item, const std::string& text) {
    if (item == Item::Cdata) {
      element.text += text;
    } else if (item == Item::Text && !text.empty()) {
      if (!element.text.empty()) element.text += ' ';
      element.text += text;
    }
  }

  /// Parses one element; its children go to `sink` when given, else into it.
  std::unique_ptr<Element> parse_element(const ChildSink* sink = nullptr) {
    bool closed = false;
    auto element = parse_start_tag(closed);
    std::unique_ptr<Element> child;
    std::string text;
    while (!closed) {
      const Item item = parse_item(*element, child, text);
      closed = item == Item::Closed;
      if (item != Item::Child) {
        add_text(*element, item, text);
      } else if (sink != nullptr) {
        (*sink)(*element, *child);
      } else {
        element->children.push_back(std::move(child));
      }
    }
    return element;
  }

  std::string_view text_;
  size_t pos_ = 0;
  // Streaming only: the window (text_ views the front of buffer_), and the
  // newlines of the bytes dropped from its front (so fail() counts lines
  // from the start of the stream).
  std::istream* in_ = nullptr;
  size_t window_ = 0;
  std::string buffer_;
  size_t line_base_ = 0;
  bool at_end_ = false;
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

std::unique_ptr<Element> parse_children(std::istream& in, const ChildSink& on_child,
                                        size_t window) {
  return Parser(in, window).parse_document(&on_child);
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
