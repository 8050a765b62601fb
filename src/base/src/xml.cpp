#include "decisive/base/xml.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
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

/// The number of '\n' in `text`, eight bytes at a time: in `x`, a byte is
/// zero where the text has '\n', and `zero` keeps the top bit of exactly
/// those bytes (bytes carry nothing into each other: (b & 0x7f) + 0x7f is at
/// most 0xfe). A streamed read counts every byte it drops from its window,
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

/// The bytes a name may hold.
constexpr std::array<bool, 256> kNameChars = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[static_cast<size_t>(c)] = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                                    c == '.' || c == ':';
  }
  return table;
}();

/// Adds a text or CDATA event to `element`'s text: CDATA verbatim, a text
/// run after a space.
void add_text(Element& element, const Event& event) {
  if (event.kind == Event::Kind::Text && !element.text.empty()) element.text += ' ';
  element.text += event.value;
}

/// The element tree of one root child's events.
std::unique_ptr<Element> build_element(const std::vector<Event>& events) {
  auto element = std::make_unique<Element>();
  std::vector<Element*> open;
  for (const Event& event : events) {
    switch (event.kind) {
      case Event::Kind::Start:
        if (open.empty()) {
          element->name = event.name;
          open.push_back(element.get());
        } else {
          open.push_back(&open.back()->add_child(std::string(event.name)));
        }
        break;
      case Event::Kind::Attribute:
        open.back()->attributes.emplace_back(event.name, event.value);
        break;
      case Event::Kind::Text:
      case Event::Kind::Cdata: add_text(*open.back(), event); break;
      case Event::Kind::End: open.pop_back(); break;
    }
  }
  return element;
}

/// Appends `text` to `out` with the five predefined entities escaped, copying
/// the runs between them whole.
void append_escaped(std::string& out, std::string_view text) {
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char* entity = nullptr;
    switch (text[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      case '\'': entity = "&apos;"; break;
      default: continue;
    }
    out.append(text.data() + run, i - run);
    out += entity;
    run = i + 1;
  }
  out.append(text.data() + run, text.size() - run);
}

void write_element(const Element& element, Writer& writer) {
  writer.start(element.name);
  for (const auto& [k, v] : element.attributes) writer.attribute(k, v);
  if (!element.text.empty()) writer.text(element.text);
  for (const auto& child : element.children) write_element(*child, writer);
  writer.end();
}

}  // namespace

const std::string_view* find_attribute(const std::vector<Event>& events, size_t tag,
                                       std::string_view attr_name) noexcept {
  for (size_t i = tag + 1; i < events.size() && events[i].kind == Event::Kind::Attribute; ++i) {
    if (events[i].name == attr_name) return &events[i].value;
  }
  return nullptr;
}

class Reader::Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  /// A seekable stream shorter than the window is read whole by the first
  /// read, into a buffer of its size.
  Tokenizer(std::istream& in, size_t window)
      : in_(&in), window_(std::max<size_t>(window, 1)), at_end_(false) {
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

  /// Reader::next. The window holds one piece of the root's content at a
  /// time: the prologue with the root's start tag, then each child,
  /// comment, CDATA section or text run. A piece that fails to read while
  /// the stream has more, or a text run that reaches the window's end, is
  /// read again from its start once more of the stream is in; a read that
  /// succeeded never looked past the window. Only a failure with the whole
  /// rest of the stream in the window is reported, so it reads exactly as
  /// the whole text's would, line number included. A child is handed over
  /// outside the retry, so the caller's own errors propagate.
  bool next() {
    if (state_ == State::Prologue) read_root();
    while (state_ == State::Content) {
      // Keep an eighth of a window ahead, so that only a piece longer than
      // that ends up read twice, and a refill moves at most that much.
      if (!at_end_ && text_.size() - pos_ < window_ / 8) refill(pos_);
      const size_t start = pos_;
      Item item = Item::Other;
      try {
        item = read_piece();
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
      if (item == Item::Element) return true;
      if (item == Item::Closed) {
        finish_document();
      } else {
        for (const Event& event : events_) add_text(root_, event);
      }
    }
    return false;
  }

  std::vector<Event> events_;
  Element root_;

 private:
  /// What read_item met.
  enum class Item { Closed, Element, Text, Other };

  [[noreturn]] void fail(const std::string& message) const {
    const size_t line = 1 + line_base_ + count_newlines(text_.substr(0, pos_));
    throw ParseError("xml: " + message + " (line " + std::to_string(line) + ")");
  }

  /// Streaming: drops the window's bytes before `keep_from` and appends the
  /// next bytes of the stream, as many as the window holds (so a piece longer
  /// than the window doubles it). pos_ moves with the kept bytes. False once
  /// the stream was already spent, and always for a whole text.
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

  /// The prologue and the root's start tag, into root_.
  void read_root() {
    bool closed = false;
    for (;;) {
      try {
        pos_ = 0;
        start_piece();
        skip_misc();
        closed = read_start_tag();
        break;
      } catch (const ParseError&) {
        if (!refill(0)) throw;
      }
    }
    finish_piece();
    root_.name = events_.front().name;
    for (size_t i = 1; i < events_.size(); ++i) {
      root_.attributes.emplace_back(events_[i].name, events_[i].value);
    }
    state_ = State::Content;
    if (closed) finish_document();
  }

  /// After the root's end tag: the rest of the stream holds nothing but
  /// whitespace, comments and processing instructions.
  void finish_document() {
    while (refill(pos_)) {
    }
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after document element");
    state_ = State::Done;
  }

  void start_piece() {
    events_.clear();
    scratch_.clear();
    decoded_.clear();
    open_.clear();
  }

  /// Points each decoded value's view into scratch_, which has stopped
  /// growing.
  void finish_piece() {
    for (const auto& [event, offset] : decoded_) {
      Event& decoded = events_[event];
      decoded.value = std::string_view(scratch_.data() + offset, decoded.value.size());
    }
  }

  /// One piece of the root's content into events_: a whole child element,
  /// a CDATA section or a text run (an event unless blank), a comment, or
  /// the root's end tag.
  Item read_piece() {
    start_piece();
    const Item item = read_item(root_.name);
    if (item == Item::Element) {
      while (!open_.empty()) {
        const std::string_view name = events_[open_.back()].name;
        if (read_item(name) == Item::Closed) {
          events_.push_back({Event::Kind::End, name, {}});
          open_.pop_back();
        }
      }
    }
    finish_piece();
    return item;
  }

  /// The next item of the open element `name`'s content. An element's start
  /// tag goes to events_, with its End when it is self-closed, else it is
  /// left open on open_.
  Item read_item(std::string_view name) {
    if (eof()) fail("unterminated element '" + std::string(name) + "'");
    if (consume("<!--")) {
      const size_t end = text_.find("-->", pos_);
      if (end == std::string_view::npos) fail("unterminated comment");
      pos_ = end + 3;
      return Item::Other;
    }
    if (consume("<![CDATA[")) {
      const size_t end = text_.find("]]>", pos_);
      if (end == std::string_view::npos) fail("unterminated CDATA section");
      events_.push_back({Event::Kind::Cdata, {}, text_.substr(pos_, end - pos_)});
      pos_ = end + 3;
      return Item::Other;
    }
    if (consume("</")) {
      const std::string_view closing = read_name();
      if (closing != name) {
        fail("mismatched closing tag '" + std::string(closing) + "' for '" + std::string(name) +
             "'");
      }
      skip_ws();
      expect(">");
      return Item::Closed;
    }
    if (text_[pos_] == '<') {
      const size_t tag = events_.size();
      if (read_start_tag()) {
        events_.push_back({Event::Kind::End, events_[tag].name, {}});
      } else {
        open_.push_back(tag);
      }
      return Item::Element;
    }
    const size_t start = pos_;
    pos_ = std::min(text_.find('<', pos_), text_.size());
    add_value(Event::Kind::Text, {}, text_.substr(start, pos_ - start));
    return Item::Text;
  }

  /// A start tag into events_: its Start and its attributes. True when it
  /// closes itself ("<name .../>").
  bool read_start_tag() {
    expect("<");
    events_.push_back({Event::Kind::Start, read_name(), {}});
    for (;;) {
      skip_ws();
      if (eof()) fail("unterminated start tag");
      if (consume("/>")) return true;
      if (consume(">")) return false;
      const std::string_view attr = read_name();
      skip_ws();
      expect("=");
      skip_ws();
      if (eof()) fail("unexpected end of input");
      const char quote = text_[pos_++];
      if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
      const size_t start = pos_;
      pos_ = std::min(text_.find(quote, pos_), text_.size());
      if (eof()) fail("unterminated attribute value");
      add_value(Event::Kind::Attribute, attr, text_.substr(start, pos_ - start));
      ++pos_;  // closing quote
    }
  }

  /// Adds an event with `raw` as its value: `raw` itself when it holds no
  /// entity, else its decoding in scratch_; a text run is trimmed, and
  /// dropped when blank.
  void add_value(Event::Kind kind, std::string_view name, std::string_view raw) {
    const bool text = kind == Event::Kind::Text;
    if (raw.find('&') == std::string_view::npos) {
      const std::string_view value = text ? trim(raw) : raw;
      if (!text || !value.empty()) events_.push_back({kind, name, value});
      return;
    }
    const size_t from = scratch_.size();
    decode_entities(raw);
    std::string_view value(scratch_.data() + from, scratch_.size() - from);
    if (text) {
      value = trim(value);
      if (value.empty()) {
        scratch_.resize(from);
        return;
      }
    }
    decoded_.emplace_back(events_.size(), static_cast<size_t>(value.data() - scratch_.data()));
    events_.push_back({kind, name, value});
  }

  /// Appends `raw` to scratch_ with its entities decoded.
  void decode_entities(std::string_view raw) {
    size_t i = 0;
    for (size_t amp = raw.find('&'); amp != std::string_view::npos; amp = raw.find('&', i)) {
      scratch_.append(raw.substr(i, amp - i));
      const size_t semi = raw.find(';', amp);
      if (semi == std::string_view::npos) fail("unterminated entity reference");
      const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "amp") scratch_ += '&';
      else if (entity == "lt") scratch_ += '<';
      else if (entity == "gt") scratch_ += '>';
      else if (entity == "quot") scratch_ += '"';
      else if (entity == "apos") scratch_ += '\'';
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
          scratch_ += static_cast<char>(cp);
        } else if (cp < 0x800) {
          scratch_ += static_cast<char>(0xC0 | (cp >> 6));
          scratch_ += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
          scratch_ += static_cast<char>(0xE0 | (cp >> 12));
          scratch_ += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          scratch_ += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          scratch_ += static_cast<char>(0xF0 | (cp >> 18));
          scratch_ += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
          scratch_ += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          scratch_ += static_cast<char>(0x80 | (cp & 0x3F));
        }
      } else {
        fail("unknown entity '&" + std::string(entity) + ";'");
      }
      i = semi + 1;
    }
    scratch_.append(raw.substr(i));
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }

  bool consume(std::string_view token) noexcept {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void expect(std::string_view token) {
    if (!consume(token)) fail("expected '" + std::string(token) + "'");
  }

  void skip_ws() noexcept {
    while (!eof() && (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                      text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  /// Skips whitespace, comments, PIs and the XML declaration between nodes.
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

  std::string_view read_name() {
    const size_t start = pos_;
    while (!eof() && kNameChars[static_cast<unsigned char>(text_[pos_])]) ++pos_;
    if (pos_ == start) fail("expected a name");
    return text_.substr(start, pos_ - start);
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
  bool at_end_ = true;

  enum class State { Prologue, Content, Done } state_ = State::Prologue;
  /// Values of the current piece that held an entity, decoded, as (index in
  /// events_, offset in scratch_): their views are set by finish_piece, as
  /// scratch_ may move while it grows.
  std::string scratch_;
  std::vector<std::pair<size_t, size_t>> decoded_;
  /// Indexes in events_ of the open elements' Start events.
  std::vector<size_t> open_;
};

Reader::Reader(std::string_view text) : tokenizer_(std::make_unique<Tokenizer>(text)) {}

Reader::Reader(std::istream& in, size_t window)
    : tokenizer_(std::make_unique<Tokenizer>(in, window)) {}

Reader::~Reader() = default;

bool Reader::next() { return tokenizer_->next(); }

const std::vector<Event>& Reader::events() const noexcept { return tokenizer_->events_; }

const Element& Reader::root() const noexcept { return tokenizer_->root_; }

std::unique_ptr<Element> parse(std::string_view text) {
  Reader reader(text);
  std::vector<std::unique_ptr<Element>> children;
  while (reader.next()) children.push_back(build_element(reader.events()));
  auto root = std::make_unique<Element>();
  root->name = reader.root().name;
  root->attributes = reader.root().attributes;
  root->text = reader.root().text;
  root->children = std::move(children);
  return root;
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
  append_escaped(out_, value);
  out_ += '"';
}

void Writer::text(std::string_view content) {
  out_ += '>';
  append_escaped(out_, content);
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

}  // namespace decisive::xml
