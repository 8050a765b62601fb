// Minimal XML tokenizer, DOM parser and writer, sufficient for XMI-style
// model persistence and for the external-model XML driver. Supports
// elements, attributes, character data, comments, processing instructions
// and the five predefined entities. No namespaces-aware processing
// (prefixes are kept verbatim). One tokenizer, Reader, reads every
// document: parse() builds an element tree from its events, and the model
// loader builds objects from them without one.
#pragma once

#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace decisive::xml {

/// An XML element node. Text content is the concatenation of all character
/// data directly inside the element (mixed content is not order-preserved;
/// model files never rely on it).
struct Element {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::unique_ptr<Element>> children;
  std::string text;

  /// Attribute value or nullptr when absent.
  [[nodiscard]] const std::string* attribute(std::string_view attr_name) const noexcept;

  /// Attribute value or `fallback` when absent.
  [[nodiscard]] std::string attribute_or(std::string_view attr_name,
                                         std::string_view fallback) const;

  /// First child with the given element name, or nullptr.
  [[nodiscard]] const Element* child(std::string_view child_name) const noexcept;

  /// All children with the given element name.
  [[nodiscard]] std::vector<const Element*> children_named(std::string_view child_name) const;

  /// Appends a child element and returns a reference to it.
  Element& add_child(std::string child_name);

  void set_attribute(std::string attr_name, std::string value);
};

/// One token of a root child as Reader hands it over. `name` and `value`
/// view the reader's window (or, for a value with an entity, its decoding
/// scratch), so they stay valid only until the reader's next call.
struct Event {
  enum class Kind : unsigned char {
    Start,      ///< a start tag: `name`
    Attribute,  ///< an attribute of the start tag before it: `name`, decoded `value`
    Text,       ///< a text run, decoded and trimmed, never empty: `value`
    Cdata,      ///< a CDATA section, verbatim: `value`
    End,        ///< the end of the innermost open element (also of "<a/>")
  };
  Kind kind = Kind::Start;
  std::string_view name;
  std::string_view value;
};

/// The value of the first attribute `attr_name` of the start tag at
/// `events[tag]`, or nullptr when it has none.
const std::string_view* find_attribute(const std::vector<Event>& events, size_t tag,
                                       std::string_view attr_name) noexcept;

/// The one XML tokenizer: reads a document one root child at a time, from a
/// whole text or through a window of a stream, and hands each child over
/// complete, so already validated, as a list of events. The list, the
/// window and the decoding scratch are reused from child to child: a child
/// costs no allocation once they have grown to its size (a numeric
/// character reference aside). parse() builds its
/// element tree from these events; model::load_xmi builds objects from them.
class Reader {
 public:
  /// Reads the whole `text` (which must outlive the reader).
  explicit Reader(std::string_view text);

  /// Reads `in` through a window of about `window` bytes, so the document is
  /// never held whole, not even as text: the window holds the root child
  /// being read (growing while one child is longer). A seekable stream
  /// shorter than the window is read whole, into a buffer of its size. The
  /// children, the root and every ParseError message (line numbers count
  /// from the start of the stream) are those of the whole text's reader.
  explicit Reader(std::istream& in, size_t window = size_t{1} << 16);

  /// Reads on to the next child element of the root and returns true with
  /// its events (from its Start to its End) in events(). Returns false once
  /// the root is closed and the rest of the document is checked. Throws
  /// ParseError at the first fault, after handing over every child before
  /// it. A reader that threw or returned false is spent.
  bool next();

  /// The events of the child the last next() read.
  [[nodiscard]] const std::vector<Event>& events() const noexcept;

  /// The root element, once next() was called: its name and attributes, and
  /// the text read so far among its children. It never holds children.
  [[nodiscard]] const Element& root() const noexcept;

  ~Reader();

 private:
  class Tokenizer;
  std::unique_ptr<Tokenizer> tokenizer_;
};

/// Parses a complete document and returns its root element.
/// Throws ParseError on malformed input.
std::unique_ptr<Element> parse(std::string_view text);

/// Reads and parses an XML file; throws IoError/ParseError.
std::unique_ptr<Element> parse_file(const std::string& path);

/// Serialises the element tree with 2-space indentation and an XML
/// declaration.
std::string write(const Element& root);

/// Streams a document in write()'s layout without building an element tree,
/// so a large document is held only once, as text. Calls nest like the tree
/// they describe: `start`, then that element's attributes, its text and its
/// children, then `end`.
class Writer {
 public:
  /// Appends to `out`, beginning with the XML declaration.
  explicit Writer(std::string& out);

  /// Opens an element inside the innermost open one (the root when none is).
  void start(std::string_view name);
  /// Adds an attribute to the element just started.
  void attribute(std::string_view name, std::string_view value);
  /// Sets the innermost open element's character data; call it at most once,
  /// before its children.
  void text(std::string_view content);
  /// Closes the innermost open element.
  void end();

 private:
  /// How far an open element's start tag and content have been written.
  enum class Open { Tag, Text, Children };
  struct Frame {
    std::string name;
    Open state = Open::Tag;
  };

  void indent(size_t depth);

  std::string& out_;
  std::vector<Frame> open_;
};

/// Writes the document to a file; throws IoError on failure.
void write_file(const std::string& path, const Element& root);

}  // namespace decisive::xml
