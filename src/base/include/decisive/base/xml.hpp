// Minimal XML DOM parser/writer, sufficient for XMI-style model persistence
// and for the external-model XML driver. Supports elements, attributes,
// character data, comments, processing instructions and the five predefined
// entities. No namespaces-aware processing (prefixes are kept verbatim).
#pragma once

#include <functional>
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

/// Parses a complete document and returns its root element.
/// Throws ParseError on malformed input.
std::unique_ptr<Element> parse(std::string_view text);

/// Parses like parse(), but hands each child element of the root to
/// `on_child` (with the root's name and attributes) as soon as that child is
/// complete, and keeps none of them, so a document of many records is never
/// held as one tree. Returns the root without children. A malformed document
/// throws ParseError once the parser reaches the fault, after `on_child` saw
/// the children before it.
std::unique_ptr<Element> parse_children(
    std::string_view text,
    const std::function<void(const Element& root, const Element& child)>& on_child);

/// parse_children over a stream, read through a window of about `window`
/// bytes, so the document is never held whole, not even as text: the window
/// holds the root child being parsed (growing while one child is longer). A
/// seekable stream shorter than the window is read whole, into a buffer of
/// its size. The children, the returned root and every ParseError message
/// (line numbers count from the start of the stream) are parse_children's
/// on the whole text.
std::unique_ptr<Element> parse_children(
    std::istream& in,
    const std::function<void(const Element& root, const Element& child)>& on_child,
    size_t window = size_t{1} << 16);

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

/// Escapes the five predefined entities in attribute/text content.
std::string escape(std::string_view text);

}  // namespace decisive::xml
