#include "decisive/drivers/mdl.hpp"

#include <fstream>
#include <optional>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::drivers {

std::optional<std::string> MdlBlock::param(std::string_view key) const {
  if (key == "Name") return name;
  if (key == "BlockType") return type;
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return std::nullopt;
}

double MdlBlock::param_real(std::string_view key, double fallback) const {
  const auto value = param(key);
  if (!value.has_value()) return fallback;
  return parse_double(*value);
}

const MdlBlock* MdlSystem::block(std::string_view block_name) const noexcept {
  for (const auto& b : blocks) {
    if (b.name == block_name) return &b;
  }
  return nullptr;
}

size_t MdlSystem::total_blocks() const noexcept {
  size_t count = blocks.size();
  for (const auto& b : blocks) {
    if (b.subsystem != nullptr) count += b.subsystem->total_blocks();
  }
  return count;
}

namespace {

class MdlParser {
 public:
  explicit MdlParser(std::string_view text) : text_(text) {}

  MdlModel parse() {
    expect_word("Model");
    expect_char('{');
    MdlModel model;
    while (!try_char('}')) {
      const std::string key = read_word();
      if (key == "Name") {
        model.name = read_value();
      } else if (key == "System") {
        expect_char('{');
        model.root = parse_system();
      } else {
        read_value();  // tolerated, ignored (e.g. Version headers)
      }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after Model block");
    if (model.root.name.empty()) model.root.name = model.name;
    return model;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError("mdl: " + message + " (line " + std::to_string(line) + ")");
  }

  void skip_ws() {
    for (;;) {
      while (pos_ < text_.size() &&
             (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
              text_[pos_] == '\r')) {
        ++pos_;
      }
      // '#' and '//' comments to end of line.
      if (pos_ < text_.size() && text_[pos_] == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (pos_ + 1 < text_.size() && text_[pos_] == '/' && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  static bool is_word_char(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-' || c == '+';
  }

  std::string read_word() {
    skip_ws();
    const size_t start = pos_;
    while (pos_ < text_.size() && is_word_char(text_[pos_])) ++pos_;
    if (pos_ == start) fail("expected an identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  void expect_word(std::string_view word) {
    const std::string got = read_word();
    if (got != word) fail("expected '" + std::string(word) + "', got '" + got + "'");
  }

  bool try_char(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_char(char c) {
    if (!try_char(c)) fail(std::string("expected '") + c + "'");
  }

  // A value is either a quoted string or a bareword.
  std::string read_value() {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      ++pos_;
      std::string out;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
        out += text_[pos_++];
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      ++pos_;
      return out;
    }
    return read_word();
  }

  MdlSystem parse_system() {
    MdlSystem system;
    while (!try_char('}')) {
      const std::string key = read_word();
      if (key == "Block") {
        expect_char('{');
        system.blocks.push_back(parse_block());
      } else if (key == "Line") {
        expect_char('{');
        system.lines.push_back(parse_line());
      } else if (key == "Name") {
        system.name = read_value();
      } else {
        read_value();
      }
    }
    return system;
  }

  MdlBlock parse_block() {
    MdlBlock block;
    while (!try_char('}')) {
      const std::string key = read_word();
      if (key == "System") {
        expect_char('{');
        block.subsystem = std::make_unique<MdlSystem>(parse_system());
        continue;
      }
      const std::string value = read_value();
      if (key == "BlockType") block.type = value;
      else if (key == "Name") block.name = value;
      else block.params.emplace_back(key, value);
    }
    if (block.type.empty()) fail("Block without BlockType");
    if (block.name.empty()) fail("Block without Name");
    return block;
  }

  MdlLine parse_line() {
    MdlLine line;
    while (!try_char('}')) {
      const std::string key = read_word();
      const std::string value = read_value();
      if (key == "SrcBlock") line.src_block = value;
      else if (key == "SrcPort") line.src_port = value;
      else if (key == "DstBlock") line.dst_block = value;
      else if (key == "DstPort") line.dst_port = value;
      else fail("unknown Line key '" + key + "'");
    }
    if (line.src_block.empty() || line.dst_block.empty()) {
      fail("Line requires SrcBlock and DstBlock");
    }
    return line;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

std::string quote(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

void write_system(const MdlSystem& system, int depth, std::string& out);

void write_block(const MdlBlock& block, int depth, std::string& out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  const std::string inner(static_cast<size_t>(depth + 1) * 2, ' ');
  out += indent + "Block {\n";
  out += inner + "BlockType " + block.type + "\n";
  out += inner + "Name " + quote(block.name) + "\n";
  for (const auto& [k, v] : block.params) {
    out += inner + k + " " + quote(v) + "\n";
  }
  if (block.subsystem != nullptr) {
    out += inner + "System {\n";
    write_system(*block.subsystem, depth + 2, out);
    out += inner + "}\n";
  }
  out += indent + "}\n";
}

void write_system(const MdlSystem& system, int depth, std::string& out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  if (!system.name.empty()) out += indent + "Name " + quote(system.name) + "\n";
  for (const auto& block : system.blocks) write_block(block, depth, out);
  for (const auto& line : system.lines) {
    out += indent + "Line {\n";
    out += indent + "  SrcBlock " + quote(line.src_block) + "\n";
    if (!line.src_port.empty()) out += indent + "  SrcPort " + quote(line.src_port) + "\n";
    out += indent + "  DstBlock " + quote(line.dst_block) + "\n";
    if (!line.dst_port.empty()) out += indent + "  DstPort " + quote(line.dst_port) + "\n";
    out += indent + "}\n";
  }
}

}  // namespace

MdlModel parse_mdl(std::string_view text) { return MdlParser(text).parse(); }

MdlModel parse_mdl_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw IoError("cannot open MDL file '" + path + "'");
  return parse_mdl(*text);
}

std::string write_mdl(const MdlModel& model) {
  std::string out = "Model {\n";
  out += "  Name " + quote(model.name) + "\n";
  out += "  System {\n";
  write_system(model.root, 2, out);
  out += "  }\n";
  out += "}\n";
  return out;
}

void write_mdl_file(const std::string& path, const MdlModel& model) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot write MDL file '" + path + "'");
  out << write_mdl(model);
  if (!out) throw IoError("failed while writing MDL file '" + path + "'");
}

}  // namespace decisive::drivers
