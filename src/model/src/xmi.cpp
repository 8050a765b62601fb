#include "decisive/model/xmi.hpp"

#include <fstream>
#include <unordered_map>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/xml.hpp"

namespace decisive::model {

namespace {

/// Bytes of XMI text save_xmi_file holds before writing them out.
constexpr size_t kSaveChunk = size_t{1} << 16;

/// Streams the model as XMI into `out`, not as an element tree first: the
/// tree of a large model takes several times the memory of the model
/// itself. Calls `drain(out)` after each object, so a caller may write out
/// and clear the text so far.
template <typename Drain>
void write_xmi(const FullLoadRepository& repo, const MetaPackage& package, std::string& out,
               Drain drain) {
  xml::Writer xml(out);
  xml.start("model");
  xml.attribute("package", package.name());
  repo.for_each([&](const ModelObject& obj) {
    xml.start("object");
    xml.attribute("id", std::to_string(obj.id()));
    xml.attribute("class", obj.meta().name());
    for (const MetaAttribute* attr : obj.meta().all_attributes()) {
      const Value& v = obj.get(*attr);
      if (std::holds_alternative<std::monostate>(v)) continue;
      xml.start("attr");
      xml.attribute("name", attr->name);
      xml.attribute("value", value_to_string(v));
      xml.end();
    }
    for (const MetaReference* ref : obj.meta().all_references()) {
      const auto& targets = obj.refs(*ref);
      if (targets.empty()) continue;
      std::string ids;
      for (size_t i = 0; i < targets.size(); ++i) {
        if (i != 0) ids += ' ';
        ids += std::to_string(targets[i]);
      }
      xml.start("ref");
      xml.attribute("name", ref->name);
      xml.attribute("targets", ids);
      xml.end();
    }
    xml.end();
    drain(out);
  });
  xml.end();
}

}  // namespace

std::string save_xmi(const FullLoadRepository& repo, const MetaPackage& package) {
  std::string out;
  write_xmi(repo, package, out, [](std::string&) {});
  return out;
}

void save_xmi_file(const std::string& path, const FullLoadRepository& repo,
                   const MetaPackage& package) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot write model file '" + path + "'");
  // The document goes out in chunks of about kSaveChunk bytes: never held
  // whole, and the bytes are save_xmi's.
  std::string chunk;
  const auto write_out = [&](std::string& text) {
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    text.clear();
  };
  write_xmi(repo, package, chunk, [&](std::string& text) {
    if (text.size() >= kSaveChunk) write_out(text);
  });
  write_out(chunk);
  if (!out) throw IoError("failed while writing model file '" + path + "'");
}

namespace {

/// The body of load_xmi and load_xmi_file: `parse_children(on_child)` runs
/// xml::parse_children over the text or the file.
template <typename ParseChildren>
void load_objects(FullLoadRepository& repo, const MetaPackage& package,
                  ParseChildren parse_children) {
  // Each <object> is created, with its attributes, as soon as the parser
  // completes it, and then dropped: the element tree of a large model takes
  // several times the memory of the model itself. References wait until
  // every object exists (they may point forward), as one (object,
  // reference, file id) triple per target.
  struct PendingRef {
    ObjectId object = kNullObject;
    const MetaReference* ref = nullptr;
    std::uint64_t target = 0;
  };
  std::unordered_map<std::uint64_t, ObjectId> remap;
  std::vector<PendingRef> pending;
  const auto root = parse_children([&](const xml::Element& doc, const xml::Element& child) {
    if (doc.name != "model") throw ParseError("expected <model> document root");
    if (child.name != "object") return;
    const std::string* cls_name = child.attribute("class");
    const std::string* file_id = child.attribute("id");
    if (cls_name == nullptr || file_id == nullptr) {
      throw ParseError("<object> requires 'id' and 'class' attributes");
    }
    ModelObject& obj = repo.create(package.get(*cls_name));
    remap[static_cast<std::uint64_t>(parse_int(*file_id))] = obj.id();
    for (const auto& feature : child.children) {
      if (feature->name == "attr") {
        const std::string* name = feature->attribute("name");
        const std::string* value = feature->attribute("value");
        if (name == nullptr || value == nullptr) {
          throw ParseError("<attr> requires 'name' and 'value'");
        }
        const MetaAttribute& attr = obj.meta().attribute(*name);
        obj.set(*name, value_from_string(attr.type, *value));
      } else if (feature->name == "ref") {
        const std::string* name = feature->attribute("name");
        const std::string* targets = feature->attribute("targets");
        if (name == nullptr || targets == nullptr) {
          throw ParseError("<ref> requires 'name' and 'targets'");
        }
        for (const auto& token : split(*targets, ' ')) {
          if (trim(token).empty()) continue;
          const auto file_target = static_cast<std::uint64_t>(parse_int(token));
          pending.push_back({obj.id(), &obj.meta().reference(*name), file_target});
        }
      }
    }
  });
  if (root->name != "model") throw ParseError("expected <model> document root");

  for (const PendingRef& ref : pending) {
    const auto it = remap.find(ref.target);
    if (it == remap.end()) {
      throw ModelError("reference '" + ref.ref->name + "' targets unknown object id " +
                       std::to_string(ref.target));
    }
    repo.get(ref.object).add_ref(ref.ref->name, it->second);
  }
  repo.recompute_bytes();
}

}  // namespace

void load_xmi(FullLoadRepository& repo, const MetaPackage& package, std::string_view text) {
  load_objects(repo, package,
               [&](const auto& on_child) { return xml::parse_children(text, on_child); });
}

void load_xmi_file(FullLoadRepository& repo, const MetaPackage& package,
                   const std::string& path) {
  // Streamed through xml::parse_children's window: the file's text is
  // never held whole beside the model being built.
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open model file '" + path + "'");
  load_objects(repo, package,
               [&](const auto& on_child) { return xml::parse_children(in, on_child); });
}

}  // namespace decisive::model
