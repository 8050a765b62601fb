#include "decisive/model/xmi.hpp"

#include <array>
#include <charconv>
#include <deque>
#include <fstream>
#include <unordered_map>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/xml.hpp"

namespace decisive::model {

namespace {

/// Bytes of XMI text save_xmi_file holds before writing them out.
constexpr size_t kSaveChunk = size_t{1} << 16;

/// Room for any 64-bit integer in decimal, sign included.
using Digits = std::array<char, 24>;

/// `value` in decimal, written into `digits`.
template <typename Integer>
std::string_view decimal(Integer value, Digits& digits) {
  const char* end = std::to_chars(digits.data(), digits.data() + digits.size(), value).ptr;
  return {digits.data(), static_cast<size_t>(end - digits.data())};
}

/// Writes `value` (set) as the value attribute: a string as it is, an integer
/// in decimal, a real with up to 12 decimals (format_number), a bool as
/// "true" or "false". value_from_string reads each back.
void write_value(xml::Writer& xml, const Value& value, Digits& digits) {
  if (const auto* s = std::get_if<std::string>(&value)) {
    xml.attribute("value", *s);
  } else if (const auto* i = std::get_if<long long>(&value)) {
    xml.attribute("value", decimal(*i, digits));
  } else if (const auto* d = std::get_if<double>(&value)) {
    xml.attribute("value", format_number(*d, 12));
  } else {
    xml.attribute("value", std::get<bool>(value) ? "true" : "false");
  }
}

/// Streams the model as XMI into `out`, not as an element tree first: the
/// tree of a large model takes several times the memory of the model
/// itself. Calls `drain(out)` after each object, so a caller may write out
/// and clear the text so far. An object costs no allocation: its features
/// are walked along its metaclass chain, numbers go through to_chars, and
/// values are escaped straight into `out`.
template <typename Drain>
void write_xmi(const FullLoadRepository& repo, const MetaPackage& package, std::string& out,
               Drain drain) {
  xml::Writer xml(out);
  xml.start("model");
  xml.attribute("package", package.name());
  Digits digits{};
  std::string targets;
  repo.for_each([&](const ModelObject& obj) {
    xml.start("object");
    xml.attribute("id", decimal(obj.id(), digits));
    xml.attribute("class", obj.meta().name());
    obj.meta().for_each_attribute([&](const MetaAttribute& attr) {
      const Value& v = obj.get(attr);
      if (std::holds_alternative<std::monostate>(v)) return;
      xml.start("attr");
      xml.attribute("name", attr.name);
      write_value(xml, v, digits);
      xml.end();
    });
    obj.meta().for_each_reference([&](const MetaReference& ref) {
      const auto& ids = obj.refs(ref);
      if (ids.empty()) return;
      targets.clear();
      for (size_t i = 0; i < ids.size(); ++i) {
        if (i != 0) targets += ' ';
        targets += decimal(ids[i], digits);
      }
      xml.start("ref");
      xml.attribute("name", ref.name);
      xml.attribute("targets", targets);
      xml.end();
    });
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

/// Where each file id's object went. A saved model's ids run 1..n, so an id
/// up to about twice the objects read so far indexes a vector; any other
/// (an external file's, or a huge or negative id in a damaged one) goes to a
/// hash map, so no id alone sets the vector's size. A repeated id maps to
/// its last object.
class IdRemap {
 public:
  void set(std::uint64_t file_id, ObjectId id, size_t objects_read) {
    if (file_id < dense_.size() || file_id <= 2 * objects_read + 16) {
      if (file_id >= dense_.size()) dense_.resize(file_id + 1, kNullObject);
      dense_[file_id] = id;
    } else {
      sparse_[file_id] = id;
    }
  }

  /// The object of `file_id`, or kNullObject.
  [[nodiscard]] ObjectId find(std::uint64_t file_id) const {
    if (file_id < dense_.size() && dense_[file_id] != kNullObject) return dense_[file_id];
    const auto it = sparse_.find(file_id);
    return it == sparse_.end() ? kNullObject : it->second;
  }

 private:
  std::vector<ObjectId> dense_;
  std::unordered_map<std::uint64_t, ObjectId> sparse_;
};

/// The body of both load_xmi overloads. Each <object> is created, with its
/// attributes, as soon as `reader` hands it over complete, straight from its
/// events: no element tree of it is built, and the events view the reader's
/// window. References wait until every object exists (they may point
/// forward), as one (object, reference, file id) triple per target, in a
/// deque: a vector's doubling copy of them was the load's largest transient
/// (VmHWM minus VmRSS after loading a 4.2 MB model: 0.63 MiB with a vector,
/// 0.05–0.11 MiB with the deque).
void load_objects(FullLoadRepository& repo, const MetaPackage& package, xml::Reader& reader) {
  using Kind = xml::Event::Kind;
  struct PendingRef {
    ObjectId object = kNullObject;
    const MetaReference* ref = nullptr;
    std::uint64_t target = 0;
  };
  IdRemap remap;
  size_t objects = 0;
  std::deque<PendingRef> pending;
  while (reader.next()) {
    if (reader.root().name != "model") throw ParseError("expected <model> document root");
    const std::vector<xml::Event>& events = reader.events();
    if (events.front().name != "object") continue;
    const std::string_view* cls_name = xml::find_attribute(events, 0, "class");
    const std::string_view* file_id = xml::find_attribute(events, 0, "id");
    if (cls_name == nullptr || file_id == nullptr) {
      throw ParseError("<object> requires 'id' and 'class' attributes");
    }
    ModelObject& obj = repo.create(package.get(*cls_name));
    remap.set(static_cast<std::uint64_t>(parse_int(*file_id)), obj.id(), ++objects);
    // The features are the object's direct children; the last event is the
    // object's own End.
    size_t depth = 0;
    for (size_t i = 1; i + 1 < events.size(); ++i) {
      if (events[i].kind == Kind::End) --depth;
      if (events[i].kind != Kind::Start || depth++ != 0) continue;
      if (events[i].name == "attr") {
        const std::string_view* name = xml::find_attribute(events, i, "name");
        const std::string_view* value = xml::find_attribute(events, i, "value");
        if (name == nullptr || value == nullptr) {
          throw ParseError("<attr> requires 'name' and 'value'");
        }
        const MetaAttribute& attr = obj.meta().attribute(*name);
        obj.set(attr, value_from_string(attr.type, *value));
      } else if (events[i].name == "ref") {
        const std::string_view* name = xml::find_attribute(events, i, "name");
        const std::string_view* targets = xml::find_attribute(events, i, "targets");
        if (name == nullptr || targets == nullptr) {
          throw ParseError("<ref> requires 'name' and 'targets'");
        }
        // The space-separated tokens, blank ones skipped; the reference is
        // resolved at the first target.
        const MetaReference* ref = nullptr;
        for (size_t from = 0;;) {
          const size_t space = std::min(targets->find(' ', from), targets->size());
          const std::string_view token = targets->substr(from, space - from);
          if (!trim(token).empty()) {
            const auto file_target = static_cast<std::uint64_t>(parse_int(token));
            if (ref == nullptr) ref = &obj.meta().reference(*name);
            pending.push_back({obj.id(), ref, file_target});
          }
          if (space == targets->size()) break;
          from = space + 1;
        }
      }
    }
  }
  if (reader.root().name != "model") throw ParseError("expected <model> document root");

  for (const PendingRef& ref : pending) {
    const ObjectId target = remap.find(ref.target);
    if (target == kNullObject) {
      throw ModelError("reference '" + ref.ref->name + "' targets unknown object id " +
                       std::to_string(ref.target));
    }
    repo.get(ref.object).add_ref(*ref.ref, target);
  }
  repo.recompute_bytes();
}

}  // namespace

void load_xmi(FullLoadRepository& repo, const MetaPackage& package, std::string_view text) {
  xml::Reader reader(text);
  load_objects(repo, package, reader);
}

void load_xmi(FullLoadRepository& repo, const MetaPackage& package, std::istream& in,
              size_t window) {
  xml::Reader reader(in, window);
  load_objects(repo, package, reader);
}

void load_xmi_file(FullLoadRepository& repo, const MetaPackage& package,
                   const std::string& path) {
  // Streamed through the reader's window: the file's text is never held
  // whole beside the model being built.
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open model file '" + path + "'");
  load_xmi(repo, package, in);
}

}  // namespace decisive::model
