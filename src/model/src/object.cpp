#include "decisive/model/object.hpp"

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::model {

namespace {
const Value kUnset{};
const std::vector<ObjectId> kNoTargets{};

bool value_matches(AttrType type, const Value& value) {
  if (std::holds_alternative<std::monostate>(value)) return true;
  switch (type) {
    case AttrType::String: return std::holds_alternative<std::string>(value);
    case AttrType::Int: return std::holds_alternative<long long>(value);
    case AttrType::Real:
      // Accept ints for real attributes; they are widened on set.
      return std::holds_alternative<double>(value) || std::holds_alternative<long long>(value);
    case AttrType::Bool: return std::holds_alternative<bool>(value);
  }
  return false;
}
}  // namespace

Value value_from_string(AttrType type, std::string_view text) {
  switch (type) {
    case AttrType::String: return Value(std::string(text));
    case AttrType::Int: return Value(parse_int(text));
    case AttrType::Real: return Value(parse_double(text));
    case AttrType::Bool: return Value(parse_bool(text));
  }
  return Value{};
}

ModelObject::ModelObject(const MetaClass& cls, ObjectId id) : cls_(&cls), id_(id) {
  if (cls.is_abstract()) {
    throw ModelError("cannot instantiate abstract class '" + cls.name() + "'");
  }
}

void ModelObject::set(std::string_view attr_name, Value value) {
  set(cls_->attribute(attr_name), std::move(value));
}

void ModelObject::set(const MetaAttribute& attr, Value value) {
  if (!value_matches(attr.type, value)) {
    throw ModelError("type mismatch assigning attribute '" + attr.name + "' of class '" +
                     cls_->name() + "'");
  }
  if (attr.type == AttrType::Real) {
    if (const auto* i = std::get_if<long long>(&value)) value = static_cast<double>(*i);
  }
  for (auto& [a, v] : attrs_) {
    if (a == &attr) {
      v = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(&attr, std::move(value));
}

void ModelObject::set_string(std::string_view attr_name, std::string value) {
  set(attr_name, Value(std::move(value)));
}
void ModelObject::set_int(std::string_view attr_name, long long value) {
  set(attr_name, Value(value));
}
void ModelObject::set_real(std::string_view attr_name, double value) {
  set(attr_name, Value(value));
}
void ModelObject::set_bool(std::string_view attr_name, bool value) {
  set(attr_name, Value(value));
}

const Value& ModelObject::get(std::string_view attr_name) const {
  return get(cls_->attribute(attr_name));
}

const Value& ModelObject::get(const MetaAttribute& attr) const noexcept {
  for (const auto& [a, v] : attrs_) {
    if (a == &attr) return v;
  }
  return kUnset;
}

std::string ModelObject::get_string(std::string_view attr_name, std::string_view fallback) const {
  const Value& v = get(attr_name);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  return std::string(fallback);
}

long long ModelObject::get_int(std::string_view attr_name, long long fallback) const {
  const Value& v = get(attr_name);
  if (const auto* i = std::get_if<long long>(&v)) return *i;
  return fallback;
}

double ModelObject::get_real(std::string_view attr_name, double fallback) const {
  const Value& v = get(attr_name);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<long long>(&v)) return static_cast<double>(*i);
  return fallback;
}

bool ModelObject::get_bool(std::string_view attr_name, bool fallback) const {
  const Value& v = get(attr_name);
  if (const auto* b = std::get_if<bool>(&v)) return *b;
  return fallback;
}

bool ModelObject::has(std::string_view attr_name) const noexcept {
  const MetaAttribute* attr = cls_->find_attribute(attr_name);
  if (attr == nullptr) return false;
  for (const auto& [a, v] : attrs_) {
    if (a == attr) return !std::holds_alternative<std::monostate>(v);
  }
  return false;
}

void ModelObject::add_ref(std::string_view ref_name, ObjectId target) {
  add_ref(cls_->reference(ref_name), target);
}

void ModelObject::add_ref(const MetaReference& ref, ObjectId target) {
  for (auto& [r, targets] : refs_) {
    if (r == &ref) {
      if (!ref.many && !targets.empty()) {
        throw ModelError("reference '" + ref.name + "' of class '" + cls_->name() +
                         "' is single-valued");
      }
      targets.push_back(target);
      return;
    }
  }
  refs_.emplace_back(&ref, std::vector<ObjectId>{target});
}

void ModelObject::set_ref(std::string_view ref_name, ObjectId target) {
  const MetaReference& ref = cls_->reference(ref_name);
  for (auto& [r, targets] : refs_) {
    if (r == &ref) {
      targets.assign(1, target);
      return;
    }
  }
  refs_.emplace_back(&ref, std::vector<ObjectId>{target});
}

const std::vector<ObjectId>& ModelObject::refs(std::string_view ref_name) const {
  return refs(cls_->reference(ref_name));
}

const std::vector<ObjectId>& ModelObject::refs(const MetaReference& ref) const noexcept {
  for (const auto& [r, targets] : refs_) {
    if (r == &ref) return targets;
  }
  return kNoTargets;
}

ObjectId ModelObject::ref(std::string_view ref_name) const {
  const auto& targets = refs(ref_name);
  return targets.empty() ? kNullObject : targets.front();
}

bool ModelObject::remove_ref(std::string_view ref_name, ObjectId target) {
  const MetaReference& ref = cls_->reference(ref_name);
  for (auto& [r, targets] : refs_) {
    if (r == &ref) {
      for (auto it = targets.begin(); it != targets.end(); ++it) {
        if (*it == target) {
          targets.erase(it);
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

size_t ModelObject::approx_bytes() const noexcept {
  size_t bytes = sizeof(ModelObject);
  bytes += attrs_.capacity() * sizeof(attrs_[0]);
  for (const auto& [a, v] : attrs_) {
    if (const auto* s = std::get_if<std::string>(&v)) bytes += s->capacity();
  }
  bytes += refs_.capacity() * sizeof(refs_[0]);
  for (const auto& [r, targets] : refs_) bytes += targets.capacity() * sizeof(ObjectId);
  return bytes;
}

}  // namespace decisive::model
