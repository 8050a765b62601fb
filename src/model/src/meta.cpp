#include "decisive/model/meta.hpp"

#include "decisive/base/error.hpp"

namespace decisive::model {

std::string_view to_string(AttrType type) noexcept {
  switch (type) {
    case AttrType::String: return "string";
    case AttrType::Int: return "int";
    case AttrType::Real: return "real";
    case AttrType::Bool: return "bool";
  }
  return "string";
}

AttrType attr_type_from_string(std::string_view name) {
  if (name == "string") return AttrType::String;
  if (name == "int") return AttrType::Int;
  if (name == "real") return AttrType::Real;
  if (name == "bool") return AttrType::Bool;
  throw ModelError("unknown attribute type '" + std::string(name) + "'");
}

MetaClass::MetaClass(std::string name, const MetaClass* super, bool abstract)
    : name_(std::move(name)), super_(super), abstract_(abstract) {}

const MetaAttribute& MetaClass::add_attribute(std::string attr_name, AttrType type) {
  if (find_attribute(attr_name) != nullptr || find_reference(attr_name) != nullptr) {
    throw ModelError("duplicate feature '" + attr_name + "' on class '" + name_ + "'");
  }
  auto attr = std::make_unique<MetaAttribute>();
  attr->name = std::move(attr_name);
  attr->type = type;
  attr->owner = this;
  attributes_.push_back(std::move(attr));
  return *attributes_.back();
}

const MetaReference& MetaClass::add_reference(std::string ref_name, const MetaClass& target,
                                              bool containment, bool many) {
  if (find_attribute(ref_name) != nullptr || find_reference(ref_name) != nullptr) {
    throw ModelError("duplicate feature '" + ref_name + "' on class '" + name_ + "'");
  }
  auto ref = std::make_unique<MetaReference>();
  ref->name = std::move(ref_name);
  ref->target = &target;
  ref->containment = containment;
  ref->many = many;
  ref->owner = this;
  references_.push_back(std::move(ref));
  return *references_.back();
}

const MetaAttribute* MetaClass::find_attribute(std::string_view attr_name) const noexcept {
  for (const MetaClass* cls = this; cls != nullptr; cls = cls->super_) {
    for (const auto& attr : cls->attributes_) {
      if (attr->name == attr_name) return attr.get();
    }
  }
  return nullptr;
}

const MetaReference* MetaClass::find_reference(std::string_view ref_name) const noexcept {
  for (const MetaClass* cls = this; cls != nullptr; cls = cls->super_) {
    for (const auto& ref : cls->references_) {
      if (ref->name == ref_name) return ref.get();
    }
  }
  return nullptr;
}

const MetaAttribute& MetaClass::attribute(std::string_view attr_name) const {
  const MetaAttribute* attr = find_attribute(attr_name);
  if (attr == nullptr) {
    throw ModelError("class '" + name_ + "' has no attribute '" + std::string(attr_name) + "'");
  }
  return *attr;
}

const MetaReference& MetaClass::reference(std::string_view ref_name) const {
  const MetaReference* ref = find_reference(ref_name);
  if (ref == nullptr) {
    throw ModelError("class '" + name_ + "' has no reference '" + std::string(ref_name) + "'");
  }
  return *ref;
}

bool MetaClass::is_kind_of(const MetaClass& other) const noexcept {
  for (const MetaClass* cls = this; cls != nullptr; cls = cls->super_) {
    if (cls == &other) return true;
  }
  return false;
}

MetaPackage::MetaPackage(std::string name) : name_(std::move(name)) {}

MetaClass& MetaPackage::define(std::string class_name, const MetaClass* super) {
  if (find(class_name) != nullptr) {
    throw ModelError("duplicate class '" + class_name + "' in package '" + name_ + "'");
  }
  classes_.push_back(std::make_unique<MetaClass>(std::move(class_name), super, false));
  return *classes_.back();
}

MetaClass& MetaPackage::define_abstract(std::string class_name, const MetaClass* super) {
  if (find(class_name) != nullptr) {
    throw ModelError("duplicate class '" + class_name + "' in package '" + name_ + "'");
  }
  classes_.push_back(std::make_unique<MetaClass>(std::move(class_name), super, true));
  return *classes_.back();
}

const MetaClass* MetaPackage::find(std::string_view class_name) const noexcept {
  for (const auto& cls : classes_) {
    if (cls->name() == class_name) return cls.get();
  }
  return nullptr;
}

const MetaClass& MetaPackage::get(std::string_view class_name) const {
  const MetaClass* cls = find(class_name);
  if (cls == nullptr) {
    throw ModelError("package '" + name_ + "' has no class '" + std::string(class_name) + "'");
  }
  return *cls;
}

}  // namespace decisive::model
