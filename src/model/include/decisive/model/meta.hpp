// Reflective metamodelling layer — the EMF/Ecore substitute.
//
// A MetaPackage declares MetaClasses; each MetaClass declares typed
// MetaAttributes and MetaReferences and may inherit from a single super
// class. Instances (ModelObject) are dynamically typed against these
// metaclasses, which is what lets the FMEA engine, the query language and
// the persistence layer operate generically over SSAM, Simulink-imports and
// synthetic scalability models alike.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace decisive::model {

class MetaClass;

/// Primitive attribute types supported by the framework.
enum class AttrType { String, Int, Real, Bool };

std::string_view to_string(AttrType type) noexcept;
AttrType attr_type_from_string(std::string_view name);

/// A typed attribute declaration on a MetaClass.
struct MetaAttribute {
  std::string name;
  AttrType type = AttrType::String;
  const MetaClass* owner = nullptr;
};

/// A reference declaration. `containment` marks ownership semantics (the
/// referenced object is a child); `many` allows multiple targets.
struct MetaReference {
  std::string name;
  const MetaClass* target = nullptr;
  bool containment = false;
  bool many = false;
  const MetaClass* owner = nullptr;
};

/// A class in a metamodel. Supports single inheritance; feature lookup walks
/// the super chain.
class MetaClass {
 public:
  MetaClass(std::string name, const MetaClass* super, bool abstract);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const MetaClass* super() const noexcept { return super_; }
  [[nodiscard]] bool is_abstract() const noexcept { return abstract_; }

  /// Declares an attribute; throws ModelError on duplicate names (including
  /// inherited ones).
  const MetaAttribute& add_attribute(std::string attr_name, AttrType type);

  /// Declares a reference; throws ModelError on duplicate names.
  const MetaReference& add_reference(std::string ref_name, const MetaClass& target,
                                     bool containment, bool many);

  /// Feature lookup including inherited features; nullptr when absent.
  [[nodiscard]] const MetaAttribute* find_attribute(std::string_view attr_name) const noexcept;
  [[nodiscard]] const MetaReference* find_reference(std::string_view ref_name) const noexcept;

  /// Checked lookup; throws ModelError naming the class when absent.
  [[nodiscard]] const MetaAttribute& attribute(std::string_view attr_name) const;
  [[nodiscard]] const MetaReference& reference(std::string_view ref_name) const;

  /// True when this class equals `other` or transitively inherits from it.
  [[nodiscard]] bool is_kind_of(const MetaClass& other) const noexcept;

  /// Calls `fn` on every feature, inherited first (declaration order within
  /// each class), walking the super chain without building a list.
  template <typename Fn>
  void for_each_attribute(Fn&& fn) const {
    if (super_ != nullptr) super_->for_each_attribute(fn);
    for (const auto& attr : attributes_) fn(*attr);
  }
  template <typename Fn>
  void for_each_reference(Fn&& fn) const {
    if (super_ != nullptr) super_->for_each_reference(fn);
    for (const auto& ref : references_) fn(*ref);
  }

 private:
  std::string name_;
  const MetaClass* super_;
  bool abstract_;
  std::vector<std::unique_ptr<MetaAttribute>> attributes_;
  std::vector<std::unique_ptr<MetaReference>> references_;
};

/// A named collection of metaclasses. MetaClass objects have stable addresses
/// for the lifetime of the package (they are referenced by every instance).
class MetaPackage {
 public:
  explicit MetaPackage(std::string name);
  MetaPackage(const MetaPackage&) = delete;
  MetaPackage& operator=(const MetaPackage&) = delete;
  // Movable: MetaClass storage is pointer-stable across moves.
  MetaPackage(MetaPackage&&) = default;
  MetaPackage& operator=(MetaPackage&&) = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Defines a concrete class. Throws ModelError on duplicate names.
  MetaClass& define(std::string class_name, const MetaClass* super = nullptr);

  /// Defines an abstract class (cannot be instantiated).
  MetaClass& define_abstract(std::string class_name, const MetaClass* super = nullptr);

  [[nodiscard]] const MetaClass* find(std::string_view class_name) const noexcept;

  /// Checked lookup; throws ModelError when absent.
  [[nodiscard]] const MetaClass& get(std::string_view class_name) const;

  [[nodiscard]] const std::vector<std::unique_ptr<MetaClass>>& classes() const noexcept {
    return classes_;
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<MetaClass>> classes_;
};

}  // namespace decisive::model
