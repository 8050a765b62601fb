// Dynamic model instances: a ModelObject holds attribute values and reference
// targets validated against its MetaClass.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "decisive/model/meta.hpp"

namespace decisive::model {

/// Opaque object identity within a repository; 0 is the null id.
using ObjectId = std::uint64_t;
inline constexpr ObjectId kNullObject = 0;

/// A primitive attribute value. monostate means "unset".
using Value = std::variant<std::monostate, std::string, long long, double, bool>;

/// Parses text into a Value of the given type; throws ParseError.
Value value_from_string(AttrType type, std::string_view text);

/// A typed instance. ModelObjects are owned by a repository and addressed by
/// ObjectId; references store ids rather than pointers so repositories can
/// relocate storage.
class ModelObject {
 public:
  ModelObject(const MetaClass& cls, ObjectId id);

  [[nodiscard]] const MetaClass& meta() const noexcept { return *cls_; }
  [[nodiscard]] ObjectId id() const noexcept { return id_; }
  [[nodiscard]] bool is_kind_of(const MetaClass& cls) const noexcept {
    return cls_->is_kind_of(cls);
  }

  // -- attributes ----------------------------------------------------------

  /// Sets an attribute; throws ModelError for unknown attributes and
  /// type-mismatched values.
  void set(std::string_view attr_name, Value value);

  /// Sets `attr`, an attribute of this object's class resolved once by the
  /// caller; throws ModelError for a type-mismatched value. Resolves no name.
  void set(const MetaAttribute& attr, Value value);

  /// Typed setters (convenience).
  void set_string(std::string_view attr_name, std::string value);
  void set_int(std::string_view attr_name, long long value);
  void set_real(std::string_view attr_name, double value);
  void set_bool(std::string_view attr_name, bool value);

  /// Raw accessor; returns an unset Value when never assigned.
  [[nodiscard]] const Value& get(std::string_view attr_name) const;

  /// Raw accessor for `attr`, an attribute of this object's class resolved
  /// once by the caller (unset when never assigned). Resolves no name.
  [[nodiscard]] const Value& get(const MetaAttribute& attr) const noexcept;

  /// Typed getters with defaults for unset attributes.
  [[nodiscard]] std::string get_string(std::string_view attr_name,
                                       std::string_view fallback = "") const;
  [[nodiscard]] long long get_int(std::string_view attr_name, long long fallback = 0) const;
  [[nodiscard]] double get_real(std::string_view attr_name, double fallback = 0.0) const;
  [[nodiscard]] bool get_bool(std::string_view attr_name, bool fallback = false) const;

  [[nodiscard]] bool has(std::string_view attr_name) const noexcept;

  // -- references ----------------------------------------------------------

  /// Appends a target to a many-reference (or sets a single-valued one;
  /// setting a second target on a single reference throws ModelError).
  void add_ref(std::string_view ref_name, ObjectId target);

  /// add_ref for `ref`, a reference of this object's class resolved once by
  /// the caller. Resolves no name.
  void add_ref(const MetaReference& ref, ObjectId target);

  /// Replaces all targets of the reference with the single given target.
  void set_ref(std::string_view ref_name, ObjectId target);

  /// All targets (empty when unset).
  [[nodiscard]] const std::vector<ObjectId>& refs(std::string_view ref_name) const;

  /// All targets of `ref`, a reference of this object's class resolved once
  /// by the caller (empty when unset). Resolves no name.
  [[nodiscard]] const std::vector<ObjectId>& refs(const MetaReference& ref) const noexcept;

  /// One reference slot: a reference and its targets.
  using RefSlot = std::pair<const MetaReference*, std::vector<ObjectId>>;

  /// Every reference slot set on this object, in the order first set.
  [[nodiscard]] const std::vector<RefSlot>& ref_slots() const noexcept { return refs_; }

  /// First target or kNullObject.
  [[nodiscard]] ObjectId ref(std::string_view ref_name) const;

  /// Removes a specific target; returns true when something was removed.
  bool remove_ref(std::string_view ref_name, ObjectId target);

  /// Approximate heap footprint in bytes, used by repository memory budgets.
  [[nodiscard]] size_t approx_bytes() const noexcept;

 private:
  const MetaClass* cls_;
  ObjectId id_;
  std::vector<std::pair<const MetaAttribute*, Value>> attrs_;
  std::vector<RefSlot> refs_;
};

}  // namespace decisive::model
