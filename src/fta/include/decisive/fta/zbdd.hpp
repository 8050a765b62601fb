// Zero-suppressed binary decision diagrams (Minato ZBDDs) specialised for
// minimal-cut-set manipulation. A ZBDD node (var, lo, hi) represents the
// family of sets lo ∪ {s ∪ {var} : s ∈ hi}; the zero-suppression rule
// (hi == ∅ ⇒ node ≡ lo) makes sparse set families canonical, so families of
// cut sets over hundreds of components stay polynomial even when their
// explicit enumeration is exponential.
//
// The arena owns every node; ZbddRef values are indices into it. Two
// terminals are fixed: kZbddEmpty (the empty family {}) and kZbddUnit (the
// family containing only the empty set, {∅}). Variables are ordered by
// their integer id: smaller id = closer to the root. All operations are
// memoised in the arena, so repeated subproblems — the heart of ZBDD
// efficiency — cost one hash lookup. The unique table and the memos are
// flat open-addressing tables (the `minimal` memo a vector indexed by
// node), so an entry costs no allocation of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace decisive::fta {

using ZbddRef = uint32_t;

/// Terminal ∅ — the empty family (no set at all).
inline constexpr ZbddRef kZbddEmpty = 0;
/// Terminal {∅} — the family holding exactly the empty set.
inline constexpr ZbddRef kZbddUnit = 1;
/// Never a node: marks an unfilled entry of a table indexed by ZbddRef.
inline constexpr ZbddRef kZbddNone = ~ZbddRef{0};

class ZbddArena {
 public:
  ZbddArena();

  /// Canonical node constructor: applies the zero-suppression rule
  /// (hi == kZbddEmpty returns lo) and hash-conses through the unique table.
  ZbddRef node(uint32_t var, ZbddRef lo, ZbddRef hi);

  /// The family {{var}}.
  ZbddRef single(uint32_t var);

  /// Family union.
  ZbddRef set_union(ZbddRef a, ZbddRef b);

  /// Cross-product join: {s ∪ t : s ∈ a, t ∈ b}.
  ZbddRef join(ZbddRef a, ZbddRef b);

  /// Removes from `f` every set that is a superset of (or equal to) some set
  /// in `g` — Minato's subsumption difference, the workhorse of minimal-cut
  /// maintenance. Non-strict: a set of `f` also present in `g` is dropped.
  ZbddRef without_supersets(ZbddRef f, ZbddRef g);

  /// The minimal sets of `f` (no member is a superset of another member).
  ZbddRef minimal(ZbddRef f);

  /// minimal(a ∪ b) — union of two already-minimal families, re-minimised.
  ZbddRef min_union(ZbddRef a, ZbddRef b) { return minimal(set_union(a, b)); }

  /// {s \ {var} : s ∈ f, var ∈ s} — the subfamily containing `var`, with
  /// `var` removed (Minato's "subset1"). Used for exact Fussell–Vesely.
  ZbddRef subsets_with(ZbddRef f, uint32_t var);

  /// True when ∅ ∈ f (the lo-chain reaches kZbddUnit).
  [[nodiscard]] bool contains_empty(ZbddRef f) const;

  /// Number of sets in the family, saturating at SIZE_MAX.
  [[nodiscard]] size_t count(ZbddRef f) const;

  /// Materialises every set of the family (each sorted by variable id).
  /// Only call on families known to be small — this is exponential by design.
  [[nodiscard]] std::vector<std::vector<uint32_t>> enumerate(ZbddRef f) const;

  [[nodiscard]] uint32_t var(ZbddRef f) const { return nodes_[f].var; }
  [[nodiscard]] ZbddRef lo(ZbddRef f) const { return nodes_[f].lo; }
  [[nodiscard]] ZbddRef hi(ZbddRef f) const { return nodes_[f].hi; }
  [[nodiscard]] size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    uint32_t var;
    ZbddRef lo;
    ZbddRef hi;
  };

  /// Memo from an operand pair packed into 64 bits to a result: linear
  /// probing over a power-of-two slot array kept at most half full. Exact —
  /// nothing is evicted — so the arena's node order never depends on it.
  class PairMemo {
   public:
    [[nodiscard]] const ZbddRef* find(uint64_t key) const noexcept;
    void insert(uint64_t key, ZbddRef value);

   private:
    static constexpr uint64_t kFree = ~uint64_t{0};
    struct Slot {
      uint64_t key = kFree;
      ZbddRef value = 0;
    };
    std::vector<Slot> slots_;
    size_t used_ = 0;
  };

  static uint64_t memo_key(ZbddRef a, ZbddRef b) {
    return (uint64_t{a} << 32) | uint64_t{b};
  }

  /// Slot of (var, lo, hi) in the unique table: the slot holding that node,
  /// or the free slot where it belongs.
  [[nodiscard]] size_t unique_slot(uint32_t var, ZbddRef lo, ZbddRef hi) const noexcept;
  void grow_unique();

  std::vector<Node> nodes_;
  std::vector<ZbddRef> unique_;  ///< node refs by hash; kZbddEmpty = free slot
  PairMemo union_memo_;
  PairMemo join_memo_;
  PairMemo without_memo_;
  PairMemo subset_memo_;
  std::vector<ZbddRef> minimal_memo_;  ///< by node; kZbddNone = not yet computed
};

}  // namespace decisive::fta
