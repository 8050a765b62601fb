#include "decisive/fta/zbdd.hpp"

#include <algorithm>
#include <limits>

namespace decisive::fta {

namespace {
// Terminals sort after every real variable so the min-var recursion rules
// treat them uniformly.
constexpr uint32_t kTerminalVar = std::numeric_limits<uint32_t>::max();

/// splitmix64's finaliser: spreads packed operand bits over the whole word,
/// so linear probing on the low bits stays short.
uint64_t mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t node_hash(uint32_t var, ZbddRef lo, ZbddRef hi) {
  return mix(((uint64_t{lo} << 32) | hi) ^ (uint64_t{var} * 0x9e3779b97f4a7c15ull));
}
}  // namespace

const ZbddRef* ZbddArena::PairMemo::find(uint64_t key) const noexcept {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = mix(key) & mask;; i = (i + 1) & mask) {
    if (slots_[i].key == key) return &slots_[i].value;
    if (slots_[i].key == kFree) return nullptr;
  }
}

void ZbddArena::PairMemo::insert(uint64_t key, ZbddRef value) {
  if (2 * (used_ + 1) > slots_.size()) {
    std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    used_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != kFree) insert(slot.key, slot.value);
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t i = mix(key) & mask;
  while (slots_[i].key != kFree) i = (i + 1) & mask;
  slots_[i] = {key, value};
  ++used_;
}

ZbddArena::ZbddArena() {
  nodes_.push_back({kTerminalVar, kZbddEmpty, kZbddEmpty});  // kZbddEmpty
  nodes_.push_back({kTerminalVar, kZbddUnit, kZbddUnit});    // kZbddUnit
  unique_.assign(64, kZbddEmpty);
}

size_t ZbddArena::unique_slot(uint32_t var, ZbddRef lo, ZbddRef hi) const noexcept {
  const size_t mask = unique_.size() - 1;
  for (size_t i = node_hash(var, lo, hi) & mask;; i = (i + 1) & mask) {
    const ZbddRef ref = unique_[i];
    if (ref == kZbddEmpty) return i;
    const Node& n = nodes_[ref];
    if (n.var == var && n.lo == lo && n.hi == hi) return i;
  }
}

void ZbddArena::grow_unique() {
  // Terminals never enter the table, so every real node re-lands once.
  unique_.assign(2 * unique_.size(), kZbddEmpty);
  for (ZbddRef ref = 2; ref < nodes_.size(); ++ref) {
    unique_[unique_slot(nodes_[ref].var, nodes_[ref].lo, nodes_[ref].hi)] = ref;
  }
}

ZbddRef ZbddArena::node(uint32_t var, ZbddRef lo, ZbddRef hi) {
  if (hi == kZbddEmpty) return lo;  // zero-suppression rule
  const size_t slot = unique_slot(var, lo, hi);
  if (unique_[slot] != kZbddEmpty) return unique_[slot];
  const auto ref = static_cast<ZbddRef>(nodes_.size());
  nodes_.push_back({var, lo, hi});
  // Keep the table at most half full; the two terminals are never in it.
  if (2 * (nodes_.size() - 2) > unique_.size()) {
    grow_unique();
  } else {
    unique_[slot] = ref;
  }
  return ref;
}

ZbddRef ZbddArena::single(uint32_t var) { return node(var, kZbddEmpty, kZbddUnit); }

ZbddRef ZbddArena::set_union(ZbddRef a, ZbddRef b) {
  if (a == kZbddEmpty) return b;
  if (b == kZbddEmpty || a == b) return a;
  if (a > b) std::swap(a, b);  // commutative: canonicalise the memo key
  const uint64_t key = memo_key(a, b);
  if (const ZbddRef* hit = union_memo_.find(key)) return *hit;
  const uint32_t va = nodes_[a].var;
  const uint32_t vb = nodes_[b].var;
  ZbddRef result;
  if (va < vb) {
    result = node(va, set_union(nodes_[a].lo, b), nodes_[a].hi);
  } else if (vb < va) {
    result = node(vb, set_union(nodes_[b].lo, a), nodes_[b].hi);
  } else {
    result = node(va, set_union(nodes_[a].lo, nodes_[b].lo),
                  set_union(nodes_[a].hi, nodes_[b].hi));
  }
  union_memo_.insert(key, result);
  return result;
}

ZbddRef ZbddArena::join(ZbddRef a, ZbddRef b) {
  if (a == kZbddEmpty || b == kZbddEmpty) return kZbddEmpty;
  if (a == kZbddUnit) return b;
  if (b == kZbddUnit) return a;
  if (a > b) std::swap(a, b);  // commutative
  const uint64_t key = memo_key(a, b);
  if (const ZbddRef* hit = join_memo_.find(key)) return *hit;
  const uint32_t va = nodes_[a].var;
  const uint32_t vb = nodes_[b].var;
  ZbddRef result;
  if (va < vb) {
    result = node(va, join(nodes_[a].lo, b), join(nodes_[a].hi, b));
  } else if (vb < va) {
    result = node(vb, join(nodes_[b].lo, a), join(nodes_[b].hi, a));
  } else {
    // Sets gaining `va` come from any pairing where at least one side
    // contributed it.
    const ZbddRef hi = set_union(
        set_union(join(nodes_[a].hi, nodes_[b].hi), join(nodes_[a].hi, nodes_[b].lo)),
        join(nodes_[a].lo, nodes_[b].hi));
    result = node(va, join(nodes_[a].lo, nodes_[b].lo), hi);
  }
  join_memo_.insert(key, result);
  return result;
}

ZbddRef ZbddArena::without_supersets(ZbddRef f, ZbddRef g) {
  if (g == kZbddEmpty) return f;
  if (f == kZbddEmpty) return kZbddEmpty;
  if (g == kZbddUnit) return kZbddEmpty;  // ∅ subsumes every set
  if (f == kZbddUnit) return contains_empty(g) ? kZbddEmpty : kZbddUnit;
  const uint64_t key = memo_key(f, g);
  if (const ZbddRef* hit = without_memo_.find(key)) return *hit;
  const uint32_t vf = nodes_[f].var;
  const uint32_t vg = nodes_[g].var;
  ZbddRef result;
  if (vg < vf) {
    // Sets of g containing vg cannot subsume anything in f (f's sets lack vg).
    result = without_supersets(f, nodes_[g].lo);
  } else if (vf < vg) {
    result = node(vf, without_supersets(nodes_[f].lo, g),
                  without_supersets(nodes_[f].hi, g));
  } else {
    // {vf}∪s survives iff no t∈g0 with t⊆s and no {vf}∪u∈g1 with u⊆s.
    const ZbddRef hi =
        without_supersets(without_supersets(nodes_[f].hi, nodes_[g].lo), nodes_[g].hi);
    result = node(vf, without_supersets(nodes_[f].lo, nodes_[g].lo), hi);
  }
  without_memo_.insert(key, result);
  return result;
}

ZbddRef ZbddArena::minimal(ZbddRef f) {
  if (f == kZbddEmpty || f == kZbddUnit) return f;
  if (f < minimal_memo_.size() && minimal_memo_[f] != kZbddNone) return minimal_memo_[f];
  const uint32_t v = nodes_[f].var;
  const ZbddRef m0 = minimal(nodes_[f].lo);
  // A set {v}∪s is minimal iff s is minimal in f1 and no v-free set subsumes it.
  const ZbddRef m1 = without_supersets(minimal(nodes_[f].hi), m0);
  const ZbddRef result = node(v, m0, m1);
  if (f >= minimal_memo_.size()) minimal_memo_.resize(nodes_.size(), kZbddNone);
  minimal_memo_[f] = result;
  return result;
}

ZbddRef ZbddArena::subsets_with(ZbddRef f, uint32_t var) {
  if (f == kZbddEmpty || f == kZbddUnit) return kZbddEmpty;
  const uint32_t vf = nodes_[f].var;
  if (vf > var) return kZbddEmpty;  // var cannot appear below vf
  if (vf == var) return nodes_[f].hi;
  const uint64_t key = memo_key(f, var);
  if (const ZbddRef* hit = subset_memo_.find(key)) return *hit;
  const ZbddRef result =
      node(vf, subsets_with(nodes_[f].lo, var), subsets_with(nodes_[f].hi, var));
  subset_memo_.insert(key, result);
  return result;
}

bool ZbddArena::contains_empty(ZbddRef f) const {
  while (f != kZbddEmpty && f != kZbddUnit) f = nodes_[f].lo;
  return f == kZbddUnit;
}

size_t ZbddArena::count(ZbddRef f) const {
  std::vector<size_t> memo(nodes_.size(), 0);
  std::vector<char> known(nodes_.size(), 0);
  memo[kZbddUnit] = 1;
  known[kZbddEmpty] = known[kZbddUnit] = 1;
  const auto saturating_add = [](size_t a, size_t b) {
    return a > std::numeric_limits<size_t>::max() - b
               ? std::numeric_limits<size_t>::max()
               : a + b;
  };
  // Iterative post-order to keep deep diagrams off the call stack.
  std::vector<ZbddRef> stack{f};
  while (!stack.empty()) {
    const ZbddRef cur = stack.back();
    if (known[cur]) {
      stack.pop_back();
      continue;
    }
    const ZbddRef lo = nodes_[cur].lo;
    const ZbddRef hi = nodes_[cur].hi;
    if (known[lo] && known[hi]) {
      memo[cur] = saturating_add(memo[lo], memo[hi]);
      known[cur] = 1;
      stack.pop_back();
    } else {
      if (!known[lo]) stack.push_back(lo);
      if (!known[hi]) stack.push_back(hi);
    }
  }
  return memo[f];
}

namespace {

void enumerate_into(const ZbddArena& arena, ZbddRef f, std::vector<uint32_t>& prefix,
                    std::vector<std::vector<uint32_t>>& out) {
  if (f == kZbddEmpty) return;
  if (f == kZbddUnit) {
    out.push_back(prefix);
    return;
  }
  enumerate_into(arena, arena.lo(f), prefix, out);
  prefix.push_back(arena.var(f));
  enumerate_into(arena, arena.hi(f), prefix, out);
  prefix.pop_back();
}

}  // namespace

std::vector<std::vector<uint32_t>> ZbddArena::enumerate(ZbddRef f) const {
  std::vector<std::vector<uint32_t>> out;
  std::vector<uint32_t> prefix;
  enumerate_into(*this, f, prefix, out);
  return out;
}

}  // namespace decisive::fta
