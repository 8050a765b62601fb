#include "decisive/fta/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "decisive/fta/zbdd.hpp"
#include "decisive/obs/log.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"
#include "decisive/ssam/graph.hpp"

namespace decisive::fta {

namespace {

using ssam::ObjectId;
using ssam::SsamModel;

struct EngineMetrics {
  obs::Counter& syntheses;      ///< synthesize_fault_tree_zbdd calls
  obs::Counter& states;         ///< decomposition states expanded
  obs::Counter& state_hits;     ///< memoised states reused
  obs::Counter& truncations;    ///< syntheses clipped by max_order
  obs::Gauge& zbdd_nodes;       ///< arena size after the last synthesis
  obs::Gauge& cut_sets;         ///< cut sets in the last synthesised tree
  obs::Histogram& synth_seconds;

  static EngineMetrics& get() {
    static EngineMetrics metrics{
        obs::Registry::global().counter("decisive_fta_syntheses_total"),
        obs::Registry::global().counter("decisive_fta_states_total"),
        obs::Registry::global().counter("decisive_fta_state_cache_hits_total"),
        obs::Registry::global().counter("decisive_fta_truncations_total"),
        obs::Registry::global().gauge("decisive_fta_zbdd_nodes"),
        obs::Registry::global().gauge("decisive_fta_cut_sets"),
        obs::Registry::global().histogram("decisive_fta_synthesize_seconds"),
    };
    return metrics;
  }
};

using Graph = ssam::ComponentGraph;
constexpr int kSource = Graph::kSource;
constexpr int kSink = Graph::kSink;

/// Memo of decomposition states. Keys are word strings stored back to back
/// in one pool and found through an open-addressing index, so a state costs
/// no allocation of its own.
class StateMemo {
 public:
  static uint64_t hash(const std::vector<uint32_t>& key) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const uint32_t word : key) h = (h ^ word) * 0x100000001b3ull;
    return h ^ (h >> 29);
  }

  [[nodiscard]] const ZbddRef* find(const std::vector<uint32_t>& key, uint64_t h) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask; slots_[i].value != kZbddNone; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.hash == h && slot.size == key.size() &&
          std::equal(key.begin(), key.end(),
                     pool_.begin() + static_cast<ptrdiff_t>(slot.offset))) {
        return &slot.value;
      }
    }
    return nullptr;
  }

  /// Copies `key` into the pool ahead of its result (the caller's key
  /// buffer is reused by the sub-states) and returns where it landed.
  size_t stash(const std::vector<uint32_t>& key) {
    pool_.insert(pool_.end(), key.begin(), key.end());
    return pool_.size() - key.size();
  }

  void insert(uint64_t h, size_t offset, size_t size, ZbddRef value) {
    if (2 * (used_ + 1) > slots_.size()) {
      std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
      old.swap(slots_);
      used_ = 0;
      for (const Slot& slot : old) {
        if (slot.value != kZbddNone) insert(slot.hash, slot.offset, slot.size, slot.value);
      }
    }
    const size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    while (slots_[i].value != kZbddNone) i = (i + 1) & mask;
    slots_[i] = {h, offset, size, value};
    ++used_;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    size_t offset = 0;
    size_t size = 0;
    ZbddRef value = kZbddNone;  ///< kZbddNone = free slot
  };
  std::vector<uint32_t> pool_;
  std::vector<Slot> slots_;
  size_t used_ = 0;
};

/// Shannon decomposition of the structure function with memoised states,
/// on the *uncontracted* flow graph (no owner supervertices), so it is exact
/// on irregular wirings where contraction could over-connect. Failing a
/// component removes every vertex it owns; the component's own IONodes have
/// no owner and never fail. The state (removed vertices, perfect components)
/// lives in two arrays that each branch sets and restores; the BFS queues,
/// seen arrays, key and local-index arrays are scratch reused by every
/// state, and each seen array is reset from the list of vertices its pass
/// touched.
class Decomposer {
 public:
  Decomposer(const Graph& graph, size_t max_order)
      : graph_(graph), ncomps_(graph.subcomponents.size()) {
    // A cut only ever fails free live components, so any budget covering the
    // whole component set behaves as unbounded; clamping keeps equivalent
    // budgets on one memo key.
    budget0_ = max_order == 0 ? ncomps_ : std::min(max_order, ncomps_);
    order_of_.assign(ncomps_, -1);
    const size_t n = graph.size();
    std::vector<std::pair<int, int>> owned;  // (component, vertex)
    for (size_t v = 0; v < n; ++v) {
      if (graph.owner[v] >= 0) owned.emplace_back(graph.owner[v], static_cast<int>(v));
    }
    vertices_of_ = ssam::CsrRows::from_edges(owned, ncomps_);
    removed_.assign(n, 0);
    perfect_.assign(ncomps_, 0);
    counted_.assign(ncomps_, 0);
    live_.assign(n, 0);
    fwd_seen_.assign(n, 0);
    bwd_seen_.assign(n, 0);
    seen_.assign(n, 0);
    local_of_.assign(n, -1);
  }

  ZbddRef run(ZbddArena& arena) {
    assign_variable_order();
    return decompose(arena, budget0_);
  }

  [[nodiscard]] bool truncated() const { return truncated_; }
  /// Component index for a ZBDD variable (inverse of the BFS order).
  [[nodiscard]] int component_of_var(uint32_t var) const {
    return comp_of_order_[var];
  }

 private:
  /// Row delimiter of the state key: never a local index.
  static constexpr uint32_t kRowEnd = std::numeric_limits<uint32_t>::max();

  /// BFS from `start` over vertices passing `admit`: marks `seen` and leaves
  /// exactly the marked vertices in `queue`.
  template <typename Admit>
  void bfs(int start, const ssam::CsrRows& adj, Admit admit,
           std::vector<char>& seen, std::vector<int>& queue) const {
    queue.clear();
    if (!admit(start)) return;
    seen[static_cast<size_t>(start)] = 1;
    queue.push_back(start);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (const int next : adj[static_cast<size_t>(queue[head])]) {
        if (seen[static_cast<size_t>(next)] || !admit(next)) continue;
        seen[static_cast<size_t>(next)] = 1;
        queue.push_back(next);
      }
    }
  }

  static void unmark(std::vector<char>& marks, const std::vector<int>& touched) {
    for (const int v : touched) marks[static_cast<size_t>(v)] = 0;
  }

  /// Live = reachable from the source ∧ co-reachable to the sink over
  /// non-removed vertices: sets live_ and lists those vertices in
  /// live_list_. Returns false, marking nothing, when source and sink are
  /// already disconnected.
  bool mark_live() {
    const auto admit = [&](int v) { return !removed_[static_cast<size_t>(v)]; };
    bfs(kSource, graph_.succ, admit, fwd_seen_, fwd_queue_);
    live_list_.clear();
    if (fwd_seen_[kSink]) {
      bfs(kSink, graph_.pred, admit, bwd_seen_, bwd_queue_);
      for (const int v : bwd_queue_) {
        if (!fwd_seen_[static_cast<size_t>(v)]) continue;
        live_[static_cast<size_t>(v)] = 1;
        live_list_.push_back(v);
      }
      unmark(bwd_seen_, bwd_queue_);
    }
    unmark(fwd_seen_, fwd_queue_);
    return !live_list_.empty();
  }

  void unmark_live() { unmark(live_, live_list_); }

  /// Variable order = component discovery order of a BFS from the source
  /// over the initial live subgraph (index-sorted adjacency ⇒ deterministic).
  /// Branching always picks the minimum free variable, and both sub-states
  /// only shrink the free set, so every ZBDD node respects this order.
  void assign_variable_order() {
    int next = 0;
    if (mark_live()) {
      const auto admit = [&](int v) { return live_[static_cast<size_t>(v)] != 0; };
      bfs(kSource, graph_.succ, admit, seen_, queue_);
      for (const int v : queue_) {
        const int owner = graph_.owner[static_cast<size_t>(v)];
        if (owner >= 0 && order_of_[static_cast<size_t>(owner)] < 0) {
          order_of_[static_cast<size_t>(owner)] = next++;
        }
      }
      unmark(seen_, queue_);
      unmark_live();
    }
    // Components outside the live subgraph never appear in a cut set; give
    // them trailing order ids so the mapping stays total.
    for (size_t c = 0; c < ncomps_; ++c) {
      if (order_of_[c] < 0) order_of_[c] = next++;
    }
    comp_of_order_.assign(ncomps_, -1);
    for (size_t c = 0; c < ncomps_; ++c) {
      comp_of_order_[static_cast<size_t>(order_of_[c])] = static_cast<int>(c);
    }
  }

  [[nodiscard]] bool is_free(size_t v) const {
    const int owner = graph_.owner[v];
    return live_[v] && owner >= 0 && !perfect_[static_cast<size_t>(owner)];
  }

  /// True when a source→sink path survives through unfailable (boundary) and
  /// perfect-component vertices only — no remaining failure combination can
  /// sever it, so the residual cut family is empty.
  bool permanently_connected() {
    const auto admit = [&](int v) {
      return live_[static_cast<size_t>(v)] && !is_free(static_cast<size_t>(v));
    };
    bfs(kSource, graph_.succ, admit, seen_, queue_);
    const bool connected = seen_[kSink] != 0;
    unmark(seen_, queue_);
    return connected;
  }

  /// Writes the canonical memo signature of the residual subproblem into
  /// key_ and returns the free component with the smallest variable order
  /// (the branch), or -1 when none is free. The raw (live, perfect) bitmaps
  /// over-distinguish: on a redundant lattice every already-decided stage
  /// configuration with at least one perfect unit leaves the *same* residual
  /// function, but a different bitmap — an exponential memo. The residual
  /// function over the free (live, not yet perfect) components is fully
  /// determined by reachability between free vertices through the non-free
  /// live region: any surviving path is an alternation of free vertices and
  /// unfailable (boundary/perfect) segments, and only the free vertices can
  /// ever be removed below this state. So the key contracts the unfailable
  /// region away:
  ///   effective budget ∥ free-vertex count ∥ free-vertex ids ∥ rows
  /// with one row for the super-source and one per free vertex: the sorted
  /// local indices of the free vertices it reaches (the sink is index F),
  /// closed by kRowEnd. A row lists exactly the set bits of the dense
  /// reachability bitset it replaces, so equal bitsets give equal keys and
  /// the delimiter keeps the split between rows unambiguous. Equal keys ⇒
  /// identical residual families, and decided stages collapse regardless of
  /// which unit survived.
  int build_key(size_t budget) {
    free_.clear();
    int branch = -1;
    size_t free_count = 0;
    for (size_t v = 0; v < graph_.size(); ++v) {
      if (!is_free(v)) continue;
      const int owner = graph_.owner[v];
      local_of_[v] = static_cast<int>(free_.size());
      free_.push_back(static_cast<int>(v));
      if (!counted_[static_cast<size_t>(owner)]) {
        counted_[static_cast<size_t>(owner)] = 1;
        ++free_count;
      }
      if (branch < 0 || order_of_[static_cast<size_t>(owner)] <
                            order_of_[static_cast<size_t>(branch)]) {
        branch = owner;
      }
    }
    for (const int v : free_) {
      counted_[static_cast<size_t>(graph_.owner[static_cast<size_t>(v)])] = 0;
    }
    // Budgets at or above the free-component count can never bind below this
    // state; collapse them to one sentinel so unbounded runs don't fragment
    // the memo by depth.
    const uint32_t effective =
        budget >= free_count ? kRowEnd : static_cast<uint32_t>(budget);

    key_.clear();
    key_.push_back(effective);
    key_.push_back(static_cast<uint32_t>(free_.size()));
    for (const int v : free_) key_.push_back(static_cast<uint32_t>(v));
    const auto sink_local = static_cast<uint32_t>(free_.size());
    // Row of `start`: which free vertices / the sink it reaches through
    // non-free live vertices only (free vertices are hit but not crossed).
    const auto append_row = [&](int start) {
      hits_.clear();
      queue_.assign(1, start);
      seen_[static_cast<size_t>(start)] = 1;
      for (size_t head = 0; head < queue_.size(); ++head) {
        for (const int to : graph_.succ[static_cast<size_t>(queue_[head])]) {
          if (seen_[static_cast<size_t>(to)] || !live_[static_cast<size_t>(to)]) continue;
          seen_[static_cast<size_t>(to)] = 1;
          if (to == kSink) {
            hits_.push_back(sink_local);
          } else if (local_of_[static_cast<size_t>(to)] >= 0) {
            hits_.push_back(static_cast<uint32_t>(local_of_[static_cast<size_t>(to)]));
          } else {
            queue_.push_back(to);
          }
        }
      }
      unmark(seen_, queue_);
      for (const uint32_t local : hits_) {
        seen_[local == sink_local ? size_t{kSink} : static_cast<size_t>(free_[local])] = 0;
      }
      std::sort(hits_.begin(), hits_.end());
      key_.insert(key_.end(), hits_.begin(), hits_.end());
      key_.push_back(kRowEnd);
    };
    append_row(kSource);
    for (const int v : free_) append_row(v);
    for (const int v : free_) local_of_[static_cast<size_t>(v)] = -1;
    return branch;
  }

  ZbddRef decompose(ZbddArena& arena, size_t budget) {
    if (!mark_live()) return kZbddUnit;  // already severed
    if (permanently_connected()) {
      unmark_live();
      return kZbddEmpty;
    }
    // From here on: not severed, and every surviving path crosses at least
    // one free component, so cuts DO exist in the unbounded semantics.
    if (budget == 0) {
      unmark_live();
      truncated_ = true;  // the order bound clipped a non-empty sub-family
      return kZbddEmpty;
    }

    const int branch = build_key(budget);
    unmark_live();
    const uint64_t hash = StateMemo::hash(key_);
    if (const ZbddRef* hit = memo_.find(key_, hash)) {
      EngineMetrics::get().state_hits.add();
      return *hit;
    }
    EngineMetrics::get().states.add();
    // Unreachable: a live path with no free component would have been caught
    // by permanently_connected above.
    if (branch < 0) return kZbddEmpty;
    const size_t key_size = key_.size();
    const size_t key_offset = memo_.stash(key_);

    // Branch on the free live component with the smallest variable order:
    // healthy for good (perfect), then failed (its vertices removed).
    const auto b = static_cast<size_t>(branch);
    perfect_[b] = 1;
    const ZbddRef lo = decompose(arena, budget);
    perfect_[b] = 0;
    for (const int v : vertices_of_[b]) removed_[static_cast<size_t>(v)] = 1;
    const ZbddRef hi_raw = decompose(arena, budget - 1);
    for (const int v : vertices_of_[b]) removed_[static_cast<size_t>(v)] = 0;
    // A cut through `branch` is only minimal if it is not a superset of a
    // cut that leaves `branch` healthy.
    const ZbddRef hi = arena.without_supersets(hi_raw, lo);

    const ZbddRef result = arena.node(static_cast<uint32_t>(order_of_[b]), lo, hi);
    memo_.insert(hash, key_offset, key_size, result);
    return result;
  }

  const Graph& graph_;
  size_t ncomps_;
  ssam::CsrRows vertices_of_;  ///< by component: the vertices it owns
  size_t budget0_ = 0;
  bool truncated_ = false;
  std::vector<int> order_of_;       ///< component index → ZBDD variable
  std::vector<int> comp_of_order_;  ///< ZBDD variable → component index
  StateMemo memo_;
  // The state being decomposed, set and restored around each branch.
  std::vector<char> removed_;  ///< by vertex
  std::vector<char> perfect_;  ///< by component
  // Scratch, all-zero (local_of_: all −1) between uses.
  std::vector<char> live_;
  std::vector<int> live_list_;
  std::vector<char> fwd_seen_, bwd_seen_, seen_;
  std::vector<int> fwd_queue_, bwd_queue_, queue_;
  std::vector<char> counted_;  ///< by component: free component already counted
  std::vector<int> local_of_;  ///< by vertex: index among the free vertices
  std::vector<int> free_;
  std::vector<uint32_t> hits_;
  std::vector<uint32_t> key_;
};

}  // namespace

core::FaultTree synthesize_fault_tree_zbdd(const SsamModel& ssam, ObjectId component,
                                           const ZbddFtaOptions& options) {
  EngineMetrics& metrics = EngineMetrics::get();
  obs::Span span("fta.synthesize", &metrics.synth_seconds);
  metrics.syntheses.add();

  const Graph graph = ssam::build_graph(ssam, component);

  ZbddArena arena;
  Decomposer decomposer(graph, options.max_order);
  const ZbddRef root = decomposer.run(arena);
  metrics.zbdd_nodes.set(static_cast<double>(arena.node_count()));

  // Materialise the (minimal, typically small) family and render the same
  // FaultTree shape the oracle produces: one OR child per cut, AND gates for
  // multi-member cuts, shared basic events.
  std::vector<std::vector<ObjectId>> cuts;
  for (const auto& vars : arena.enumerate(root)) {
    std::vector<ObjectId> members;
    members.reserve(vars.size());
    for (const uint32_t var : vars) {
      members.push_back(
          graph.subcomponents[static_cast<size_t>(decomposer.component_of_var(var))]);
    }
    std::sort(members.begin(), members.end());
    cuts.push_back(std::move(members));
  }
  std::sort(cuts.begin(), cuts.end(),
            [](const std::vector<ObjectId>& a, const std::vector<ObjectId>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  metrics.cut_sets.set(static_cast<double>(cuts.size()));

  core::FaultTree tree;
  tree.truncated = decomposer.truncated();
  if (tree.truncated) {
    metrics.truncations.add();
    obs::log(obs::LogLevel::Warn,
             "fta: max_order=" + std::to_string(options.max_order) +
                 " clipped the ZBDD synthesis; minimal cut sets above the bound may exist");
  }
  const std::string name = ssam.obj(component).get_string("name");
  tree.top_event = "loss of function of '" + name + "'";
  core::FaultTreeNode top;
  top.kind = core::GateKind::Or;
  top.label = tree.top_event;
  tree.nodes.push_back(top);

  std::map<ObjectId, size_t> basic_index;
  const auto basic_for = [&](ObjectId comp) {
    const auto it = basic_index.find(comp);
    if (it != basic_index.end()) return it->second;
    core::FaultTreeNode basic;
    basic.kind = core::GateKind::Basic;
    basic.component = comp;
    basic.label = "loss of '" + ssam.obj(comp).get_string("name") + "'";
    basic.failure_rate = core::loss_failure_rate(ssam, comp);
    tree.nodes.push_back(basic);
    const size_t index = tree.nodes.size() - 1;
    basic_index[comp] = index;
    return index;
  };

  for (const auto& cut : cuts) {
    tree.cut_sets.push_back(cut);
    if (cut.size() == 1) {
      const size_t basic = basic_for(cut[0]);
      tree.nodes[0].children.push_back(basic);
    } else {
      core::FaultTreeNode gate;
      gate.kind = core::GateKind::And;
      gate.label = "joint loss of " + std::to_string(cut.size()) + " redundant components";
      for (const ObjectId member : cut) gate.children.push_back(basic_for(member));
      tree.nodes.push_back(std::move(gate));
      tree.nodes[0].children.push_back(tree.nodes.size() - 1);
    }
  }
  return tree;
}

}  // namespace decisive::fta
