#include "decisive/ssam/graph.hpp"

#include <set>
#include <string>
#include <utility>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"

namespace decisive::ssam {

std::optional<NodeDirection> parse_direction(std::string_view raw) {
  const std::string value = to_lower(trim(raw));
  if (value == "in") return NodeDirection::In;
  if (value == "out") return NodeDirection::Out;
  if (value == "inout" || value == "in out") return NodeDirection::InOut;
  return std::nullopt;
}

namespace {

NodeDirection direction_of(const SsamModel& ssam, ObjectId node, const std::string& scope) {
  const std::string raw = ssam.obj(node).get_string("direction");
  const auto dir = parse_direction(raw);
  if (!dir.has_value()) {
    throw AnalysisError("IONode '" + ssam.obj(node).get_string("name") + "' of '" + scope +
                        "' has unknown direction '" + raw +
                        "' (expected 'in', 'out' or 'inout')");
  }
  return *dir;
}

}  // namespace

ComponentGraph build_graph(const SsamModel& ssam, ObjectId component) {
  ComponentGraph graph;
  const auto& comp = ssam.obj(component);
  const std::string comp_name = comp.get_string("name");

  // Parent boundary nodes. An inout node carries both roles.
  for (const ObjectId node : comp.refs("ioNodes")) {
    graph.nodes.push_back(node);
    const NodeDirection dir = direction_of(ssam, node, comp_name);
    graph.direction[node] = dir;
    if (dir != NodeDirection::Out) graph.inputs.push_back(node);
    if (dir != NodeDirection::In) graph.outputs.push_back(node);
  }
  if (graph.inputs.empty() || graph.outputs.empty()) {
    throw AnalysisError("component '" + comp_name +
                        "' needs at least one input and one output IONode for path analysis");
  }

  // Subcomponent nodes + implicit through edges from every input-role node
  // to every output-role node (no self edge for inout nodes).
  for (const ObjectId sub : comp.refs("subcomponents")) {
    const std::string sub_name = ssam.obj(sub).get_string("name");
    std::vector<ObjectId> sub_inputs;
    std::vector<ObjectId> sub_outputs;
    for (const ObjectId node : ssam.obj(sub).refs("ioNodes")) {
      graph.nodes.push_back(node);
      graph.owner[node] = sub;
      const NodeDirection dir = direction_of(ssam, node, sub_name);
      graph.direction[node] = dir;
      if (dir != NodeDirection::Out) sub_inputs.push_back(node);
      if (dir != NodeDirection::In) sub_outputs.push_back(node);
    }
    for (const ObjectId in : sub_inputs) {
      for (const ObjectId out : sub_outputs) {
        if (in != out) graph.edges[in].push_back(out);
      }
    }
  }

  // Explicit wire edges.
  for (const ObjectId rel : comp.refs("relationships")) {
    const ObjectId source = ssam.obj(rel).ref("source");
    const ObjectId target = ssam.obj(rel).ref("target");
    if (source == model::kNullObject || target == model::kNullObject) {
      throw AnalysisError("component relationship with missing endpoint");
    }
    graph.edges[source].push_back(target);
  }
  return graph;
}

// ---------------------------------------------------------------------------
// SinglePointAnalysis — dominator/cut analysis on the flow graph
// ---------------------------------------------------------------------------

namespace {

/// Dense-index view of a ComponentGraph plus the virtual super-source (fed
/// into every boundary input) and super-sink (fed by every boundary output).
struct FlowGraph {
  static constexpr int kSource = 0;
  static constexpr int kSink = 1;

  std::vector<ObjectId> id_of;  ///< vertex index -> ObjectId (kNullObject for S/T)
  std::map<ObjectId, int> index_of;
  std::vector<std::vector<int>> succ;
  std::vector<std::vector<int>> pred;

  [[nodiscard]] size_t size() const noexcept { return id_of.size(); }
};

FlowGraph make_flow_graph(const ComponentGraph& graph) {
  FlowGraph flow;
  flow.id_of = {model::kNullObject, model::kNullObject};  // S, T
  const auto intern = [&flow](ObjectId id) {
    const auto [it, inserted] = flow.index_of.try_emplace(id, static_cast<int>(flow.id_of.size()));
    if (inserted) flow.id_of.push_back(id);
    return it->second;
  };
  for (const ObjectId id : graph.nodes) intern(id);
  // Defensive: relationships may reference IONodes outside the component's
  // declared vertex set (caught by the validator, not by build_graph).
  for (const auto& [from, targets] : graph.edges) {
    intern(from);
    for (const ObjectId to : targets) intern(to);
  }

  flow.succ.resize(flow.size());
  flow.pred.resize(flow.size());
  const auto add_edge = [&flow](int a, int b) {
    flow.succ[static_cast<size_t>(a)].push_back(b);
    flow.pred[static_cast<size_t>(b)].push_back(a);
  };
  for (const ObjectId in : graph.inputs) add_edge(FlowGraph::kSource, flow.index_of.at(in));
  for (const ObjectId out : graph.outputs) add_edge(flow.index_of.at(out), FlowGraph::kSink);
  for (const auto& [from, targets] : graph.edges) {
    for (const ObjectId to : targets) add_edge(flow.index_of.at(from), flow.index_of.at(to));
  }
  return flow;
}

/// Iterative reachability over an adjacency vector (explicit stack — never
/// recursion, so chain depth is bounded by heap, not stack).
std::vector<char> reach(const std::vector<std::vector<int>>& adj, int start) {
  std::vector<char> seen(adj.size(), 0);
  std::vector<int> stack{start};
  seen[static_cast<size_t>(start)] = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const int w : adj[static_cast<size_t>(v)]) {
      if (!seen[static_cast<size_t>(w)]) {
        seen[static_cast<size_t>(w)] = 1;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

/// Immediate dominators over `succ`/`pred` rooted at vertex 0, via the
/// iterative Cooper–Harvey–Kennedy dataflow on reverse postorder. Works on
/// arbitrary digraphs (cycles included). Returns idom indexed by vertex;
/// unreachable vertices keep -1.
std::vector<int> immediate_dominators(const std::vector<std::vector<int>>& succ,
                                      const std::vector<std::vector<int>>& pred) {
  const size_t n = succ.size();
  // Iterative DFS postorder from the root.
  std::vector<int> postorder;
  postorder.reserve(n);
  {
    std::vector<char> seen(n, 0);
    std::vector<std::pair<int, size_t>> stack;  // (vertex, next child index)
    stack.emplace_back(0, 0);
    seen[0] = 1;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto& children = succ[static_cast<size_t>(v)];
      bool descended = false;
      while (next < children.size()) {
        const int w = children[next++];
        if (!seen[static_cast<size_t>(w)]) {
          seen[static_cast<size_t>(w)] = 1;
          stack.emplace_back(w, 0);
          descended = true;
          break;
        }
      }
      if (!descended && stack.back().second >= children.size()) {
        postorder.push_back(stack.back().first);
        stack.pop_back();
      }
    }
  }
  std::vector<int> rpo_number(n, -1);
  std::vector<int> rpo;  // root first
  rpo.reserve(postorder.size());
  for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
    rpo_number[static_cast<size_t>(*it)] = static_cast<int>(rpo.size());
    rpo.push_back(*it);
  }

  std::vector<int> idom(n, -1);
  idom[0] = 0;
  const auto intersect = [&](int a, int b) {
    while (a != b) {
      while (rpo_number[static_cast<size_t>(a)] > rpo_number[static_cast<size_t>(b)]) {
        a = idom[static_cast<size_t>(a)];
      }
      while (rpo_number[static_cast<size_t>(b)] > rpo_number[static_cast<size_t>(a)]) {
        b = idom[static_cast<size_t>(b)];
      }
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 1; i < rpo.size(); ++i) {
      const int v = rpo[i];
      int new_idom = -1;
      for (const int p : pred[static_cast<size_t>(v)]) {
        if (rpo_number[static_cast<size_t>(p)] < 0) continue;  // unreachable pred
        if (idom[static_cast<size_t>(p)] < 0) continue;        // not yet processed
        new_idom = new_idom < 0 ? p : intersect(p, new_idom);
      }
      if (new_idom >= 0 && idom[static_cast<size_t>(v)] != new_idom) {
        idom[static_cast<size_t>(v)] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

}  // namespace

SinglePointAnalysis::SinglePointAnalysis(const ComponentGraph& graph) {
  // Every owner starts as "not a single point" so lookups are total.
  for (const auto& [node, owner] : graph.owner) verdict_.try_emplace(owner, false);

  const FlowGraph flow = make_flow_graph(graph);
  const std::vector<char> fwd = reach(flow.succ, FlowGraph::kSource);
  const std::vector<char> bwd = reach(flow.pred, FlowGraph::kSink);
  has_path_ = fwd[FlowGraph::kSink] != 0;
  if (!has_path_) return;

  std::vector<char> live(flow.size(), 0);
  for (size_t v = 0; v < flow.size(); ++v) live[v] = fwd[v] && bwd[v];
  for (size_t v = 2; v < flow.size(); ++v) live_nodes_ += live[v] != 0;

  // Contract each subcomponent's live IONodes into one supervertex; boundary
  // (unowned) vertices stay individual. S keeps index 0, T index 1.
  std::vector<int> super(flow.size(), -1);
  std::map<ObjectId, int> owner_super;
  int h_count = 2;
  super[FlowGraph::kSource] = FlowGraph::kSource;
  super[FlowGraph::kSink] = FlowGraph::kSink;
  for (size_t v = 2; v < flow.size(); ++v) {
    if (!live[v]) continue;
    const auto owner_it = graph.owner.find(flow.id_of[v]);
    if (owner_it == graph.owner.end()) {
      super[v] = h_count++;
    } else {
      const auto [it, inserted] = owner_super.try_emplace(owner_it->second, h_count);
      if (inserted) ++h_count;
      super[v] = it->second;
    }
  }

  std::vector<std::vector<int>> h_succ(static_cast<size_t>(h_count));
  std::vector<std::vector<int>> h_pred(static_cast<size_t>(h_count));
  std::set<std::pair<int, int>> h_edges;
  for (size_t v = 0; v < flow.size(); ++v) {
    if (!live[v]) continue;
    for (const int w : flow.succ[v]) {
      if (!live[static_cast<size_t>(w)]) continue;
      const int a = super[v];
      const int b = super[static_cast<size_t>(w)];
      if (a == b) continue;  // intra-component / self edge: irrelevant to cuts
      if (h_edges.emplace(a, b).second) {
        h_succ[static_cast<size_t>(a)].push_back(b);
        h_pred[static_cast<size_t>(b)].push_back(a);
      }
    }
  }

  // A supervertex separates S from T iff it dominates T: walk the dominator
  // chain of the super-sink once and flag every subcomponent on it.
  const std::vector<int> idom = immediate_dominators(h_succ, h_pred);
  std::vector<char> on_chain(static_cast<size_t>(h_count), 0);
  if (idom[FlowGraph::kSink] >= 0) {
    for (int v = idom[FlowGraph::kSink];; v = idom[static_cast<size_t>(v)]) {
      on_chain[static_cast<size_t>(v)] = 1;
      if (v == FlowGraph::kSource) break;
    }
  }
  for (const auto& [owner, sv] : owner_super) {
    if (on_chain[static_cast<size_t>(sv)]) verdict_[owner] = true;
  }

  // Contraction is exact when every inter-component edge leaves an
  // output-role node and enters an input-role node (through edges then lift
  // any contracted walk back to a real path). Irregular wiring — an edge out
  // of an input-role node or into an output-role node — can over-connect the
  // contracted graph and hide a separator, so re-check the negative verdicts
  // exactly with one reachability pass each. Positive verdicts are always
  // sound: a contracted cut only removes the subcomponent's own vertices.
  bool irregular = false;
  for (size_t v = 2; v < flow.size() && !irregular; ++v) {
    if (!live[v]) continue;
    const ObjectId from_id = flow.id_of[v];
    const auto from_owner = graph.owner.find(from_id);
    for (const int w : flow.succ[v]) {
      if (w < 2 || !live[static_cast<size_t>(w)]) continue;
      const ObjectId to_id = flow.id_of[static_cast<size_t>(w)];
      const auto to_owner = graph.owner.find(to_id);
      const bool same_owner = from_owner != graph.owner.end() &&
                              to_owner != graph.owner.end() &&
                              from_owner->second == to_owner->second;
      if (same_owner) continue;  // through edge
      const auto from_dir = graph.direction.find(from_id);
      const auto to_dir = graph.direction.find(to_id);
      if ((from_owner != graph.owner.end() && from_dir != graph.direction.end() &&
           from_dir->second == NodeDirection::In) ||
          (to_owner != graph.owner.end() && to_dir != graph.direction.end() &&
           to_dir->second == NodeDirection::Out)) {
        irregular = true;
        break;
      }
    }
  }
  if (!irregular) return;
  // Irregular wiring forces the exact per-subcomponent re-check; the counter
  // makes this slow path visible at runtime (it defeats the dominator
  // shortcut, so a model that trips it constantly deserves attention).
  static obs::Counter& exact_fallbacks =
      obs::Registry::global().counter("decisive_graph_fmea_exact_fallback_total");
  exact_fallbacks.add();
  obs::Span fallback_span("graph_fmea.exact_fallback");

  for (const auto& [owner, sv] : owner_super) {
    if (verdict_[owner]) continue;
    // Reachability S -> T skipping this owner's vertices.
    std::vector<char> seen(flow.size(), 0);
    std::vector<int> stack{FlowGraph::kSource};
    seen[FlowGraph::kSource] = 1;
    bool connected = false;
    while (!stack.empty() && !connected) {
      const int v = stack.back();
      stack.pop_back();
      for (const int w : flow.succ[static_cast<size_t>(v)]) {
        if (seen[static_cast<size_t>(w)]) continue;
        const auto it = graph.owner.find(flow.id_of[static_cast<size_t>(w)]);
        if (it != graph.owner.end() && it->second == owner) continue;
        if (w == FlowGraph::kSink) {
          connected = true;
          break;
        }
        seen[static_cast<size_t>(w)] = 1;
        stack.push_back(w);
      }
    }
    if (!connected) verdict_[owner] = true;
  }
}

bool SinglePointAnalysis::is_single_point(ObjectId subcomponent) const {
  const auto it = verdict_.find(subcomponent);
  return it != verdict_.end() && it->second;
}

}  // namespace decisive::ssam
