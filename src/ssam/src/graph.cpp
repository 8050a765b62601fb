#include "decisive/ssam/graph.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
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

CsrRows CsrRows::from_edges(std::vector<std::pair<int, int>>& edges, size_t vertex_count) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  CsrRows rows;
  rows.offsets.assign(vertex_count + 1, 0);
  rows.targets.reserve(edges.size());
  for (const auto& [from, to] : edges) {
    ++rows.offsets[static_cast<size_t>(from) + 1];
    rows.targets.push_back(to);
  }
  for (size_t v = 0; v < vertex_count; ++v) rows.offsets[v + 1] += rows.offsets[v];
  return rows;
}

ComponentGraph build_graph(const SsamModel& ssam, ObjectId component) {
  using G = ComponentGraph;
  ComponentGraph graph;
  const auto& comp = ssam.obj(component);
  const std::string comp_name = comp.get_string("name");
  graph.node = {model::kNullObject, model::kNullObject};
  graph.direction = {NodeDirection::InOut, NodeDirection::InOut};
  graph.owner = {-1, -1};
  const auto list = [&](ObjectId node, const std::string& scope, int owner) {
    graph.node.push_back(node);
    graph.direction.push_back(direction_of(ssam, node, scope));
    graph.owner.push_back(owner);
    return graph.direction.back();
  };
  // Edges between listings first; each endpoint moves to the last listing
  // of its IONode once every listing is known.
  std::vector<std::pair<int, int>> edges;

  // The component's own IONodes. An inout node carries both roles.
  bool has_input = false;
  bool has_output = false;
  for (const ObjectId node : comp.refs("ioNodes")) {
    const auto v = static_cast<int>(graph.size());
    const NodeDirection dir = list(node, comp_name, -1);
    if (dir != NodeDirection::Out) edges.emplace_back(G::kSource, v);
    if (dir != NodeDirection::In) edges.emplace_back(v, G::kSink);
    has_input = has_input || dir != NodeDirection::Out;
    has_output = has_output || dir != NodeDirection::In;
  }
  if (!has_input || !has_output) {
    throw AnalysisError("component '" + comp_name +
                        "' needs at least one input and one output IONode for path analysis");
  }

  // Subcomponent IONodes, and a through edge from every input-role node of
  // a subcomponent to every output-role node (no self edge for inout nodes).
  graph.subcomponents = comp.refs("subcomponents");
  for (size_t s = 0; s < graph.subcomponents.size(); ++s) {
    const auto& sub = ssam.obj(graph.subcomponents[s]);
    const std::string sub_name = sub.get_string("name");
    const size_t begin = graph.size();
    for (const ObjectId node : sub.refs("ioNodes")) list(node, sub_name, static_cast<int>(s));
    for (size_t in = begin; in < graph.size(); ++in) {
      if (graph.direction[in] == NodeDirection::Out) continue;
      for (size_t out = begin; out < graph.size(); ++out) {
        if (graph.direction[out] != NodeDirection::In && graph.node[in] != graph.node[out]) {
          edges.emplace_back(static_cast<int>(in), static_cast<int>(out));
        }
      }
    }
  }

  // `index` holds (id, vertex) sorted, so the last listing of an id is the
  // last entry of its run.
  std::vector<std::pair<ObjectId, int>> index;
  index.reserve(graph.size() - 2);
  for (size_t v = 2; v < graph.size(); ++v) {
    index.emplace_back(graph.node[v], static_cast<int>(v));
  }
  std::sort(index.begin(), index.end());
  const auto vertex_of = [&](ObjectId id) {
    const auto it = std::upper_bound(index.begin(), index.end(),
                                     std::pair{id, std::numeric_limits<int>::max()});
    return it != index.begin() && std::prev(it)->first == id ? std::prev(it)->second : -1;
  };
  for (auto& [from, to] : edges) {
    if (from >= 2) from = vertex_of(graph.node[static_cast<size_t>(from)]);
    if (to >= 2) to = vertex_of(graph.node[static_cast<size_t>(to)]);
  }

  // Explicit wire edges, each endpoint in scope: one of the component's own
  // IONodes or one of its subcomponents'.
  for (const ObjectId rel : comp.refs("relationships")) {
    const auto& rel_obj = ssam.obj(rel);
    const ObjectId source = rel_obj.ref("source");
    const ObjectId target = rel_obj.ref("target");
    if (source == model::kNullObject || target == model::kNullObject) {
      throw AnalysisError("relationship '" + rel_obj.get_string("name") + "' of '" + comp_name +
                          "' is missing an endpoint");
    }
    const int from = vertex_of(source);
    const int to = vertex_of(target);
    if (from < 0 || to < 0) {
      const std::string node = ssam.obj(from < 0 ? source : target).get_string("name");
      throw AnalysisError("relationship '" + rel_obj.get_string("name") + "' of '" + comp_name +
                          "' wires IONode '" + node + "', which is neither an IONode of '" +
                          comp_name + "' nor of one of its subcomponents");
    }
    edges.emplace_back(from, to);
  }
  graph.succ = CsrRows::from_edges(edges, graph.size());
  for (auto& [from, to] : edges) std::swap(from, to);
  graph.pred = CsrRows::from_edges(edges, graph.size());
  return graph;
}

// ---------------------------------------------------------------------------
// SinglePointAnalysis — dominator/cut analysis on the flow graph
// ---------------------------------------------------------------------------

namespace {

/// Iterative reachability from `start` over CSR rows, entering only the
/// vertices `admit` accepts (explicit stack — never recursion, so chain
/// depth is bounded by heap, not stack).
template <class Admit>
std::vector<char> reach(const CsrRows& adj, int start, Admit admit) {
  std::vector<char> seen(adj.size(), 0);
  std::vector<int> stack{start};
  seen[static_cast<size_t>(start)] = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const int w : adj[static_cast<size_t>(v)]) {
      if (!seen[static_cast<size_t>(w)] && admit(w)) {
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
std::vector<int> immediate_dominators(const CsrRows& succ, const CsrRows& pred) {
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
      const std::span<const int> children = succ[static_cast<size_t>(v)];
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
  using G = ComponentGraph;
  const size_t n = graph.size();
  const auto any = [](int) { return true; };
  const std::vector<char> fwd = reach(graph.succ, G::kSource, any);
  const std::vector<char> bwd = reach(graph.pred, G::kSink, any);
  has_path_ = fwd[G::kSink] != 0;
  if (!has_path_) return;

  std::vector<char> live(n, 0);
  for (size_t v = 0; v < n; ++v) live[v] = fwd[v] && bwd[v];
  for (size_t v = 2; v < n; ++v) live_nodes_ += live[v] != 0;

  // Contract each subcomponent's live IONodes into one supervertex; the
  // component's own IONodes stay individual. S keeps index 0, T index 1.
  const size_t subs = graph.subcomponents.size();
  std::vector<int> super(n, -1);
  std::vector<int> super_of_sub(subs, -1);
  int h_count = 2;
  super[G::kSource] = G::kSource;
  super[G::kSink] = G::kSink;
  for (size_t v = 2; v < n; ++v) {
    if (!live[v]) continue;
    const int owner = graph.owner[v];
    if (owner < 0) {
      super[v] = h_count++;
    } else {
      int& sv = super_of_sub[static_cast<size_t>(owner)];
      if (sv < 0) sv = h_count++;
      super[v] = sv;
    }
  }

  // Intra-component and self edges are irrelevant to cuts.
  std::vector<std::pair<int, int>> h_edges;
  for (size_t v = 0; v < n; ++v) {
    if (!live[v]) continue;
    for (const int w : graph.succ[v]) {
      if (live[static_cast<size_t>(w)] && super[v] != super[static_cast<size_t>(w)]) {
        h_edges.emplace_back(super[v], super[static_cast<size_t>(w)]);
      }
    }
  }
  const CsrRows h_succ = CsrRows::from_edges(h_edges, static_cast<size_t>(h_count));
  for (auto& [from, to] : h_edges) std::swap(from, to);
  const CsrRows h_pred = CsrRows::from_edges(h_edges, static_cast<size_t>(h_count));

  // A supervertex separates S from T iff it dominates T: walk the dominator
  // chain of the super-sink once and flag every subcomponent on it.
  const std::vector<int> idom = immediate_dominators(h_succ, h_pred);
  std::vector<char> on_chain(static_cast<size_t>(h_count), 0);
  if (idom[G::kSink] >= 0) {
    for (int v = idom[G::kSink];; v = idom[static_cast<size_t>(v)]) {
      on_chain[static_cast<size_t>(v)] = 1;
      if (v == G::kSource) break;
    }
  }
  std::vector<char> single(subs, 0);
  for (size_t s = 0; s < subs; ++s) {
    single[s] = super_of_sub[s] >= 0 && on_chain[static_cast<size_t>(super_of_sub[s])];
  }

  // Contraction is exact when every inter-component edge leaves an
  // output-role node and enters an input-role node (through edges then lift
  // any contracted walk back to a real path). Irregular wiring — an edge out
  // of an input-role node or into an output-role node — can over-connect the
  // contracted graph and hide a separator, so re-check the negative verdicts
  // exactly with one reachability pass each. Positive verdicts are always
  // sound: a contracted cut only removes the subcomponent's own vertices.
  bool irregular = false;
  for (size_t v = 2; v < n && !irregular; ++v) {
    if (!live[v]) continue;
    const int from_owner = graph.owner[v];
    for (const int w : graph.succ[v]) {
      const auto to = static_cast<size_t>(w);
      if (w < 2 || !live[to]) continue;
      const int to_owner = graph.owner[to];
      if (from_owner >= 0 && from_owner == to_owner) continue;  // through edge
      if ((from_owner >= 0 && graph.direction[v] == NodeDirection::In) ||
          (to_owner >= 0 && graph.direction[to] == NodeDirection::Out)) {
        irregular = true;
        break;
      }
    }
  }
  if (irregular) {
    // Irregular wiring forces the exact per-subcomponent re-check; the
    // counter makes this slow path visible at runtime (it defeats the
    // dominator shortcut, so a model that trips it constantly deserves
    // attention).
    static obs::Counter& exact_fallbacks =
        obs::Registry::global().counter("decisive_graph_fmea_exact_fallback_total");
    exact_fallbacks.add();
    obs::Span fallback_span("graph_fmea.exact_fallback");

    for (size_t s = 0; s < subs; ++s) {
      if (super_of_sub[s] < 0 || single[s]) continue;
      const auto elsewhere = [&](int w) {
        return graph.owner[static_cast<size_t>(w)] != static_cast<int>(s);
      };
      single[s] = !reach(graph.succ, G::kSource, elsewhere)[G::kSink];
    }
  }

  for (size_t s = 0; s < subs; ++s) {
    if (single[s]) single_points_.push_back(graph.subcomponents[s]);
  }
  std::sort(single_points_.begin(), single_points_.end());
}

bool SinglePointAnalysis::is_single_point(ObjectId subcomponent) const {
  return std::binary_search(single_points_.begin(), single_points_.end(), subcomponent);
}

}  // namespace decisive::ssam
