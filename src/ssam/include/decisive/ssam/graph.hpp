// Component flow graph used by the automated FMEA on SSAM models (paper
// Algorithm 1: a loss-of-function failure mode of a subcomponent is a
// single-point failure iff the subcomponent lies on every input→output path
// of its parent component) and by the ZBDD fault-tree engine (src/fta),
// whose order-1 minimal cut sets are exactly those subcomponents.
//
// Vertices are IONode listings plus a super-source and a super-sink. Edges
// are the explicit ComponentRelationships plus an implicit "through" edge
// inside every subcomponent from each of its input IONodes to each of its
// output IONodes (the signal path the component provides while healthy —
// exactly what a loss-of-function failure removes).
//
// The decision procedure is SinglePointAnalysis: a dominator/cut analysis
// that answers "does removing this subcomponent's IONodes sever every
// input→output connection?" for *all* subcomponents in one pass. The
// brute-force path enumeration it replaced lives on as a test oracle
// (tests/oracles).
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "decisive/ssam/model.hpp"

namespace decisive::ssam {

/// Validated IONode `direction` attribute. An `inout` node acts as both an
/// input and an output of its component.
enum class NodeDirection { In, Out, InOut };

/// Parses a raw `direction` attribute value: "in" / "out" / "inout" (case
/// insensitive, surrounding whitespace ignored; the AADL spelling "in out"
/// is accepted as InOut). Returns nullopt for anything else — including the
/// empty string — so callers can report *which* node carries the bad value.
std::optional<NodeDirection> parse_direction(std::string_view raw);

/// Rows of a directed graph in compressed sparse form: the neighbours of
/// vertex v, ascending and without repeats, are
/// targets[offsets[v], offsets[v + 1]).
struct CsrRows {
  std::vector<int> offsets;
  std::vector<int> targets;

  [[nodiscard]] size_t size() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::span<const int> operator[](size_t v) const {
    return {targets.data() + offsets[v], targets.data() + offsets[v + 1]};
  }

  /// Rows over `vertex_count` vertices from (from, to) pairs; sorts and
  /// deduplicates `edges` in place.
  static CsrRows from_edges(std::vector<std::pair<int, int>>& edges, size_t vertex_count);
};

/// The flow graph of one composite component, dense and built straight from
/// the model. Vertex kSource feeds every input-role IONode of the component
/// and vertex kSink is fed by every output-role one (an `inout` node plays
/// both roles). Vertex 2 + i is the i-th IONode listing: the component's own
/// IONodes, then each subcomponent's, in listing order. An IONode listed
/// more than once keeps a vertex per listing, but every edge uses its last
/// listing, so the earlier vertices stay isolated.
struct ComponentGraph {
  static constexpr int kSource = 0;
  static constexpr int kSink = 1;

  /// IONode of each vertex (kNullObject for the source and the sink).
  std::vector<ObjectId> node;
  /// Validated direction of each vertex's listing (InOut for the source and
  /// the sink).
  std::vector<NodeDirection> direction;
  /// Index into `subcomponents` of the subcomponent that lists each vertex's
  /// IONode; -1 for the source, the sink and the component's own IONodes,
  /// which no failure removes.
  std::vector<int> owner;
  /// The component's subcomponents, in listing order.
  std::vector<ObjectId> subcomponents;
  /// Successors and predecessors of every vertex: the wires, the through
  /// edges and the source's and sink's edges.
  CsrRows succ;
  CsrRows pred;

  [[nodiscard]] size_t size() const noexcept { return node.size(); }
};

/// Builds the flow graph of a composite component.
/// Throws AnalysisError when the component has no input or no output
/// IONode, when any IONode carries an unknown `direction` value, and when a
/// relationship misses an endpoint or wires an IONode that is neither one of
/// the component's own nor one of its subcomponents' (the validator's
/// `rel-endpoint-scope` rule).
ComponentGraph build_graph(const SsamModel& ssam, ObjectId component);

/// Decides, for every subcomponent of the graph at once, whether the
/// subcomponent is a single point of failure: whether the set of surviving
/// super-source→super-sink connections is empty after removing the
/// subcomponent's IONodes.
///
/// The engine never materialises paths. It computes the reachable-and-
/// co-reachable ("live") subgraph with iterative traversals (no recursion, so
/// 10k-deep chains cannot overflow the stack), contracts each subcomponent's
/// live IONodes into one supervertex, and reads the verdicts off the
/// dominator chain of the super-sink — one dominator-tree computation for the
/// whole component instead of one DFS per subcomponent. On graphs with
/// irregular wiring (edges leaving an input-role node or entering an
/// output-role node, where contraction could over-connect), the affected
/// negative verdicts are re-checked exactly with per-subcomponent
/// reachability, so the result equals the brute-force oracle on every input.
class SinglePointAnalysis {
 public:
  explicit SinglePointAnalysis(const ComponentGraph& graph);

  /// True when at least one input→output connection exists. When false, no
  /// subcomponent is a single point.
  [[nodiscard]] bool has_path() const noexcept { return has_path_; }

  /// True when removing `subcomponent`'s IONodes severs every connection.
  /// Ids that own no live vertex of the graph are never single points.
  [[nodiscard]] bool is_single_point(ObjectId subcomponent) const;

  /// Number of vertices both reachable from the super-source and
  /// co-reachable to the super-sink (diagnostics / benchmarks).
  [[nodiscard]] size_t live_node_count() const noexcept { return live_nodes_; }

 private:
  bool has_path_ = false;
  size_t live_nodes_ = 0;
  std::vector<ObjectId> single_points_;  ///< ascending
};

}  // namespace decisive::ssam
