// Component connectivity graph used by the automated FMEA on SSAM models
// (paper Algorithm 1: a loss-of-function failure mode of a subcomponent is a
// single-point failure iff the subcomponent lies on every input→output path
// of its parent component).
//
// Vertices are IONodes. Edges are the explicit ComponentRelationships plus
// an implicit "through" edge inside every subcomponent from each of its
// input IONodes to each of its output IONodes (the signal path the
// component provides while healthy — exactly what a loss-of-function
// failure removes).
//
// The decision procedure is SinglePointAnalysis: a dominator/cut analysis on
// the flow graph (virtual super-source over the inputs, super-sink over the
// outputs) that answers "does removing this subcomponent's IONodes sever
// every input→output connection?" for *all* subcomponents in one pass. The
// brute-force path enumeration it replaced lives on as a test oracle
// (tests/oracles).
#pragma once

#include <map>
#include <optional>
#include <string_view>
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

struct ComponentGraph {
  /// All IONode vertices (parent boundary + subcomponent nodes).
  std::vector<ObjectId> nodes;
  /// Directed adjacency: wire edges and through-component edges.
  std::map<ObjectId, std::vector<ObjectId>> edges;
  /// Boundary IONodes of the parent component (an `inout` boundary node
  /// appears in both vectors).
  std::vector<ObjectId> inputs;
  std::vector<ObjectId> outputs;
  /// Owning subcomponent of each IONode (absent for parent-boundary nodes).
  std::map<ObjectId, ObjectId> owner;
  /// Validated direction of every vertex.
  std::map<ObjectId, NodeDirection> direction;
};

/// Extracts the connectivity graph of a composite component.
/// Throws AnalysisError when the component has no boundary IONodes or when
/// any IONode carries an unknown `direction` value.
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
  /// Unknown ids (not an owner in the graph) are never single points.
  [[nodiscard]] bool is_single_point(ObjectId subcomponent) const;

  /// Number of vertices both reachable from the super-source and
  /// co-reachable to the super-sink (diagnostics / benchmarks).
  [[nodiscard]] size_t live_node_count() const noexcept { return live_nodes_; }

 private:
  bool has_path_ = false;
  size_t live_nodes_ = 0;
  std::map<ObjectId, bool> verdict_;  ///< per owning subcomponent
};

}  // namespace decisive::ssam
