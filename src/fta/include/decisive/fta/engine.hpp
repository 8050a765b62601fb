// ZBDD minimal-cut-set synthesis over the component flow graph.
//
// The seed-era synthesis, kept as the test oracle
// `oracle::synthesize_fault_tree`, enumerates every input→output path
// (exponential) and screens k-subsets up to order 3. This engine instead
// Shannon-decomposes the structure function directly on the flow graph: pick
// the first free component on a live path, and the minimal cut sets are
//   node(c, F[c perfect], F[c failed] \ supersets(F[c perfect]))
// with two terminal checks per state — "already disconnected" ({∅}) and
// "permanently connected through unfailable/perfect vertices" ({}). States
// are memoised on their (live vertices, perfect components, order budget)
// signature, so redundant lattices collapse to polynomially many distinct
// subproblems where enumeration explodes.
//
// The result is a `core::FaultTree` identical (cut sets, labels, rates) to
// the oracle's on every input where the oracle completes — enforced by
// property tests and the `reproduce` tool's identity gate.
#pragma once

#include "decisive/core/fta.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::fta {

struct ZbddFtaOptions {
  /// Minimal cut sets larger than this are suppressed (0 = unbounded). When
  /// the bound clips the synthesis the returned tree has `truncated` set:
  /// minimal cut sets above the bound MAY exist (the flag is conservative —
  /// suppression is detected before the sub-state is fully explored).
  size_t max_order = 0;
};

/// Synthesises the fault tree for the loss of `component`'s function via
/// ZBDD decomposition of the flow graph ssam::build_graph returns. Same
/// contract as the enumeration oracle (labels, rates, AnalysisError when
/// build_graph rejects the component) but never enumerates paths, so dense
/// graphs with order-4/5 cuts stay tractable.
core::FaultTree synthesize_fault_tree_zbdd(const ssam::SsamModel& ssam,
                                           ssam::ObjectId component,
                                           const ZbddFtaOptions& options = {});

}  // namespace decisive::fta
