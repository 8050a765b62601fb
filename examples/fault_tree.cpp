// Fault Tree Analysis federated with FMEA on System B (the paper's
// future-work item 1): synthesise the tree from the architecture with the
// ZBDD engine (every minimal cut set, no order bound), quantify the top
// event exactly over several missions (rare-event bound beside it), and
// cross-check the order-1 cut sets against the automated FMEA's single points.
#include <cstdio>

#include "decisive/core/fta.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/quantify.hpp"

using namespace decisive;

int main() {
  auto system = core::make_system_b();
  auto& m = *system.model;

  const auto tree = fta::synthesize_fault_tree_zbdd(m, system.system);
  std::printf("%s\n", tree.to_text().c_str());

  std::printf("minimal cut sets (%zu):\n", tree.cut_sets.size());
  for (const auto& cut : tree.cut_sets) {
    std::printf("  {");
    for (size_t i = 0; i < cut.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : ", ", m.obj(cut[i]).get_string("name").c_str());
    }
    std::printf("}\n");
  }

  for (const double mission_hours : {1.0, 1000.0, 10000.0, 100000.0}) {
    const auto quant = fta::quantify(tree, mission_hours);
    std::printf("P(top event | %.0f h mission) = %.3e exact  (rare-event bound %.3e)\n",
                mission_hours, quant.exact_probability, quant.rare_event_bound);
  }

  // Federation with FMEA (quantitative + qualitative agreement).
  const auto fmea = core::analyze_component(m, system.system);
  const auto issues = core::crosscheck_with_fmea(m, tree, fmea);
  if (issues.empty()) {
    std::printf("\nFTA/FMEA cross-check: the analyses agree on all single points\n");
  } else {
    std::printf("\nFTA/FMEA cross-check surfaced %zu findings:\n", issues.size());
    for (const auto& issue : issues) std::printf("  %s\n", issue.c_str());
    std::printf(
        "(a structurally critical component whose modelled failure modes are\n"
        " all non-loss — e.g. B.MC1's RAM corruption — is exactly the kind of\n"
        " gap the FTA/FMEA federation is meant to expose)\n");
  }
  return tree.truncated ? 1 : 0;
}
