// Graph FMEA (ssam::SinglePointAnalysis) and the ZBDD fault tree
// (fta::synthesize_fault_tree_zbdd) read one component flow graph,
// ssam::build_graph. Algorithm 1's single points are the subcomponents on
// every input→output path, which are exactly the order-1 minimal cut sets of
// the loss-of-function fault tree, so the two engines must agree on every
// subcomponent wherever a path exists. These tests hold them to that on
// seeded random architectures and on the repository's subjects, and check
// that both reject a relationship that wires an IONode outside the
// component's scope with the same error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/ssam/graph.hpp"
#include "spare_subject.hpp"

using namespace decisive;
using ssam::ObjectId;
using ssam::SsamModel;

namespace {

/// The graph FMEA's analysis units under `root`: `root` and, recursively,
/// every composite subcomponent with IONodes.
std::vector<ObjectId> units_under(const SsamModel& m, ObjectId root) {
  std::vector<ObjectId> units{root};
  for (size_t i = 0; i < units.size(); ++i) {
    for (const ObjectId sub : m.obj(units[i]).refs("subcomponents")) {
      if (!m.obj(sub).refs("subcomponents").empty() && !m.obj(sub).refs("ioNodes").empty()) {
        units.push_back(sub);
      }
    }
  }
  return units;
}

struct Agreement {
  size_t units = 0;          ///< units with an input→output path
  size_t single_points = 0;  ///< subcomponents both engines call single points
  size_t redundant = 0;      ///< subcomponents on a path that neither does
};

/// Compares, on every analysis unit under `root` that has an input→output
/// path, each subcomponent's single-point verdict with whether it is an
/// order-1 minimal cut set of the unit's fault tree.
Agreement expect_engines_agree(const SsamModel& m, ObjectId root, const std::string& label) {
  Agreement agreement;
  for (const ObjectId unit : units_under(m, root)) {
    const ssam::ComponentGraph graph = ssam::build_graph(m, unit);
    const ssam::SinglePointAnalysis analysis(graph);
    if (!analysis.has_path()) continue;
    ++agreement.units;
    const core::FaultTree tree = fta::synthesize_fault_tree_zbdd(m, unit);
    std::vector<ObjectId> order_one;
    for (const auto& cut : tree.cut_sets) {
      EXPECT_FALSE(cut.empty()) << label << ": a path exists, yet the empty set is a cut";
      if (cut.size() == 1) order_one.push_back(cut[0]);
    }
    std::sort(order_one.begin(), order_one.end());
    for (const ObjectId cut : order_one) {
      EXPECT_TRUE(analysis.is_single_point(cut))
          << label << ": {" << m.obj(cut).get_string("name") << "} is an order-1 cut of '"
          << m.obj(unit).get_string("name") << "' but not a single point";
    }
    std::vector<ObjectId> subs = graph.subcomponents;
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    for (const ObjectId sub : subs) {
      const bool single = analysis.is_single_point(sub);
      EXPECT_EQ(single, std::binary_search(order_one.begin(), order_one.end(), sub))
          << label << ": subcomponent '" << m.obj(sub).get_string("name") << "' of '"
          << m.obj(unit).get_string("name") << "'";
      if (single) {
        ++agreement.single_points;
      } else {
        ++agreement.redundant;
      }
    }
  }
  return agreement;
}

/// A seeded random architecture under a new component `sys`: one or two
/// input and output boundary IONodes, sometimes an inout one, and 2-7
/// subcomponents of 1-3 IONodes each. A spine of wires through a random
/// order of the subcomponents makes a path likely; further random wires
/// close cycles. Regular wiring only runs wires out of output-role nodes
/// (or boundary nodes) into input-role ones; irregular wiring draws IONode
/// directions at random and joins any two IONodes in scope. Some wires are
/// repeated and sometimes an IONode is listed a second time, by its own
/// subcomponent, another one or `sys`.
ObjectId build_random_architecture(SsamModel& m, std::uint64_t seed, bool irregular) {
  std::mt19937_64 rng(seed);
  const auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const ObjectId sys = m.create_component(m.create_component_package("design"), "sys");

  struct Node {
    ObjectId id;
    bool boundary;
    bool in_role;
    bool out_role;
  };
  std::vector<Node> nodes;
  const auto add_node = [&](ObjectId owner, const std::string& name, const char* direction) {
    const std::string dir = direction;
    nodes.push_back({m.add_io_node(owner, name, direction), owner == sys, dir != "out",
                     dir != "in"});
    return nodes.back();
  };
  std::vector<Node> inputs;
  std::vector<Node> outputs;
  for (size_t i = 0, n = 1 + below(2); i < n; ++i) {
    inputs.push_back(add_node(sys, "in" + std::to_string(i), "in"));
  }
  for (size_t i = 0, n = 1 + below(2); i < n; ++i) {
    outputs.push_back(add_node(sys, "out" + std::to_string(i), "out"));
  }
  if (below(4) == 0) {
    const Node bus = add_node(sys, "bus", "inout");
    inputs.push_back(bus);
    outputs.push_back(bus);
  }

  static constexpr const char* kDirections[] = {"in", "out", "inout"};
  struct Sub {
    ObjectId id;
    std::vector<Node> nodes;
  };
  std::vector<Sub> subs;
  for (size_t s = 0, n = 2 + below(6); s < n; ++s) {
    const std::string name = "c" + std::to_string(s);
    Sub sub{m.create_component(sys, name), {}};
    for (size_t k = 0, count = 1 + below(3); k < count; ++k) {
      const char* direction = irregular ? kDirections[below(3)]
                              : k == 0  ? (below(4) == 0 ? "inout" : "in")
                                        : kDirections[1 + below(2)];
      sub.nodes.push_back(add_node(sub.id, name + ".n" + std::to_string(k), direction));
    }
    subs.push_back(std::move(sub));
  }

  std::vector<std::pair<ObjectId, ObjectId>> wires;
  const auto wire = [&](const Node& from, const Node& to) {
    m.connect(sys, from.id, to.id);
    wires.emplace_back(from.id, to.id);
  };
  // A node of `sub` in the role asked for, any node when it has none.
  const auto pick = [&](const Sub& sub, bool want_in) {
    std::vector<Node> fit;
    for (const Node& n : sub.nodes) {
      if (want_in ? n.in_role : n.out_role) fit.push_back(n);
    }
    return fit.empty() ? sub.nodes[below(sub.nodes.size())] : fit[below(fit.size())];
  };
  std::vector<size_t> order(subs.size());
  for (size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::shuffle(order.begin(), order.end(), rng);
  Node previous = inputs[below(inputs.size())];
  for (const size_t s : order) {
    wire(previous, pick(subs[s], true));
    previous = pick(subs[s], false);
  }
  wire(previous, outputs[below(outputs.size())]);

  for (size_t w = 0, extra = 1 + below(2 * nodes.size()); w < extra; ++w) {
    if (irregular) {
      wire(nodes[below(nodes.size())], nodes[below(nodes.size())]);
      continue;
    }
    std::vector<Node> from;
    std::vector<Node> to;
    for (const Node& n : nodes) {
      if (n.boundary || n.out_role) from.push_back(n);
      if (n.boundary || n.in_role) to.push_back(n);
    }
    wire(from[below(from.size())], to[below(to.size())]);
  }
  for (size_t r = 0, repeats = below(3); r < repeats; ++r) {
    const auto [from, to] = wires[below(wires.size())];
    m.connect(sys, from, to);
  }
  if (below(2) == 0) {
    const Sub& lister = subs[below(subs.size())];
    const ObjectId listed = lister.nodes[below(lister.nodes.size())].id;
    const size_t where = below(3);
    const ObjectId owner = where == 0   ? lister.id
                           : where == 1 ? subs[below(subs.size())].id
                                        : sys;
    m.obj(owner).add_ref("ioNodes", listed);
  }
  return sys;
}

/// The message of the AnalysisError `run` throws ("" when it throws none).
template <class Run>
std::string analysis_error(Run run) {
  try {
    run();
  } catch (const AnalysisError& error) {
    return error.what();
  }
  return "";
}

}  // namespace

TEST(CrossEngine, SinglePointsAreTheOrderOneCutsOnRandomArchitectures) {
  auto& fallbacks = obs::Registry::global().counter("decisive_graph_fmea_exact_fallback_total");
  const std::uint64_t fallbacks0 = fallbacks.value();
  Agreement total;
  for (const bool irregular : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      SsamModel m;
      const ObjectId sys = build_random_architecture(m, seed, irregular);
      const Agreement agreement = expect_engines_agree(
          m, sys, std::string(irregular ? "irregular" : "regular") + " seed " +
                      std::to_string(seed));
      total.units += agreement.units;
      total.single_points += agreement.single_points;
      total.redundant += agreement.redundant;
    }
  }
  // Both verdicts occur often, so the agreement is not a vacuous one.
  EXPECT_GT(total.units, 300u);
  EXPECT_GT(total.single_points, 200u);
  EXPECT_GT(total.redundant, 200u);
  // Irregular wiring sends the analysis down its exact re-check.
  EXPECT_GT(fallbacks.value() - fallbacks0, 100u);
}

TEST(CrossEngine, SinglePointsAreTheOrderOneCutsOnTheRepositorySubjects) {
  {
    SsamModel brake;
    model::load_xmi_file(brake.repo(), brake.meta(), DECISIVE_ASSETS_DIR "/brake_chain.ssam");
    const Agreement agreement = expect_engines_agree(
        brake, brake.find_by_name(ssam::cls::Component, "BrakeChain"), "brake_chain");
    EXPECT_EQ(agreement.single_points, 2u);  // Sensor and Driver
  }
  const auto system_a = core::make_system_a();
  const auto system_b = core::make_system_b();
  const auto lattice = core::make_scaled_architecture(9, 1, 5);
  const auto scaled = core::make_scaled_architecture(40, 8);
  for (const auto& [name, subject] :
       {std::pair{"System A", &system_a}, std::pair{"System B", &system_b},
        std::pair{"(9,1,5) lattice", &lattice}, std::pair{"(40,8) scaled", &scaled}}) {
    const Agreement agreement = expect_engines_agree(*subject->model, subject->system, name);
    EXPECT_GT(agreement.units, 0u) << name;
  }
}

TEST(CrossEngine, OutOfScopeWireIsRejectedAlikeByBothEngines) {
  SsamModel m;
  const ObjectId chain = spare_subject::build(m, /*bypass=*/true);
  const std::string graph_error = analysis_error([&] { (void)ssam::build_graph(m, chain); });
  EXPECT_NE(graph_error.find("'bypass1'"), std::string::npos) << graph_error;
  EXPECT_NE(graph_error.find("'Spare.in'"), std::string::npos) << graph_error;
  EXPECT_EQ(analysis_error([&] { (void)core::analyze_component(m, chain); }), graph_error);
  EXPECT_EQ(analysis_error([&] { (void)fta::synthesize_fault_tree_zbdd(m, chain); }),
            graph_error);

  // Without the bypass both engines call Sensor and Driver single points.
  SsamModel clean;
  const ObjectId clean_chain = spare_subject::build(clean, /*bypass=*/false);
  EXPECT_EQ(expect_engines_agree(clean, clean_chain, "spare without bypass").single_points, 2u);
}
