// Property-based tests on randomly generated circuits: structural truths the
// fault-injection FMEA must respect regardless of topology, solver
// invariants (superposition on linear networks), and verdicts that must not
// depend on the order a circuit's elements are listed in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "campaign_subjects.hpp"
#include "decisive/base/csv.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/safety_mechanism.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/sim/circuit.hpp"
#include "decisive/sim/fault.hpp"
#include "decisive/sim/solver.hpp"
#include "decisive/sim/sparse.hpp"

using namespace decisive;
using namespace decisive::sim;

namespace {

/// A random series-parallel resistive ladder between a source and a sensed
/// load: `stages` stages, each either one series resistor or a parallel
/// pair. Returns the built circuit + which elements are serial.
struct RandomLadder {
  Circuit circuit;
  std::vector<std::string> serial_elements;
  std::vector<std::string> parallel_elements;
};

RandomLadder make_ladder(Rng& rng, int stages) {
  RandomLadder out;
  Circuit& c = out.circuit;
  int previous = c.node("vin");
  c.add_vsource("V1", previous, 0, 10.0);
  int counter = 0;
  for (int stage = 0; stage < stages; ++stage) {
    const int next = c.make_node();
    if (rng.chance(0.5)) {
      const std::string name = "Rs" + std::to_string(counter++);
      c.add_resistor(name, previous, next, rng.uniform(100.0, 10000.0));
      out.serial_elements.push_back(name);
    } else {
      const std::string a = "Rp" + std::to_string(counter++);
      const std::string b = "Rp" + std::to_string(counter++);
      c.add_resistor(a, previous, next, rng.uniform(100.0, 10000.0));
      c.add_resistor(b, previous, next, rng.uniform(100.0, 10000.0));
      out.parallel_elements.push_back(a);
      out.parallel_elements.push_back(b);
    }
    previous = next;
  }
  const int sense = c.make_node();
  c.add_current_sensor("CS", previous, sense);
  c.add_resistor("Rload", sense, 0, 1000.0);
  return out;
}

}  // namespace

class LadderProperty : public ::testing::TestWithParam<int> {};

TEST_P(LadderProperty, SerialOpensAlwaysKillTheLoad) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const RandomLadder ladder = make_ladder(rng, 2 + static_cast<int>(rng.below(5)));
  const double baseline = std::abs(dc_operating_point(ladder.circuit).reading("CS"));
  ASSERT_GT(baseline, 1e-6);

  for (const auto& name : ladder.serial_elements) {
    const auto faulted = inject_fault(ladder.circuit, Fault{name, FaultKind::Open});
    const double after = std::abs(dc_operating_point(faulted).reading("CS"));
    EXPECT_LT(after, baseline * 1e-3) << name << " open must sever the load";
  }
}

TEST_P(LadderProperty, ParallelOpensNeverKillTheLoad) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const RandomLadder ladder = make_ladder(rng, 2 + static_cast<int>(rng.below(5)));
  const double baseline = std::abs(dc_operating_point(ladder.circuit).reading("CS"));
  ASSERT_GT(baseline, 1e-6);

  for (const auto& name : ladder.parallel_elements) {
    const auto faulted = inject_fault(ladder.circuit, Fault{name, FaultKind::Open});
    const double after = std::abs(dc_operating_point(faulted).reading("CS"));
    EXPECT_GT(after, baseline * 0.05) << name << " open must leave its twin carrying current";
  }
}

TEST_P(LadderProperty, ShortsNeverDecreaseTheLoadCurrent) {
  // Shorting any series-parallel element reduces total resistance, so the
  // sensed load current cannot drop.
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  const RandomLadder ladder = make_ladder(rng, 2 + static_cast<int>(rng.below(5)));
  const double baseline = std::abs(dc_operating_point(ladder.circuit).reading("CS"));

  for (const auto& name : ladder.serial_elements) {
    const auto faulted = inject_fault(ladder.circuit, Fault{name, FaultKind::Short});
    const double after = std::abs(dc_operating_point(faulted).reading("CS"));
    EXPECT_GE(after + 1e-9, baseline) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderProperty, ::testing::Range(1, 21));

// ------------------------------------------------------------ superposition --

class SuperpositionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SuperpositionProperty, LinearNetworksObeySuperposition) {
  // Random linear resistive network with two sources: the response to both
  // sources equals the sum of the responses to each source alone.
  Rng rng(static_cast<uint64_t>(GetParam()) * 31);
  Circuit c;
  const int nodes = 4;
  std::vector<int> n{0};
  for (int i = 1; i <= nodes; ++i) n.push_back(c.node("n" + std::to_string(i)));
  // Dense-ish random resistor mesh keeps every node grounded through paths.
  int counter = 0;
  for (int i = 0; i <= nodes; ++i) {
    for (int j = i + 1; j <= nodes; ++j) {
      if (rng.chance(0.7)) {
        c.add_resistor("R" + std::to_string(counter++), n[static_cast<size_t>(i)],
                       n[static_cast<size_t>(j)], rng.uniform(100.0, 5000.0));
      }
    }
  }
  // Guarantee solvability: tie n1 and n4 to ground through resistors.
  c.add_resistor("Rg1", n[1], 0, 1000.0);
  c.add_resistor("Rg4", n[4], 0, 1000.0);
  const double v1 = rng.uniform(1.0, 10.0);
  const double i2 = rng.uniform(0.001, 0.01);
  c.add_vsource("V1", n[1], 0, v1);
  c.add_isource("I2", 0, n[2], i2);
  c.add_voltage_sensor("VS", n[3], 0);

  auto respond = [&](double v, double i) {
    Circuit copy = c;
    copy.get("V1").value = v;
    copy.get("I2").value = i;
    return dc_operating_point(copy).reading("VS");
  };
  const double both = respond(v1, i2);
  const double only_v = respond(v1, 0.0);
  const double only_i = respond(0.0, i2);
  EXPECT_NEAR(both, only_v + only_i, 1e-9 + std::abs(both) * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperpositionProperty, ::testing::Range(1, 21));

// -------------------------------------------------------- FMEA consistency --

TEST(CircuitFmeaProperty, FaultInjectionNeverMutatesTheInput) {
  Rng rng(42);
  const RandomLadder ladder = make_ladder(rng, 4);
  const auto before = dc_operating_point(ladder.circuit).reading("CS");
  for (const auto& name : ladder.serial_elements) {
    (void)inject_fault(ladder.circuit, Fault{name, FaultKind::Open});
    (void)inject_fault(ladder.circuit, Fault{name, FaultKind::Short});
  }
  const auto after = dc_operating_point(ladder.circuit).reading("CS");
  EXPECT_DOUBLE_EQ(before, after);
}

TEST(CircuitFmeaProperty, AnalysisIsDeterministic) {
  Rng rng(7);
  RandomLadder ladder = make_ladder(rng, 4);
  core::ReliabilityModel reliability;
  reliability.add("Resistor", 5, {{"Open", 0.6}, {"Short", 0.4}});

  sim::BuiltCircuit built;
  built.circuit = ladder.circuit;
  for (const auto& e : ladder.circuit.elements()) {
    if (e.kind == ElementKind::Resistor) {
      built.components.push_back({e.name, "Resistor", e.name});
    }
  }
  built.observables.push_back("CS");

  const auto first = core::analyze_circuit(built, reliability);
  const auto second = core::analyze_circuit(built, reliability);
  ASSERT_EQ(first.rows.size(), second.rows.size());
  for (size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_EQ(first.rows[i].safety_related, second.rows[i].safety_related);
  }
  EXPECT_DOUBLE_EQ(first.spfm(), second.spfm());
}

// ---------------------------------------------------- element-order metamorphic --
// Listing a circuit's elements in another order renumbers its nodes and
// unknowns, which changes the dense kernel's pivot order and the sparse
// kernel's min-degree order. The FMEDA must not notice: the same rows (as a
// multiset, every column), the same SPFM and the same warnings.

namespace {

template <typename It>
void shuffle(It first, It last, Rng& rng) {
  for (auto n = last - first; n > 1; --n) {
    std::iter_swap(first + (n - 1), first + static_cast<std::ptrdiff_t>(rng.below(n)));
  }
}

/// `built` as if its netlist had been entered in an order shuffled by
/// `rng`: non-ground nodes renumbered, elements and components reordered.
sim::BuiltCircuit shuffled(sim::BuiltCircuit built, Rng& rng) {
  std::vector<int> renumber(static_cast<size_t>(built.circuit.node_count()));
  std::iota(renumber.begin(), renumber.end(), 0);
  shuffle(renumber.begin() + 1, renumber.end(), rng);
  auto& elements = built.circuit.elements();
  for (auto& e : elements) {
    e.a = renumber[static_cast<size_t>(e.a)];
    e.b = renumber[static_cast<size_t>(e.b)];
  }
  shuffle(elements.begin(), elements.end(), rng);
  shuffle(built.components.begin(), built.components.end(), rng);
  return built;
}

/// Element-name substitutions: old name to new.
using Names = std::map<std::string, std::string>;

/// `text` with every quoted 'name' of `names` replaced by its image — how a
/// row's outcome detail and the warnings cite an element.
std::string rename_quoted(std::string text, const Names& names) {
  for (const auto& [from, to] : names) {
    const std::string key = "'" + from + "'";
    const std::string image = "'" + to + "'";
    for (auto at = text.find(key); at != std::string::npos; at = text.find(key, at + image.size())) {
      text.replace(at, key.size(), image);
    }
  }
  return text;
}

/// The campaign's verdicts, independent of row order: sorted CSV data rows,
/// then the SPFM, then the sorted warnings. With `back`, every element
/// name in them is mapped through it first.
std::tuple<std::vector<std::string>, double, std::vector<std::string>> verdicts_of(
    const sim::BuiltCircuit& built, const core::ReliabilityModel& reliability,
    const core::SafetyMechanismModel* sm_model, core::CircuitFmeaOptions options, int jobs,
    const Names& back = {}) {
  options.jobs = jobs;
  auto result = core::analyze_circuit(built, reliability, sm_model, options);
  if (!back.empty()) {
    for (auto& row : result.rows) {
      row.component = back.at(row.component);
      row.outcome_detail = rename_quoted(row.outcome_detail, back);
    }
    for (auto& warning : result.warnings) warning = rename_quoted(warning, back);
  }
  std::vector<std::string> rows;
  std::istringstream csv(write_csv(result.to_csv()));
  for (std::string line; std::getline(csv, line);) rows.push_back(line);
  std::sort(rows.begin(), rows.end());  // the header sorts in with the rows
  auto warnings = result.warnings;
  std::sort(warnings.begin(), warnings.end());
  return {rows, result.spfm(), warnings};
}

}  // namespace

TEST(ElementOrderProperty, PowerSupplyVerdictsIgnoreBlockOrder) {
  const std::string mdl = std::string(DECISIVE_ASSETS_DIR) + "/power_supply.mdl";
  const auto workbook = drivers::DriverRegistry::global().open(
      std::string(DECISIVE_ASSETS_DIR) + "/reliability_workbook");
  const auto reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
  const auto sm_model = core::SafetyMechanismModel::from_source(*workbook, "SafetyMechanisms");
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};

  const auto reference = verdicts_of(sim::build_circuit(drivers::parse_mdl_file(mdl)),
                                     reliability, &sm_model, options, 1);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    drivers::MdlModel model = drivers::parse_mdl_file(mdl);
    shuffle(model.root.blocks.begin(), model.root.blocks.end(), rng);
    shuffle(model.root.lines.begin(), model.root.lines.end(), rng);
    const sim::BuiltCircuit built = sim::build_circuit(model);
    for (const int jobs : {1, 4}) {
      EXPECT_EQ(verdicts_of(built, reliability, &sm_model, options, jobs), reference)
          << "seed " << seed << " jobs " << jobs;
    }
  }
}

TEST(ElementOrderProperty, SparseRailVerdictsIgnoreElementOrder) {
  // 48 stages put the system above the sparse kernel's dimension threshold.
  const auto rail = campaign_subjects::make_rail(48);
  const auto reliability = campaign_subjects::rail_reliability();
  const auto reference = verdicts_of(rail, reliability, nullptr, {}, 1);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const sim::BuiltCircuit built = shuffled(rail, rng);
    for (const int jobs : {1, 4}) {
      const auto factors = sim::sparse::SparseMetrics::get().factors.value();
      EXPECT_EQ(verdicts_of(built, reliability, nullptr, {}, jobs), reference)
          << "seed " << seed << " jobs " << jobs;
      EXPECT_GT(sim::sparse::SparseMetrics::get().factors.value(), factors);
    }
  }
}

// ---------------------------------------------------- element-name metamorphic --
// Names are labels. Renaming every block, element and component under a
// bijection — the goal observables renamed to match — must leave the FMEDA
// as it was once the names are mapped back: the same rows (as a multiset,
// every column), the same SPFM and the same warnings.

namespace {

/// A seeded bijection from `names` onto fresh names, and its inverse. The
/// new names are longer than a small-string buffer, so every renamed label
/// lives on the heap.
std::pair<Names, Names> seeded_renaming(const std::vector<std::string>& names, Rng& rng) {
  std::vector<std::size_t> order(names.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  shuffle(order.begin(), order.end(), rng);
  Names to;
  Names back;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string image = "renamed_element_" + std::to_string(order[i]);
    to.emplace(names[i], image);
    back.emplace(image, names[i]);
  }
  return {to, back};
}

}  // namespace

TEST(ElementNameProperty, PowerSupplyVerdictsIgnoreBlockNames) {
  const std::string mdl = std::string(DECISIVE_ASSETS_DIR) + "/power_supply.mdl";
  const auto workbook = drivers::DriverRegistry::global().open(
      std::string(DECISIVE_ASSETS_DIR) + "/reliability_workbook");
  const auto reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
  const auto sm_model = core::SafetyMechanismModel::from_source(*workbook, "SafetyMechanisms");
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};

  const auto reference = verdicts_of(sim::build_circuit(drivers::parse_mdl_file(mdl)),
                                     reliability, &sm_model, options, 1);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    drivers::MdlModel model = drivers::parse_mdl_file(mdl);
    std::vector<std::string> names;
    for (const auto& block : model.root.blocks) {
      ASSERT_EQ(block.subsystem, nullptr) << "a nested block would need its path renamed";
      names.push_back(block.name);
    }
    const auto [to, back] = seeded_renaming(names, rng);
    for (auto& block : model.root.blocks) block.name = to.at(block.name);
    for (auto& line : model.root.lines) {
      line.src_block = to.at(line.src_block);
      line.dst_block = to.at(line.dst_block);
    }
    core::CircuitFmeaOptions renamed_options = options;
    for (auto& goal : renamed_options.safety_goal_observables) goal = to.at(goal);
    const sim::BuiltCircuit built = sim::build_circuit(model);
    ASSERT_NE(built.circuit.find(to.at("CS1")), nullptr);
    for (const int jobs : {1, 4}) {
      EXPECT_EQ(verdicts_of(built, reliability, &sm_model, renamed_options, jobs, back),
                reference)
          << "seed " << seed << " jobs " << jobs;
    }
  }
}

TEST(ElementNameProperty, SparseRailVerdictsIgnoreElementNames) {
  const auto rail = campaign_subjects::make_rail(48);
  const auto reliability = campaign_subjects::rail_reliability();
  const auto reference = verdicts_of(rail, reliability, nullptr, {}, 1);
  std::vector<std::string> names;
  for (const auto& e : rail.circuit.elements()) names.push_back(e.name);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const auto [to, back] = seeded_renaming(names, rng);
    sim::BuiltCircuit built = rail;
    for (auto& e : built.circuit.elements()) e.name = to.at(e.name);
    for (auto& component : built.components) {
      component.path = to.at(component.path);
      component.element = to.at(component.element);
    }
    for (auto& observable : built.observables) observable = to.at(observable);
    for (const int jobs : {1, 4}) {
      EXPECT_EQ(verdicts_of(built, reliability, nullptr, {}, jobs, back), reference)
          << "seed " << seed << " jobs " << jobs;
    }
  }
}
