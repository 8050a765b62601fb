// Tests for change-impact analysis and safety-concept allocation/validation
// (the ISO 26262 Clause 8 supporting-process side of DECISIVE).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "decisive/base/error.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/impact.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/core/workflow.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/oracles.hpp"

using namespace decisive;
using namespace decisive::core;
using ssam::ObjectId;
using ssam::SsamModel;

namespace {

struct Fixture {
  SsamModel m;
  DecisiveProcess process{m, "sys"};
  ObjectId in, out;
  ObjectId sensor, mcu, logger;
  ObjectId sensor_out, mcu_in;

  Fixture() {
    in = m.add_io_node(process.system(), "in", "in");
    out = m.add_io_node(process.system(), "out", "out");
    sensor = leaf("S1");
    mcu = leaf("M1");
    logger = leaf("LOG1");
    sensor_out = m.obj(sensor).refs("ioNodes")[1];
    mcu_in = m.obj(mcu).refs("ioNodes")[0];
    m.connect(process.system(), in, m.obj(sensor).refs("ioNodes")[0]);
    m.connect(process.system(), sensor_out, mcu_in);
    m.connect(process.system(), m.obj(mcu).refs("ioNodes")[1], out);
    // Logger observes the sensor (side chain).
    m.connect(process.system(), sensor_out, m.obj(logger).refs("ioNodes")[0]);
  }

  ObjectId leaf(const std::string& name) {
    const ObjectId c = m.create_component(process.system(), name);
    m.add_io_node(c, name + ".in", "in");
    m.add_io_node(c, name + ".out", "out");
    return c;
  }
};

bool contains(const std::vector<ObjectId>& ids, ObjectId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

TEST(Impact, AncestorsIncludeContainmentChain) {
  Fixture f;
  const auto report = impact_of_change(f.m, f.sensor);
  EXPECT_TRUE(contains(report.ancestors, f.process.system()));
  EXPECT_TRUE(contains(report.ancestors, f.process.component_package()));
}

TEST(Impact, ConnectedComponentsAreSignalNeighbours) {
  Fixture f;
  const auto report = impact_of_change(f.m, f.sensor);
  EXPECT_TRUE(contains(report.connected_components, f.mcu));
  EXPECT_TRUE(contains(report.connected_components, f.logger));
  EXPECT_FALSE(contains(report.connected_components, f.sensor));  // not itself
  // The MCU's neighbours include the sensor but not the logger.
  const auto mcu_report = impact_of_change(f.m, f.mcu);
  EXPECT_TRUE(contains(mcu_report.connected_components, f.sensor));
  EXPECT_FALSE(contains(mcu_report.connected_components, f.logger));
}

TEST(Impact, RequirementsViaCitation) {
  Fixture f;
  const auto h1 = f.process.identify_hazard("H1", "S2", 1e-6, "ASIL-B");
  const auto sr = f.process.derive_safety_requirement(h1, "SR1", "text", "ASIL-B");
  f.process.allocate_requirement(sr, f.sensor);
  const auto report = impact_of_change(f.m, f.sensor);
  EXPECT_TRUE(contains(report.requirements, sr));
  EXPECT_TRUE(impact_of_change(f.m, f.mcu).requirements.empty());
}

TEST(Impact, HazardsAndMechanismsViaFailureModes) {
  Fixture f;
  const auto h1 = f.process.identify_hazard("H1", "S2", 1e-6, "ASIL-B");
  const auto fm = f.m.add_failure_mode(f.sensor, "No output", 0.6, "lossOfFunction");
  f.m.obj(fm).add_ref("hazards", h1);
  const auto sm = f.m.add_safety_mechanism(f.sensor, "redundancy", 0.95, 2.0, fm);

  const auto report = impact_of_change(f.m, f.sensor);
  EXPECT_TRUE(contains(report.hazards, h1));
  EXPECT_TRUE(contains(report.safety_mechanisms, sm));
  EXPECT_FALSE(report.reanalysis_required);  // no verdict recorded yet

  f.m.obj(fm).set_bool("safetyRelated", true);
  EXPECT_TRUE(impact_of_change(f.m, f.sensor).reanalysis_required);
}

TEST(Impact, RejectsNonComponents) {
  Fixture f;
  EXPECT_THROW(impact_of_change(f.m, f.in), ModelError);
}

TEST(Impact, TextRendering) {
  Fixture f;
  const auto report = impact_of_change(f.m, f.sensor);
  const std::string text = report.to_text(f.m);
  EXPECT_NE(text.find("S1"), std::string::npos);
  EXPECT_NE(text.find("M1"), std::string::npos);
  EXPECT_NE(text.find("no safety-related"), std::string::npos);
}

// ------------------------------------------------------ against the oracle --

namespace {

/// For every Component of `ssam`, the one-pass index must report what the
/// map-based oracle reports: the same ids in the same order, so the same
/// text.
void expect_matches_oracle(const SsamModel& ssam, const std::string& subject) {
  const auto components = ssam.repo().all_of(ssam.meta().get(ssam::cls::Component));
  ASSERT_FALSE(components.empty()) << subject;
  for (const ObjectId component : components) {
    const ImpactReport fast = impact_of_change(ssam, component);
    const ImpactReport oracle = oracle::impact_of_change(ssam, component);
    const std::string where = subject + ", component " + std::to_string(component);
    EXPECT_EQ(fast.ancestors, oracle.ancestors) << where;
    EXPECT_EQ(fast.connected_components, oracle.connected_components) << where;
    EXPECT_EQ(fast.requirements, oracle.requirements) << where;
    EXPECT_EQ(fast.hazards, oracle.hazards) << where;
    EXPECT_EQ(fast.safety_mechanisms, oracle.safety_mechanisms) << where;
    EXPECT_EQ(fast.reanalysis_required, oracle.reanalysis_required) << where;
    EXPECT_EQ(fast.to_text(ssam), oracle.to_text(ssam)) << where;
  }
}

}  // namespace

TEST(ImpactOracle, ShippedSubjectsMatchTheMapIndex) {
  for (const bool analysed : {false, true}) {
    const std::string state = analysed ? " (analysed)" : "";
    auto a = make_system_a();
    auto b = make_system_b();
    if (analysed) {
      (void)analyze_component(*a.model, a.system);
      (void)analyze_component(*b.model, b.system);
    }
    expect_matches_oracle(*a.model, "System A" + state);
    expect_matches_oracle(*b.model, "System B" + state);

    SsamModel brake;
    model::load_xmi_file(brake.repo(), brake.meta(), DECISIVE_ASSETS_DIR "/brake_chain.ssam");
    if (analysed) {
      (void)analyze_component(brake, brake.find_by_name(ssam::cls::Component, "BrakeChain"));
    }
    expect_matches_oracle(brake, "brake_chain.ssam" + state);
  }
}

TEST(ImpactOracle, RandomScaledModelsWithTraceabilityMatchTheMapIndex) {
  // Seeded scaled designs, then the traceability a report follows added at
  // random: requirements citing components and failure modes, failure-mode
  // hazards, mechanisms, and wires between IONodes anywhere in the model
  // (across units too, so IONode owners are looked up outside the parent).
  for (std::uint32_t seed = 1; seed <= 24; ++seed) {
    std::mt19937 rng(seed);
    const auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
    auto system = make_scaled_architecture(1 + pick(5), 1 + pick(5), 1 + pick(2));
    SsamModel& m = *system.model;
    const auto components = m.repo().all_of(m.meta().get(ssam::cls::Component));
    const auto nodes = m.repo().all_of(m.meta().get(ssam::cls::IONode));
    const auto fms = m.repo().all_of(m.meta().get(ssam::cls::FailureMode));
    if (pick(2) == 0) (void)analyze_component(m, system.system);

    const ObjectId hazards = m.create_hazard_package("hazards");
    std::vector<ObjectId> hazard_ids;
    for (size_t h = 0; h < 1 + pick(4); ++h) {
      hazard_ids.push_back(
          m.create_hazard(hazards, "H" + std::to_string(h), "S2", 1e-6, "ASIL-B"));
    }
    const ObjectId requirements = m.create_requirement_package("requirements");
    for (size_t r = 0; r < 1 + pick(6); ++r) {
      const ObjectId req = r % 2 == 0
                               ? m.create_requirement(requirements, "R" + std::to_string(r),
                                                      "text", "ASIL-B")
                               : m.create_safety_requirement(requirements,
                                                             "SR" + std::to_string(r), "text",
                                                             "ASIL-B", "function");
      for (size_t c = 0; c < 1 + pick(3); ++c) {
        m.cite(req, pick(2) == 0 ? components[pick(components.size())] : fms[pick(fms.size())]);
      }
    }
    for (size_t k = 0; k < 1 + pick(8); ++k) {
      m.obj(fms[pick(fms.size())]).add_ref("hazards", hazard_ids[pick(hazard_ids.size())]);
    }
    for (size_t k = 0; k < pick(4); ++k) {
      const ObjectId target = components[pick(components.size())];
      const auto& modes = m.obj(target).refs("failureModes");
      m.add_safety_mechanism(target, "SM" + std::to_string(k), 0.9, 1.0,
                             modes.empty() ? model::kNullObject : modes[pick(modes.size())]);
    }
    for (size_t k = 0; k < 1 + pick(10); ++k) {
      m.connect(components[pick(components.size())], nodes[pick(nodes.size())],
                nodes[pick(nodes.size())]);
    }
    expect_matches_oracle(m, "seed " + std::to_string(seed));
  }
}

// --------------------------------------------------------------- allocation --

TEST(Allocation, RaisesComponentIntegrityLevel) {
  Fixture f;
  const auto h1 = f.process.identify_hazard("H1", "S2", 1e-6, "ASIL-C");
  const auto sr = f.process.derive_safety_requirement(h1, "SR1", "text", "ASIL-C");
  f.process.allocate_requirement(sr, f.mcu);
  EXPECT_EQ(f.m.obj(f.mcu).get_string("integrityLevel"), "ASIL-C");
  // A weaker requirement does not lower it again.
  const auto sr2 = f.process.derive_safety_requirement(h1, "SR2", "text", "ASIL-A");
  f.process.allocate_requirement(sr2, f.mcu);
  EXPECT_EQ(f.m.obj(f.mcu).get_string("integrityLevel"), "ASIL-C");
}

TEST(Allocation, TypeChecked) {
  Fixture f;
  const auto h1 = f.process.identify_hazard("H1", "S2", 1e-6, "ASIL-B");
  const auto sr = f.process.derive_safety_requirement(h1, "SR1", "text", "ASIL-B");
  EXPECT_THROW(f.process.allocate_requirement(f.mcu, f.sensor), ModelError);
  EXPECT_THROW(f.process.allocate_requirement(sr, h1), ModelError);
}

TEST(Validation, FlagsUnallocatedSafetyRequirements) {
  Fixture f;
  const auto h1 = f.process.identify_hazard("H1", "S2", 1e-6, "ASIL-B");
  const auto sr = f.process.derive_safety_requirement(h1, "SR1", "text", "ASIL-B");
  auto issues = f.process.validate_safety_concept();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("SR1"), std::string::npos);

  f.process.allocate_requirement(sr, f.mcu);
  issues = f.process.validate_safety_concept();
  for (const auto& issue : issues) {
    EXPECT_EQ(issue.find("not allocated"), std::string::npos) << issue;
  }
}

TEST(Validation, FlagsUnmitigatedHazards) {
  Fixture f;
  f.process.identify_hazard("H-orphan", "S1", 1e-5, "ASIL-A");
  const auto issues = f.process.validate_safety_concept();
  bool flagged = false;
  for (const auto& issue : issues) {
    if (issue.find("H-orphan") != std::string::npos) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(Validation, FlagsUncoveredSafetyRelatedFailureModes) {
  Fixture f;
  const auto fm = f.m.add_failure_mode(f.sensor, "No output", 0.6, "lossOfFunction");
  f.m.obj(fm).set_bool("safetyRelated", true);
  auto issues = f.process.validate_safety_concept();
  bool flagged = false;
  for (const auto& issue : issues) {
    if (issue.find("No output") != std::string::npos) flagged = true;
  }
  EXPECT_TRUE(flagged);

  // Deploying a mechanism covering the mode clears the finding.
  f.m.add_safety_mechanism(f.sensor, "redundancy", 0.95, 2.0, fm);
  issues = f.process.validate_safety_concept();
  for (const auto& issue : issues) {
    EXPECT_EQ(issue.find("No output"), std::string::npos) << issue;
  }
}

TEST(Validation, CleanConceptHasNoIssues) {
  Fixture f;
  const auto h1 = f.process.identify_hazard("H1", "S2", 1e-6, "ASIL-B");
  const auto sr = f.process.derive_safety_requirement(h1, "SR1", "text", "ASIL-B");
  f.process.allocate_requirement(sr, f.mcu);
  EXPECT_TRUE(f.process.validate_safety_concept().empty());
}
