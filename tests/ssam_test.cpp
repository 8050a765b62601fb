// Unit tests for the SSAM metamodel, the typed facade, external-model
// federation and the component graph used by Algorithm 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/oracles.hpp"
#include "decisive/ssam/graph.hpp"
#include "decisive/ssam/metamodel.hpp"
#include "decisive/ssam/model.hpp"

using namespace decisive;
using namespace decisive::ssam;

// -------------------------------------------------------------- metamodel --

TEST(Metamodel, AllModulesPresent) {
  const auto& meta = metamodel();
  for (const char* name :
       {cls::ModelElement, cls::ImplementationConstraint, cls::ExternalReference,
        cls::Requirement, cls::SafetyRequirement, cls::RequirementPackage,
        cls::HazardousSituation, cls::Cause, cls::ControlMeasure, cls::HazardPackage,
        cls::Component, cls::IONode, cls::FailureMode, cls::FailureEffect,
        cls::SafetyMechanism, cls::Function, cls::ComponentRelationship,
        cls::ComponentPackage, cls::MBSAPackage}) {
    EXPECT_NE(meta.find(name), nullptr) << name;
  }
}

TEST(Metamodel, InheritanceFromModelElement) {
  const auto& meta = metamodel();
  const auto& element = meta.get(cls::ModelElement);
  EXPECT_TRUE(meta.get(cls::Component).is_kind_of(element));
  EXPECT_TRUE(meta.get(cls::SafetyRequirement).is_kind_of(meta.get(cls::Requirement)));
  EXPECT_TRUE(meta.get(cls::HazardousSituation).is_kind_of(element));
  // Every ModelElement supports citation.
  EXPECT_NE(meta.get(cls::Cause).find_reference("cites"), nullptr);
}

TEST(Metamodel, AbstractClassesAreAbstract) {
  SsamModel m;
  EXPECT_THROW(m.repo().create(m.meta().get(cls::ModelElement)), ModelError);
  EXPECT_THROW(m.repo().create(m.meta().get(cls::ComponentElement)), ModelError);
}

// ----------------------------------------------------------------- facade --

TEST(SsamFacade, PackagesAttachToMbsaRoot) {
  SsamModel m;
  const auto req = m.create_requirement_package("reqs");
  const auto haz = m.create_hazard_package("hazards");
  const auto comp = m.create_component_package("design");
  const auto& root = m.obj(m.mbsa_root());
  EXPECT_EQ(root.refs("requirementPackages"), (std::vector<ObjectId>{req}));
  EXPECT_EQ(root.refs("hazardPackages"), (std::vector<ObjectId>{haz}));
  EXPECT_EQ(root.refs("componentPackages"), (std::vector<ObjectId>{comp}));
}

TEST(SsamFacade, RequirementsAndRelationships) {
  SsamModel m;
  const auto pkg = m.create_requirement_package("reqs");
  const auto r1 = m.create_requirement(pkg, "FR1", "do the thing", "QM");
  const auto sr = m.create_safety_requirement(pkg, "SR1", "do it safely", "ASIL-B", "safety");
  const auto rel = m.relate_requirements(pkg, "derives", r1, sr);
  EXPECT_EQ(m.obj(rel).get_string("kind"), "derives");
  EXPECT_EQ(m.obj(rel).ref("source"), r1);
  EXPECT_EQ(m.obj(sr).get_string("integrityLevel"), "ASIL-B");
  EXPECT_EQ(m.obj(pkg).refs("elements").size(), 3u);
}

TEST(SsamFacade, HazardsWithCausesAndControls) {
  SsamModel m;
  const auto pkg = m.create_hazard_package("hazards");
  const auto h1 = m.create_hazard(pkg, "H1", "S2", 1e-6, "ASIL-B");
  m.add_cause(h1, "C1", "wear-out");
  const auto cm = m.add_control_measure(h1, "CM1", 0.95);
  EXPECT_EQ(m.obj(h1).refs("causes").size(), 1u);
  EXPECT_DOUBLE_EQ(m.obj(cm).get_real("effectivenessOfVerification"), 0.95);
  EXPECT_DOUBLE_EQ(m.obj(h1).get_real("probability"), 1e-6);
}

TEST(SsamFacade, ComponentsNestAndValidate) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto sys = m.create_component(pkg, "sys");
  const auto sub = m.create_component(sys, "sub");
  EXPECT_EQ(m.components_of(pkg), (std::vector<ObjectId>{sys}));
  EXPECT_EQ(m.components_of(sys), (std::vector<ObjectId>{sub}));
  EXPECT_EQ(m.all_components_under(pkg).size(), 2u);
  // Components cannot live in a hazard package.
  const auto haz = m.create_hazard_package("hazards");
  EXPECT_THROW(m.create_component(haz, "bad"), ModelError);
}

TEST(SsamFacade, FeatureValidation) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto comp = m.create_component(pkg, "c");
  EXPECT_THROW(m.add_io_node(comp, "x", "sideways"), ModelError);
  EXPECT_THROW(m.add_failure_mode(comp, "fm", 1.5, "lossOfFunction"), ModelError);
  EXPECT_THROW(m.add_safety_mechanism(comp, "sm", 2.0, 1.0, model::kNullObject), ModelError);
  EXPECT_THROW(m.add_function(comp, "f", "3oo7"), ModelError);
  EXPECT_NO_THROW(m.add_function(comp, "f", "2oo3"));
}

TEST(SsamFacade, ConnectRequiresIoNodes) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto sys = m.create_component(pkg, "sys");
  const auto a = m.add_io_node(sys, "a", "in");
  EXPECT_THROW(m.connect(sys, a, sys), ModelError);  // sys is not an IONode
  const auto b = m.add_io_node(sys, "b", "out");
  EXPECT_NO_THROW(m.connect(sys, a, b));
}

TEST(SsamFacade, CiteAndFind) {
  SsamModel m;
  const auto reqs = m.create_requirement_package("reqs");
  const auto haz = m.create_hazard_package("hazards");
  const auto r = m.create_requirement(reqs, "FR1", "text", "QM");
  const auto h = m.create_hazard(haz, "H1", "S1", 1e-6, "ASIL-A");
  m.cite(r, h);
  EXPECT_EQ(m.obj(r).refs("cites"), (std::vector<ObjectId>{h}));
  EXPECT_EQ(m.find_by_name(cls::HazardousSituation, "H1"), h);
  EXPECT_EQ(m.find_by_name(cls::HazardousSituation, "H9"), model::kNullObject);
}

TEST(SsamFacade, FindByNameReturnsTheFirstMatchInRepositoryOrder) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto sys = m.create_component(pkg, "sys");
  const auto port = m.add_io_node(sys, "dup", "in");
  const auto first = m.create_component(sys, "dup");
  const auto second = m.create_component(sys, "dup");
  ASSERT_LT(first, second);
  // An IONode of the same name earlier in the repository is not a Component.
  EXPECT_EQ(m.find_by_name(cls::Component, "dup"), first);
  EXPECT_EQ(m.find_by_name(cls::IONode, "dup"), port);
  // A base class matches its subclasses: the first element of any kind.
  EXPECT_EQ(m.find_by_name(cls::ComponentElement, "dup"), port);
  EXPECT_EQ(m.find_by_name(cls::ModelElement, "sys"), sys);
  const auto reqs = m.create_requirement_package("reqs");
  const auto safety = m.create_safety_requirement(reqs, "SR1", "text", "ASIL-B", "brake");
  EXPECT_EQ(m.find_by_name(cls::Requirement, "SR1"), safety);
  EXPECT_EQ(m.find_by_name(cls::Component, "SR1"), model::kNullObject);
  // An object whose name was never set reads as the empty name.
  EXPECT_EQ(m.find_by_name(cls::Component, ""), model::kNullObject);
  const auto unnamed = m.repo().create(m.meta().get(cls::Component)).id();
  EXPECT_EQ(m.find_by_name(cls::Component, ""), unnamed);
  EXPECT_EQ(m.find_by_name(cls::Component, "ghost"), model::kNullObject);
  // Every SSAM class inherits `name` from ModelElement; an unknown class
  // name is the error a caller can hit.
  EXPECT_THROW((void)m.find_by_name("NoSuchClass", "dup"), ModelError);
}

// ------------------------------------------------------------- federation --

TEST(Federation, ExtractsFromExternalCsv) {
  // Write a small external reliability file and pull a value through an
  // ExternalReference extraction rule (REQ2).
  const auto dir = std::filesystem::temp_directory_path() / "decisive-ssam-fed";
  std::filesystem::create_directories(dir);
  const auto file = dir / "rel.csv";
  {
    std::ofstream out(file);
    out << "Component,FIT\nDiode,10\nMC,300\n";
  }

  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto comp = m.create_component(pkg, "MC1");
  const auto ext = m.add_external_reference(
      comp, file.string(), "csv",
      "rows().select(r | r.Component == 'MC').first().FIT");
  const auto value = run_extraction(m, ext);
  EXPECT_DOUBLE_EQ(value.as_number(), 300.0);
  std::filesystem::remove_all(dir);
}

TEST(Federation, MissingRuleOrWrongElementThrows) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto comp = m.create_component(pkg, "c");
  EXPECT_THROW(run_extraction(m, comp), ModelError);  // not an ExternalReference
}

// ------------------------------------------------------------------ graph --

namespace {

struct GraphFixture {
  SsamModel m;
  ObjectId sys, in, out;

  GraphFixture() {
    const auto pkg = m.create_component_package("design");
    sys = m.create_component(pkg, "sys");
    in = m.add_io_node(sys, "in", "in");
    out = m.add_io_node(sys, "out", "out");
  }

  struct Sub {
    ObjectId comp, in, out;
  };
  Sub leaf(const std::string& name) {
    Sub s;
    s.comp = m.create_component(sys, name);
    s.in = m.add_io_node(s.comp, name + ".in", "in");
    s.out = m.add_io_node(s.comp, name + ".out", "out");
    return s;
  }
};

}  // namespace

TEST(Graph, SerialChainHasSinglePath) {
  GraphFixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, f.out);

  const auto graph = build_graph(f.m, f.sys);
  const auto paths = oracle::enumerate_paths(graph);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(oracle::on_all_paths(graph, paths, a.comp));
  EXPECT_TRUE(oracle::on_all_paths(graph, paths, b.comp));
}

TEST(Graph, ParallelBranchesAreNotSinglePoint) {
  GraphFixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, f.in, b.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.connect(f.sys, b.out, f.out);

  const auto graph = build_graph(f.m, f.sys);
  const auto paths = oracle::enumerate_paths(graph);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_FALSE(oracle::on_all_paths(graph, paths, a.comp));
  EXPECT_FALSE(oracle::on_all_paths(graph, paths, b.comp));
}

TEST(Graph, DiamondMiddleIsNotSinglePointButEndsAre) {
  GraphFixture f;
  const auto head = f.leaf("head");
  const auto left = f.leaf("left");
  const auto right = f.leaf("right");
  const auto tail = f.leaf("tail");
  f.m.connect(f.sys, f.in, head.in);
  f.m.connect(f.sys, head.out, left.in);
  f.m.connect(f.sys, head.out, right.in);
  f.m.connect(f.sys, left.out, tail.in);
  f.m.connect(f.sys, right.out, tail.in);
  f.m.connect(f.sys, tail.out, f.out);

  const auto graph = build_graph(f.m, f.sys);
  const auto paths = oracle::enumerate_paths(graph);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_TRUE(oracle::on_all_paths(graph, paths, head.comp));
  EXPECT_TRUE(oracle::on_all_paths(graph, paths, tail.comp));
  EXPECT_FALSE(oracle::on_all_paths(graph, paths, left.comp));
  EXPECT_FALSE(oracle::on_all_paths(graph, paths, right.comp));
}

TEST(Graph, CyclesDoNotHangEnumeration) {
  GraphFixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, a.in);  // feedback loop
  f.m.connect(f.sys, b.out, f.out);
  const auto graph = build_graph(f.m, f.sys);
  const auto paths = oracle::enumerate_paths(graph);
  EXPECT_EQ(paths.size(), 1u);  // simple paths only
}

TEST(Graph, MissingBoundaryNodesThrows) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto sys = m.create_component(pkg, "sys");
  m.add_io_node(sys, "in", "in");  // no output
  EXPECT_THROW(build_graph(m, sys), AnalysisError);
}

TEST(Graph, PathExplosionGuard) {
  // A ladder of parallel pairs: 2^n paths; the guard must fire.
  GraphFixture f;
  ObjectId previous = f.in;
  for (int stage = 0; stage < 20; ++stage) {
    const auto a = f.leaf("s" + std::to_string(stage) + "a");
    const auto b = f.leaf("s" + std::to_string(stage) + "b");
    f.m.connect(f.sys, previous, a.in);
    f.m.connect(f.sys, previous, b.in);
    const auto join = f.leaf("j" + std::to_string(stage));
    f.m.connect(f.sys, a.out, join.in);
    f.m.connect(f.sys, b.out, join.in);
    previous = join.out;
  }
  f.m.connect(f.sys, previous, f.out);
  const auto graph = build_graph(f.m, f.sys);
  EXPECT_THROW(oracle::enumerate_paths(graph, /*max_paths=*/1000), AnalysisError);
}

TEST(Graph, ParseDirectionAcceptsKnownSpellings) {
  EXPECT_EQ(parse_direction("in"), NodeDirection::In);
  EXPECT_EQ(parse_direction("out"), NodeDirection::Out);
  EXPECT_EQ(parse_direction("inout"), NodeDirection::InOut);
  EXPECT_EQ(parse_direction("in out"), NodeDirection::InOut);  // AADL spelling
  EXPECT_EQ(parse_direction("  In "), NodeDirection::In);
  EXPECT_EQ(parse_direction("OUT"), NodeDirection::Out);
  EXPECT_EQ(parse_direction(""), std::nullopt);
  EXPECT_EQ(parse_direction("input"), std::nullopt);
  EXPECT_EQ(parse_direction("Imput"), std::nullopt);
}

TEST(Graph, InoutBoundaryNodeIsBothInputAndOutput) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto sys = m.create_component(pkg, "sys");
  const auto io = m.add_io_node(sys, "bus", "inout");
  const auto graph = build_graph(m, sys);
  ASSERT_EQ(graph.size(), 3u);  // source, sink, bus
  EXPECT_EQ(graph.node[2], io);
  EXPECT_EQ(graph.owner[2], -1);
  EXPECT_EQ(graph.direction[2], NodeDirection::InOut);
  const std::vector<int> bus{2};
  EXPECT_TRUE(std::ranges::equal(graph.succ[ComponentGraph::kSource], bus));
  EXPECT_TRUE(std::ranges::equal(graph.pred[ComponentGraph::kSink], bus));
}

TEST(Graph, InoutSubNodeGetsNoSelfThroughEdge) {
  GraphFixture f;
  const auto x = f.m.create_component(f.sys, "X");
  const auto xio = f.m.add_io_node(x, "x.io", "inout");
  f.m.connect(f.sys, f.in, xio);
  f.m.connect(f.sys, xio, f.out);
  const auto graph = build_graph(f.m, f.sys);
  for (size_t v = 2; v < graph.size(); ++v) {
    for (const int target : graph.succ[v]) EXPECT_NE(static_cast<size_t>(target), v);
  }
  const auto paths = oracle::enumerate_paths(graph);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(oracle::on_all_paths(graph, paths, x));
}

TEST(Graph, VerticesFollowTheListingAndEdgesEndAtTheLastListing) {
  // Vertex 2 + i is the i-th IONode listing (the component's own, then each
  // subcomponent's). b lists a.out a second time: every edge ends at that
  // last listing, which b owns, and a's own listing of it stays isolated.
  GraphFixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.obj(b.comp).add_ref("ioNodes", a.out);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, f.out);
  const auto graph = build_graph(f.m, f.sys);
  EXPECT_EQ(graph.node, (std::vector<ObjectId>{model::kNullObject, model::kNullObject, f.in,
                                               f.out, a.in, a.out, b.in, b.out, a.out}));
  EXPECT_EQ(graph.owner, (std::vector<int>{-1, -1, -1, -1, 0, 0, 1, 1, 1}));
  EXPECT_EQ(graph.subcomponents, (std::vector<ObjectId>{a.comp, b.comp}));
  const auto row = [](std::span<const int> r) { return std::vector<int>(r.begin(), r.end()); };
  const std::vector<std::vector<int>> succ{{2}, {}, {4}, {1}, {8}, {}, {7, 8}, {3}, {6}};
  const std::vector<std::vector<int>> pred{{}, {3}, {0}, {7}, {2}, {}, {8}, {6}, {4, 6}};
  for (size_t v = 0; v < graph.size(); ++v) {
    EXPECT_EQ(row(graph.succ[v]), succ[v]) << "successors of " << v;
    EXPECT_EQ(row(graph.pred[v]), pred[v]) << "predecessors of " << v;
  }
}

TEST(Graph, OutOfScopeEndpointThrowsNamingTheRelationshipAndTheNode) {
  GraphFixture f;
  const auto a = f.leaf("a");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto elsewhere = f.m.create_component(f.m.create_component_package("other"), "x");
  const auto foreign = f.m.add_io_node(elsewhere, "x.in", "in");
  f.m.obj(f.m.connect(f.sys, a.out, foreign)).set_string("name", "stray");
  try {
    build_graph(f.m, f.sys);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("relationship 'stray' of 'sys'"), std::string::npos) << message;
    EXPECT_NE(message.find("IONode 'x.in'"), std::string::npos) << message;
  }
}

TEST(Graph, UnknownDirectionThrowsNamingTheNode) {
  GraphFixture f;
  const auto a = f.leaf("a");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.obj(a.out).set_string("direction", "downstream");  // typo'd import
  try {
    build_graph(f.m, f.sys);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("a.out"), std::string::npos) << message;
    EXPECT_NE(message.find("downstream"), std::string::npos) << message;
  }
}

TEST(Graph, EmptyDirectionThrowsInsteadOfBecomingAnOutput) {
  GraphFixture f;
  const auto a = f.leaf("a");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.obj(a.in).set_string("direction", "");
  EXPECT_THROW(build_graph(f.m, f.sys), AnalysisError);
}

TEST(SsamModel, AddIoNodeValidatesDirection) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto sys = m.create_component(pkg, "sys");
  EXPECT_NO_THROW(m.add_io_node(sys, "bus", "inout"));
  EXPECT_THROW(m.add_io_node(sys, "bad", "sideways"), ModelError);
}

TEST(SsamModel, MemoryBudgetPropagates) {
  SsamModel m(/*memory_budget_bytes=*/4096);
  const auto pkg = m.create_component_package("design");
  EXPECT_THROW(
      {
        for (int i = 0; i < 10000; ++i) {
          m.create_component(pkg, "c" + std::to_string(i));
        }
      },
      CapacityError);
}
