// The engines against their reference procedures: each fast engine is
// checked against the procedure it replaced (the seed-era enumerators and
// the naive one-solve-per-fault campaign) on the same subjects before its
// speed is reported.
#include "reproduce.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/campaign.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/fta.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/oracles.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/ssam/graph.hpp"

namespace reproduce {

using namespace decisive;

// ------------------------------------------------- deployment-search engines --
// DESIGN.md §11: the DP Pareto engine against the seed-era exhaustive
// enumerator (pareto_front_exhaustive) on Systems A and B, greedy against
// the branch-and-bound optimum, and a scaled subject where the enumerator
// throws and the DP engine completes.

namespace {

size_t open_rows(const core::FmedaResult& fmea) {
  size_t open = 0;
  for (const auto& row : fmea.rows) {
    if (row.safety_related && row.safety_mechanism.empty()) ++open;
  }
  return open;
}

core::FmedaResult fmea_of(core::SyntheticSystem system) {
  return core::analyze_component(*system.model, system.system);
}

/// Set-identity of two fronts on the reported (cost, SPFM) values.
bool fronts_equal(const std::vector<core::Deployment>& a,
                  const std::vector<core::Deployment>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i].total_cost_hours - b[i].total_cost_hours) > 1e-6) return false;
    if (std::abs(a[i].spfm - b[i].spfm) > 1e-9) return false;
  }
  return true;
}

/// Six graded options per open (type, mode): the rich-catalogue regime
/// where the seed enumerator's O(prod choices) blows up even on ~8 rows.
core::SafetyMechanismModel dense_catalogue(const core::FmedaResult& fmea) {
  core::SafetyMechanismModel catalogue;
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& row : fmea.rows) {
    if (!row.safety_related || !row.safety_mechanism.empty()) continue;
    if (!seen.emplace(row.component_type, row.failure_mode).second) continue;
    for (int k = 0; k < 6; ++k) {
      catalogue.add({row.component_type, row.failure_mode, "Option" + std::to_string(k),
                     0.55 + 0.07 * k, 0.5 + 0.9 * k});
    }
  }
  return catalogue;
}

}  // namespace

void ablation_search() {
  std::printf("== Ablation: deployment-search engines (DP vs seed enumerator) ==\n\n");
  const auto shared = core::synthetic_sm_catalogue();
  const auto fmea_a = fmea_of(core::make_system_a());
  const auto fmea_b = fmea_of(core::make_system_b());
  const auto dense = dense_catalogue(fmea_b);
  const struct {
    const core::FmedaResult* fmea;
    const core::SafetyMechanismModel* catalogue;
    const char* name;
  } cases[] = {{&fmea_a, &shared, "A"}, {&fmea_b, &shared, "B"},
               {&fmea_b, &dense, "B (dense catalogue)"}};
  TextTable table({"System", "open SR rows", "front", "seed enum (ms)", "DP (ms)", "speedup",
                   "fronts equal", "greedy cost (h)", "optimal cost (h)"});
  std::string unequal;
  for (const auto& c : cases) {
    std::vector<core::Deployment> oracle_front, dp_front;
    const double oracle_seconds =
        seconds_of([&] { oracle_front = core::pareto_front_exhaustive(*c.fmea, *c.catalogue); });
    const double dp_seconds =
        seconds_of([&] { dp_front = core::pareto_front(*c.fmea, *c.catalogue); });
    const auto greedy = core::greedy_reach_asil(*c.fmea, *c.catalogue, "ASIL-B");
    const auto optimal = core::optimal_reach_asil(*c.fmea, *c.catalogue, "ASIL-B");
    const bool equal = fronts_equal(oracle_front, dp_front);
    if (!equal) unequal += std::string(" '") + c.name + "'";
    table.add_row({c.name, std::to_string(open_rows(*c.fmea)), std::to_string(dp_front.size()),
                   format_number(oracle_seconds * 1e3, 2), format_number(dp_seconds * 1e3, 2),
                   format_number(oracle_seconds / dp_seconds, 1) + "x", equal ? "yes" : "NO",
                   greedy ? format_number(greedy->total_cost_hours, 1) : "-",
                   optimal ? format_number(optimal->total_cost_hours, 1) : "-"});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("== Scaling: make_scaled_architecture subject ==\n\n");
  const auto scaled = fmea_of(core::make_scaled_architecture(60, 5));
  const auto scaled_catalogue = core::scaled_sm_catalogue();
  std::printf("open SR rows: %zu\n", open_rows(scaled));
  try {
    core::pareto_front_exhaustive(scaled, scaled_catalogue);
    std::printf("seed enumerator: completed (unexpected at this scale)\n");
  } catch (const AnalysisError& error) {
    std::printf("seed enumerator: AnalysisError — %s\n", error.what());
  }
  for (const double epsilon : {0.0, 0.001, 0.01}) {
    std::vector<core::Deployment> front;
    core::ParetoOptions options;
    options.epsilon = epsilon;
    options.jobs = 0;  // all cores
    const double dp_seconds =
        seconds_of([&] { front = core::pareto_front(scaled, scaled_catalogue, options); });
    std::printf("DP engine (epsilon %s): front %zu in %s ms\n", format_number(epsilon, 3).c_str(),
                front.size(), format_number(dp_seconds * 1e3, 1).c_str());
  }
  std::printf(
      "\nreading: the DP engine reproduces the seed enumerator's front exactly\n"
      "(oracle-verified) orders of magnitude faster, and completes on scaled\n"
      "subjects where enumeration throws; branch-and-bound closes the greedy\n"
      "optimality gap with a provable minimum.\n\n");
  expect(unequal.empty(), "deployment search: DP front differs from the seed enumerator on" +
                             unequal);
}

// --------------------------------------------------- ZBDD fault-tree engine --
// Three gates: ZBDD cut sets and rendered trees byte-identical to the seed
// path-enumeration oracle wherever it completes; cut-set synthesis on the
// width-3 scaled subject (19683 paths) at least 10x faster than the oracle;
// the width-4/5 subjects (262144 / ~2M paths) out of the oracle's path
// budget yet complete under ZBDD, exact probability below the bound.

namespace {

void fta_summary() {
  std::printf("== Extension: ZBDD fault-tree analysis of the evaluation subjects ==\n\n");
  TextTable table({"System", "components on paths", "minimal cut sets", "order-1",
                   "P(top | 10kh) exact", "rare-event bound", "top contributor (FV)"});
  for (const auto& [make, name] :
       {std::pair{&core::make_system_a, "A"}, std::pair{&core::make_system_b, "B"}}) {
    auto system = make();
    const auto tree = fta::synthesize_fault_tree_zbdd(*system.model, system.system);
    size_t order1 = 0;
    for (const auto& cut : tree.cut_sets) order1 += cut.size() == 1;
    size_t basics = 0;
    for (const auto& node : tree.nodes) basics += node.kind == core::GateKind::Basic;
    const auto quant = fta::quantify(tree, 10000.0);
    char exact[32];
    char bound[32];
    std::snprintf(exact, sizeof(exact), "%.3e", quant.exact_probability);
    std::snprintf(bound, sizeof(bound), "%.3e", quant.rare_event_bound);
    table.add_row({name, std::to_string(basics), std::to_string(tree.cut_sets.size()),
                   std::to_string(order1), exact, bound,
                   quant.importance.empty()
                       ? "-"
                       : quant.importance.front().label + " (" +
                             format_percent(quant.importance.front().fussell_vesely) + ")"});
  }
  std::printf("%s\n", table.render().c_str());

  // Federation: the FTA and FMEA agree modulo non-loss-mode structural
  // criticality (reported, not hidden), and the cut sets drive the ISO 26262
  // latent/multi-point split.
  auto system_b = core::make_system_b();
  const auto tree = fta::synthesize_fault_tree_zbdd(*system_b.model, system_b.system);
  const auto fmea = core::analyze_component(*system_b.model, system_b.system);
  const auto issues = core::crosscheck_with_fmea(*system_b.model, tree, fmea);
  std::printf("FTA/FMEA federation on System B: %zu finding(s)\n", issues.size());
  for (const auto& issue : issues) std::printf("  %s\n", issue.c_str());
  const auto lfm = fta::classify_latent(*system_b.model, tree, fmea);
  std::printf("System B latent classification: %s\n\n", lfm.asil_label().c_str());
}

void fta_identity() {
  struct Subject {
    const char* name;
    core::SyntheticSystem system;
    size_t oracle_bound;  // large enough to enumerate every minimal cut
  };
  Subject subjects[] = {
      {"System A", core::make_system_a(), 4},
      {"System B", core::make_system_b(), 6},
      {"scaled 6x2 serial", core::make_scaled_architecture(6, 2), 3},
      {"scaled 4x2 width-2", core::make_scaled_architecture(4, 2, 2), 3},
      {"scaled 5x1 width-3", core::make_scaled_architecture(5, 1, 3), 3},
  };
  for (auto& subject : subjects) {
    oracle::FtaOptions options;
    options.max_cut_set_size = subject.oracle_bound;
    const auto reference =
        oracle::synthesize_fault_tree(*subject.system.model, subject.system.system, options);
    const auto zbdd =
        fta::synthesize_fault_tree_zbdd(*subject.system.model, subject.system.system);
    const std::string name = subject.name;
    expect(reference.cut_sets == zbdd.cut_sets,
           name + ": ZBDD cut sets differ from the oracle");
    expect(reference.to_text() == zbdd.to_text(),
           name + ": rendered trees differ from the oracle");
    const auto quant = fta::quantify(zbdd, 10000.0);
    expect(quant.exact_probability <= quant.rare_event_bound + 1e-12,
           name + ": exact probability above the rare-event bound");
    std::printf("identity ok: %-20s %zu cut set(s), exact %.3e <= bound %.3e\n", subject.name,
                zbdd.cut_sets.size(), quant.exact_probability, quant.rare_event_bound);
  }
  std::printf("\n");
}

void fta_speedup() {
  auto subject = core::make_scaled_architecture(9, 1, 3);
  oracle::FtaOptions options;
  options.max_cut_set_size = 3;
  // Warm pass (page in the model, size the arenas) before timing.
  core::FaultTree oracle_tree =
      oracle::synthesize_fault_tree(*subject.model, subject.system, options);
  core::FaultTree zbdd_tree = fta::synthesize_fault_tree_zbdd(*subject.model, subject.system);
  expect(oracle_tree.cut_sets == zbdd_tree.cut_sets,
         "FTA speedup subject: cut sets differ from the oracle");
  const double oracle_s = seconds_of([&] {
    oracle_tree = oracle::synthesize_fault_tree(*subject.model, subject.system, options);
  });
  const double zbdd_s = seconds_of(
      [&] { zbdd_tree = fta::synthesize_fault_tree_zbdd(*subject.model, subject.system); });
  const double speedup = zbdd_s > 0.0 ? oracle_s / zbdd_s : 1e9;
  std::printf("speedup gate: width-3 x9 synthesis oracle %.3fs vs zbdd %.6fs (%.1fx)\n\n",
              oracle_s, zbdd_s, speedup);
  expect(speedup >= 10.0, "ZBDD synthesis speedup below the 10x floor");
}

void fta_reach() {
  for (const size_t width : {size_t{4}, size_t{5}}) {
    auto subject = core::make_scaled_architecture(9, 1, width);
    bool oracle_threw = false;
    try {
      (void)oracle::synthesize_fault_tree(*subject.model, subject.system);
    } catch (const AnalysisError&) {
      oracle_threw = true;
    }
    const std::string name = "width-" + std::to_string(width) + " subject: ";
    expect(oracle_threw, name + "the oracle unexpectedly completed");
    const auto tree = fta::synthesize_fault_tree_zbdd(*subject.model, subject.system);
    expect(tree.cut_sets.size() == 9, name + "expected 9 minimal cut sets");
    for (const auto& cut : tree.cut_sets) {
      expect(cut.size() == width, name + "cut order != stage width");
    }
    expect(!tree.truncated, name + "unbounded synthesis reported truncation");
    const auto quant = fta::quantify(tree, 10000.0);
    expect(quant.exact_probability > 0.0 &&
               quant.exact_probability <= quant.rare_event_bound + 1e-12,
           name + "exact probability outside (0, bound]");
    std::printf(
        "reach gate: width-%zu x9 (oracle path budget exceeded) -> %zu order-%zu cuts, "
        "exact %.3e\n",
        width, tree.cut_sets.size(), width, quant.exact_probability);
  }
  std::printf("\n");
}

}  // namespace

void ext_fta() {
  fta_summary();
  fta_identity();
  fta_speedup();
  fta_reach();
}

// ------------------------------------------------- graph-FMEA decision engine --
// DESIGN.md §8: "is this subcomponent on every input->output path?" is a
// dominator question, not path enumeration. A fully connected layered
// component has width^layers simple paths: enumeration gives up on 6^8
// where one dominator pass answers every subcomponent.

namespace {

struct Architecture {
  ssam::SsamModel model;
  ssam::ObjectId system = model::kNullObject;
};

/// `layers` layers of `width` leaves each. With `dense` wiring every leaf
/// feeds every leaf of the next layer (width^layers simple paths);
/// otherwise each leaf feeds exactly one (width paths in total).
std::unique_ptr<Architecture> make_layered(int layers, int width, bool dense) {
  auto arch = std::make_unique<Architecture>();
  ssam::SsamModel& m = arch->model;
  const auto pkg = m.create_component_package("bench");
  arch->system = m.create_component(pkg, "system");
  const auto sys_in = m.add_io_node(arch->system, "in", "in");
  const auto sys_out = m.add_io_node(arch->system, "out", "out");

  std::vector<std::vector<std::pair<ssam::ObjectId, ssam::ObjectId>>> grid;  // (in, out)
  for (int layer = 0; layer < layers; ++layer) {
    std::vector<std::pair<ssam::ObjectId, ssam::ObjectId>> row;
    for (int i = 0; i < width; ++i) {
      const std::string name = "L" + std::to_string(layer) + "C" + std::to_string(i);
      const auto comp = m.create_component(arch->system, name);
      m.obj(comp).set_real("fit", 10.0 + i);
      const auto in = m.add_io_node(comp, name + ".in", "in");
      const auto out = m.add_io_node(comp, name + ".out", "out");
      m.add_failure_mode(comp, "Open", 1.0, "lossOfFunction");
      row.emplace_back(in, out);
    }
    grid.push_back(std::move(row));
  }
  for (const auto& [in, out] : grid.front()) m.connect(arch->system, sys_in, in);
  for (size_t layer = 0; layer + 1 < grid.size(); ++layer) {
    for (size_t i = 0; i < grid[layer].size(); ++i) {
      if (dense) {
        for (const auto& [to_in, to_out] : grid[layer + 1]) {
          m.connect(arch->system, grid[layer][i].second, to_in);
        }
      } else {
        m.connect(arch->system, grid[layer][i].second, grid[layer + 1][i].first);
      }
    }
  }
  for (const auto& [in, out] : grid.back()) m.connect(arch->system, out, sys_out);
  return arch;
}

/// `composites` serial composite subcomponents, each wrapping a serial chain
/// of `inner` leaves: `composites + 1` units for the recursive walk.
std::unique_ptr<Architecture> make_nested(int composites, int inner) {
  auto arch = std::make_unique<Architecture>();
  ssam::SsamModel& m = arch->model;
  const auto pkg = m.create_component_package("bench");
  arch->system = m.create_component(pkg, "system");
  const auto sys_in = m.add_io_node(arch->system, "in", "in");
  const auto sys_out = m.add_io_node(arch->system, "out", "out");
  ssam::ObjectId previous = sys_in;
  for (int c = 0; c < composites; ++c) {
    const std::string name = "unit" + std::to_string(c);
    const auto comp = m.create_component(arch->system, name);
    m.obj(comp).set_real("fit", 20.0);
    const auto in = m.add_io_node(comp, name + ".in", "in");
    const auto out = m.add_io_node(comp, name + ".out", "out");
    m.add_failure_mode(comp, "Open", 0.5, "lossOfFunction");
    m.connect(arch->system, previous, in);
    previous = out;
    ssam::ObjectId inner_previous = in;
    for (int i = 0; i < inner; ++i) {
      const std::string leaf_name = name + ".leaf" + std::to_string(i);
      const auto leaf = m.create_component(comp, leaf_name);
      m.obj(leaf).set_real("fit", 5.0);
      const auto leaf_in = m.add_io_node(leaf, leaf_name + ".in", "in");
      const auto leaf_out = m.add_io_node(leaf, leaf_name + ".out", "out");
      m.add_failure_mode(leaf, "Open", 1.0, "lossOfFunction");
      m.connect(comp, inner_previous, leaf_in);
      inner_previous = leaf_out;
    }
    m.connect(comp, inner_previous, out);
  }
  m.connect(arch->system, previous, sys_out);
  return arch;
}

}  // namespace

void graph_fmea() {
  std::printf("== Extension: graph-FMEA decision engine (enumeration vs dominators) ==\n\n");
  // Gate: the dense component (6^8 ~ 1.7M paths against a 100k guard) is
  // out of enumeration's reach, and the dominator engine completes on it.
  const auto dense = make_layered(/*layers=*/8, /*width=*/6, /*dense=*/true);
  const auto dense_graph = ssam::build_graph(dense->model, dense->system);
  bool exploded = false;
  try {
    oracle::enumerate_paths(dense_graph);
  } catch (const AnalysisError&) {
    exploded = true;
  }
  expect(exploded, "graph FMEA: enumeration was expected to throw on the dense model");
  const ssam::SinglePointAnalysis dense_analysis(dense_graph);
  expect(dense_analysis.has_path(), "graph FMEA: the dense model has no input->output path");
  expect(core::analyze_component(dense->model, dense->system).rows.size() == 48u,
         "graph FMEA: dense model row count != 48");
  std::printf("dense case: 6^8 paths abort enumeration; dominator engine analysed 48 rows "
              "over %zu live nodes\n",
              dense_analysis.live_node_count());

  // Gate: the recursive walk's FMEDA table is byte-identical at any job count.
  const auto nested = make_nested(/*composites=*/8, /*inner=*/6);
  core::GraphFmeaOptions serial_options;
  serial_options.jobs = 1;
  core::GraphFmeaOptions parallel_options;
  parallel_options.jobs = 8;
  const auto serial = core::analyze_component(nested->model, nested->system, serial_options);
  const auto parallel = core::analyze_component(nested->model, nested->system, parallel_options);
  expect(write_csv(serial.to_csv()) == write_csv(parallel.to_csv()) &&
             serial.warnings == parallel.warnings,
         "graph FMEA: --jobs 8 FMEDA differs from --jobs 1");
  std::printf("determinism verified: --jobs 1 and --jobs 8 byte-identical (%zu rows)\n\n",
              serial.rows.size());

  // Decision latency on width-2 dense layerings (2^layers paths, under the
  // enumeration guard): every path materialised and scanned per
  // subcomponent, against one dominator pass for all of them. Both must
  // reach the same verdicts.
  TextTable table({"subject", "paths", "enumerate + scan (us)", "one dominator pass (us)",
                   "speedup"});
  for (const int layers : {8, 12, 16}) {
    const auto arch = make_layered(layers, 2, /*dense=*/true);
    const auto graph = ssam::build_graph(arch->model, arch->system);
    const auto& subs = graph.subcomponents;
    size_t by_paths = 0;
    size_t by_dominators = 0;
    const double enumerate_s = median_seconds([&] {
      const auto paths = oracle::enumerate_paths(graph);
      by_paths = 0;
      for (const auto sub : subs) by_paths += oracle::on_all_paths(graph, paths, sub);
    });
    const double dominator_s = median_seconds([&] {
      const ssam::SinglePointAnalysis analysis(graph);
      by_dominators = 0;
      for (const auto sub : subs) by_dominators += analysis.is_single_point(sub);
    });
    expect(by_paths == by_dominators,
           "graph FMEA: enumeration and dominators disagree at " + std::to_string(layers) +
               " layers");
    table.add_row({"width-2 dense, " + std::to_string(layers) + " layers",
                   std::to_string(1u << layers), format_number(enumerate_s * 1e6, 1),
                   format_number(dominator_s * 1e6, 1),
                   format_number(enumerate_s / dominator_s, 0) + "x"});
  }
  const double full_s =
      median_seconds([&] { (void)core::analyze_component(dense->model, dense->system); });
  table.add_row({"width-6 dense, 8 layers (full FMEA)", "1679616", "throws",
                 format_number(full_s * 1e6, 1), "-"});
  std::printf("%s\n", table.render().c_str());
}

// ------------------------------------------------- fault-injection campaign --
// The campaign solve context (DESIGN.md §7.2) against the naive
// one-solve-per-fault campaign on a synthetic supply rail: byte-identity at
// any job count and shard split, then the 192-stage throughput floors and a
// size sweep.

namespace {

/// A supply rail feeding `stages` RC/diode branches: each stage is a series
/// resistor into a diode-clamped tap with a voltage sensor. Every resistor
/// and diode is an FMEA candidate, and so is the supply, so the campaign has
/// 5*stages + 2 fault tasks (Open/Short/Drift on resistors, Open/Short on
/// diodes and the source) over an MNA system whose size grows with the
/// circuit. The source's Open/Short delete its branch unknown: the
/// structural faults the context's refactor branch absorbs above the sparse
/// crossover.
sim::BuiltCircuit make_rail(int stages) {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int rail = c.node("rail");
  c.add_vsource("V1", vin, 0, 12.0);
  c.add_current_sensor("CS", vin, rail);
  built.observables.push_back("CS");
  built.components.push_back({"V1", "Source", "V1"});
  for (int s = 0; s < stages; ++s) {
    const std::string id = std::to_string(s);
    const int tap = c.node("tap" + id);
    c.add_resistor("R" + id, rail, tap, 100.0 + s);
    c.add_diode("D" + id, tap, 0);
    c.add_resistor("RL" + id, tap, 0, 1000.0);
    c.add_voltage_sensor("VS" + id, tap, 0);
    built.observables.push_back("VS" + id);
    built.components.push_back({"R" + id, "Resistor", "R" + id});
    built.components.push_back({"D" + id, "Diode", "D" + id});
  }
  return built;
}

const core::ReliabilityModel& rail_reliability() {
  static const core::ReliabilityModel reliability = [] {
    core::ReliabilityModel model;
    model.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
    model.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
    model.add("Source", 5.0, {{"Open", 0.6}, {"Short", 0.4}});
    return model;
  }();
  return reliability;
}

/// `batch = false, sparse = false` is the naive reference; `sparse = false`
/// alone pins the context's nominal factor to the dense kernel.
core::CircuitFmeaOptions rail_options(int jobs, bool batch = true, bool sparse = true) {
  core::CircuitFmeaOptions options;
  options.jobs = jobs;
  options.batch = batch;
  options.sparse = sparse;
  options.solver.sparse = sparse;
  return options;
}

struct Output {
  std::string csv;
  std::vector<std::string> warnings;
  bool operator==(const Output&) const = default;
};

core::FmedaResult analyze_rail(const sim::BuiltCircuit& built,
                               const core::CircuitFmeaOptions& options) {
  return core::analyze_circuit(built, rail_reliability(), nullptr, options);
}

Output output_of(const core::FmedaResult& fmea) {
  return {write_csv(fmea.to_csv()), fmea.warnings};
}

Output run_rail(const sim::BuiltCircuit& built, const core::CircuitFmeaOptions& options) {
  return output_of(analyze_rail(built, options));
}

/// Gate: --jobs 8 emits the serial campaign's bytes.
void campaign_determinism() {
  const auto built = make_rail(12);
  const auto serial = analyze_rail(built, rail_options(1));
  expect(serial.rows.size() == 12u * 5u + 2u, "campaign: unexpected task count");
  expect(run_rail(built, rail_options(8)) == output_of(serial),
         "campaign: --jobs 8 FMEDA differs from --jobs 1");
  std::printf("determinism verified: --jobs 1 and --jobs 8 byte-identical (%zu rows)\n",
              serial.rows.size());
}

/// Gate: every 1/2/4/8-way shard split, journaled and merged, folds to the
/// unsharded FMEDA.
void campaign_shard_merge() {
  const auto built = make_rail(12);
  const std::string whole = run_rail(built, rail_options(1)).csv;
  const auto dir = std::filesystem::temp_directory_path() / "decisive_reproduce_shards";
  for (const int shard_count : {1, 2, 4, 8}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> journals;
    for (int shard = 0; shard < shard_count; ++shard) {
      auto options = rail_options(1);
      options.execution.shard_index = shard;
      options.execution.shard_count = shard_count;
      options.execution.journal_path = (dir / ("shard" + std::to_string(shard))).string();
      journals.push_back(options.execution.journal_path);
      (void)analyze_rail(built, options);
    }
    expect(write_csv(core::merge_campaign_journals(journals).to_csv()) == whole,
           "campaign: merged " + std::to_string(shard_count) +
               "-way shard FMEDA differs from unsharded");
  }
  std::filesystem::remove_all(dir);
  std::printf("shard merge verified: 1/2/4/8-way shard journals fold to the unsharded FMEDA "
              "byte-identically\n");
}

/// Gate: on both sides of the sparse crossover the default campaign and the
/// dense-factor one emit the naive bytes, serial and parallel. Above the
/// crossover the refactor branch must accept the source's structural
/// faults, so the gate is not vacuous.
void campaign_identity() {
  auto& refactor_rows = obs::Registry::global().counter("decisive_campaign_sparse_rows_total");
  const std::uint64_t refactor_rows0 = refactor_rows.value();
  for (const int stages : {12, 48, 96}) {
    const auto built = make_rail(stages);
    const Output naive = run_rail(built, rail_options(1, false, false));
    for (const bool sparse : {true, false}) {
      for (const int jobs : {1, 8}) {
        expect(run_rail(built, rail_options(jobs, true, sparse)) == naive,
               "campaign: FMEDA differs from naive at " + std::to_string(stages) +
                   " stages, sparse " + std::to_string(sparse) + ", jobs " +
                   std::to_string(jobs));
      }
    }
  }
  expect(refactor_rows.value() > refactor_rows0, "campaign: the refactor branch accepted no rows");
  std::printf("identity verified: default and sparse = false campaigns byte-identical to "
              "one-solve-per-fault at 12/48/96 stages (jobs 1 and 8)\n");
}

struct SweepRow {
  int stages = 0;
  double default_s = 0.0;
  double dense_factor_s = 0.0;
};

/// Gate: on the 192-stage rail the single-thread default campaign runs
/// >= 10x faster than the naive one and >= 2x faster than the same campaign
/// on a dense nominal factor. The three timed runs double as the 192-stage
/// byte-identity check and as the size sweep's last row.
SweepRow campaign_throughput() {
  const auto built = make_rail(192);
  // One untimed pass to warm allocators and page in the code.
  (void)analyze_rail(built, rail_options(1));
  Output out[3];
  const auto time_one = [&](const core::CircuitFmeaOptions& options, int slot) {
    core::FmedaResult fmea;
    const double seconds = seconds_of([&] { fmea = analyze_rail(built, options); });
    out[slot] = output_of(fmea);
    return seconds;
  };
  const double naive_s = time_one(rail_options(1, false, false), 0);
  const double dense_factor_s = time_one(rail_options(1, true, false), 1);
  const double default_s = time_one(rail_options(1), 2);
  const double naive_speedup = naive_s / default_s;
  const double factor_speedup = dense_factor_s / default_s;
  std::printf("throughput gate: naive %.3fs, dense factor %.3fs, default %.3fs single-thread "
              "(%.1fx vs naive, floor 10x; %.1fx vs dense factor, floor 2x)\n\n",
              naive_s, dense_factor_s, default_s, naive_speedup, factor_speedup);
  expect(out[1] == out[0], "campaign: 192-stage dense-factor FMEDA differs from naive");
  expect(out[2] == out[0], "campaign: 192-stage default FMEDA differs from naive");
  expect(naive_speedup >= 10.0, "campaign: default speedup over naive below the 10x floor");
  expect(factor_speedup >= 2.0,
         "campaign: default speedup over the dense nominal factor below the 2x floor");
  return {192, default_s, dense_factor_s};
}

/// Single-thread campaign time across the sparse crossover (48 stages):
/// the default context against the same context on a dense nominal factor.
/// The 192-stage row is the throughput gate's, so that subject is not timed
/// twice.
void campaign_sweep(const SweepRow& gate_row) {
  std::vector<SweepRow> rows;
  for (const int stages : {4, 8, 12, 16, 24, 32, 48, 64, 96, 128}) {
    const auto built = make_rail(stages);
    const auto time_of = [&](const core::CircuitFmeaOptions& options) {
      return median_seconds([&] { (void)analyze_rail(built, options); });
    };
    rows.push_back({stages, time_of(rail_options(1)), time_of(rail_options(1, true, false))});
  }
  rows.push_back(gate_row);
  TextTable table({"stages (faults)", "MNA dim", "default (ms)", "sparse = false (ms)",
                   "speedup"});
  for (const SweepRow& row : rows) {
    table.add_row({std::to_string(row.stages) + " (" + std::to_string(5 * row.stages + 2) + ")",
                   std::to_string(row.stages + 4), format_number(row.default_s * 1e3, 2),
                   format_number(row.dense_factor_s * 1e3, 2),
                   format_number(row.dense_factor_s / row.default_s, 1) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("192 stages: the throughput gate's single timed runs; the other rows are the "
              "median of repeats after a warm-up.\n\n");
}

}  // namespace

void campaign() {
  std::printf("== Extension: fault-injection campaign (solve context vs naive) ==\n\n");
  campaign_determinism();
  campaign_shard_merge();
  campaign_identity();
  campaign_sweep(campaign_throughput());
}

}  // namespace reproduce
