// The paper's evaluation: Tables I-VI, RQ1, RQ2 and the threshold ablation.
// Each section prints its table and checks the values the reproduction
// claims; see EXPERIMENTS.md for the paper's side of every table.
#include "reproduce.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/analyst.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/fmeda.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/reliability.hpp"
#include "decisive/core/safety_mechanism.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/ssam/model.hpp"
#include "decisive/transform/simulink.hpp"

namespace reproduce {

using namespace decisive;

namespace {

const std::string kAssets = DECISIVE_ASSETS_DIR;
const std::string kWorkbook = kAssets + "/reliability_workbook";

/// The case study of Section V: the sensor power supply (Figure 11) with the
/// workbook's reliability and safety-mechanism models.
struct CaseStudy {
  sim::BuiltCircuit built;
  core::ReliabilityModel reliability;
  core::SafetyMechanismModel sm_model;
  core::CircuitFmeaOptions options;
};

CaseStudy load_case_study() {
  CaseStudy cs;
  cs.built = sim::build_circuit(drivers::parse_mdl_file(kAssets + "/power_supply.mdl"));
  const auto workbook = drivers::DriverRegistry::global().open(kWorkbook);
  cs.reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
  cs.sm_model = core::SafetyMechanismModel::from_source(*workbook, "SafetyMechanisms");
  cs.options.safety_goal_observables = {"CS1", "MC1"};
  return cs;
}

// ---------------------------------------------------------------- Table I --
// The PLL is modelled in SSAM (failure modes with analyst-assigned DVF/IVF
// effects, mechanisms with diagnostic coverage); the FMEDA rows and their
// residual single-point rates are computed by the library.

struct PllModel {
  ssam::SsamModel model;
  ssam::ObjectId pll = model::kNullObject;
};

PllModel build_pll() {
  PllModel out;
  auto& m = out.model;
  const auto pkg = m.create_component_package("pll-demo");
  out.pll = m.create_component(pkg, "PLL");
  m.obj(out.pll).set_real("fit", 100.0);
  m.obj(out.pll).set_string("componentType", "hardware");
  m.obj(out.pll).set_bool("safetyRelated", true);

  const auto fm_low = m.add_failure_mode(out.pll, "lower frequency", 0.401, "degraded");
  const auto fm_high = m.add_failure_mode(out.pll, "higher frequency", 0.287, "degraded");
  const auto fm_jit = m.add_failure_mode(out.pll, "jitter", 0.312, "degraded");

  // Analyst-assigned effect classifications (Table I's Impact column).
  auto attach_effect = [&](ssam::ObjectId fm, const char* impact) {
    auto& fe = m.repo().create(m.meta().get(ssam::cls::FailureEffect));
    fe.set_string("name", "effect");
    fe.set_string("classification", impact);
    m.obj(fm).add_ref("effects", fe.id());
  };
  attach_effect(fm_low, "DVF");
  attach_effect(fm_high, "IVF");
  attach_effect(fm_jit, "DVF");

  m.add_safety_mechanism(out.pll, "time-out watchdog", 0.70, 1.5, fm_low);
  m.add_safety_mechanism(out.pll, "dual-core lockstep", 0.99, 8.0, fm_jit);
  return out;
}

/// Derives the FMEDA rows from the SSAM PLL model.
core::FmedaResult pll_fmeda(const PllModel& pll) {
  core::FmedaResult result;
  result.system = "PLL";
  const auto& m = pll.model;
  const double fit = m.obj(pll.pll).get_real("fit");
  for (const auto fm : m.obj(pll.pll).refs("failureModes")) {
    core::FmedaRow row;
    row.component = "PLL";
    row.component_type = "PLL";
    row.fit = fit;
    row.failure_mode = m.obj(fm).get_string("name");
    row.distribution = m.obj(fm).get_real("distribution");
    row.safety_related = true;
    for (const auto fe : m.obj(fm).refs("effects")) {
      const std::string impact = m.obj(fe).get_string("classification");
      row.effect = impact == "DVF" ? core::EffectClass::DVF : core::EffectClass::IVF;
    }
    for (const auto sm : m.obj(pll.pll).refs("safetyMechanisms")) {
      const auto& covers = m.obj(sm).refs("covers");
      if (std::find(covers.begin(), covers.end(), fm) != covers.end()) {
        row.safety_mechanism = m.obj(sm).get_string("name");
        row.sm_coverage = m.obj(sm).get_real("coverage");
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace

void table1_pll() {
  const PllModel pll = build_pll();
  const auto fmeda = pll_fmeda(pll);

  std::printf("== Table I: FMEDA on Phase Locked Loop (PLL) ==\n");
  std::printf("   (DVF/IVF: directly/indirectly violate safety goal)\n\n");
  TextTable table({"Char.", "FM", "Impact", "Dist", "SMs", "Cov.", "Residual FIT"});
  for (const auto& row : fmeda.rows) {
    table.add_row({"safety-critical", row.failure_mode, std::string(to_string(row.effect)),
                   format_percent(row.distribution, 1),
                   row.safety_mechanism.empty() ? "N/A" : row.safety_mechanism,
                   format_percent(row.sm_coverage, 0), format_number(row.single_point_fit(), 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper Table I:    dist 40.1%% / 28.7%% / 31.2%%, coverage 70%% / 0%% / 99%%\n");
  std::printf("PLL SPFM with these mechanisms: %s\n\n", format_percent(fmeda.spfm()).c_str());

  // 100 FIT is assumed (the paper gives none): residual = FIT x dist x (1 - cov).
  const double residual[] = {12.03, 28.7, 0.312};
  expect(fmeda.rows.size() == 3, "Table I: PLL row count != 3");
  for (size_t i = 0; i < 3; ++i) {
    expect(std::abs(fmeda.rows[i].single_point_fit() - residual[i]) < 1e-9,
           "Table I: residual FIT of '" + fmeda.rows[i].failure_mode + "'");
  }
}

// --------------------------------------------------------------- Table II --

void table2_reliability() {
  const auto workbook = drivers::DriverRegistry::global().open(kWorkbook);
  const auto model = core::ReliabilityModel::from_source(*workbook, "Reliability");
  std::printf("== Table II: example component reliability model ==\n\n");
  TextTable table({"Component", "FIT", "Failure_Mode", "Distribution"});
  for (const auto& entry : model.entries()) {
    bool first = true;
    for (const auto& mode : entry.modes) {
      table.add_row({first ? entry.component_type : "", first ? format_number(entry.fit) : "",
                     mode.name, format_percent(mode.distribution, 0)});
      first = false;
    }
  }
  std::printf("%s\n", table.render().c_str());

  // The paper's values survived the load and the MC/MCU alias handling.
  struct Expected {
    const char* type;
    double fit;
  };
  for (const Expected exp : {Expected{"Diode", 10}, Expected{"Capacitor", 2},
                             Expected{"Inductor", 15}, Expected{"MCU", 300}}) {
    const auto* entry = model.find(exp.type);
    expect(entry != nullptr && entry->fit == exp.fit,
           std::string("Table II: FIT of ") + exp.type);
  }
  std::printf("all Table II values verified (including the MC/MCU alias lookup)\n\n");
}

// -------------------------------------------------------------- Table III --

void table3_sm_model() {
  const auto workbook = drivers::DriverRegistry::global().open(kWorkbook);
  const auto model = core::SafetyMechanismModel::from_source(*workbook, "SafetyMechanisms");
  std::printf("== Table III: example safety mechanism model ==\n\n");
  TextTable table({"Component", "Failure_Mode", "Safety_Mechanism", "Cov.", "Cost(hrs)"});
  for (const auto& entry : model.entries()) {
    table.add_row({entry.component_type, entry.failure_mode, entry.name,
                   format_percent(entry.coverage, 0), format_number(entry.cost_hours, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  // ECC covers MCU RAM failures with 99 % at 2.0 h, found through the MC
  // alias and case-insensitive matching.
  const auto* ecc = model.best("MC", "ram failure");
  expect(ecc != nullptr && ecc->name == "ECC" && ecc->coverage == 0.99 &&
             ecc->cost_hours == 2.0,
         "Table III: best(MC, RAM Failure) != ECC, 99%, 2.0 h");
  std::printf("Table III verified: best(MC, RAM Failure) = ECC, 99%%, 2.0 h\n\n");
}

// --------------------------------------------------------------- Table IV --
// The case-study circuit is solved by the MNA simulator; each failure mode
// is injected and the CS1/MC1 readings compared against the 20 % threshold.

void table4_fmeda() {
  const CaseStudy cs = load_case_study();
  const auto fmea = core::analyze_circuit(cs.built, cs.reliability, nullptr, cs.options);
  const auto fmeda = core::analyze_circuit(cs.built, cs.reliability, &cs.sm_model, cs.options);

  std::printf("== Table IV: generated FMEDA of the sensor power supply ==\n\n");
  std::printf("%s\n", fmeda.to_text().render().c_str());
  const double spfm_before = fmea.spfm();
  const double spfm_after = fmeda.spfm();
  std::printf("SPFM before safety mechanisms: %6.2f%%   (paper:  5.38%%)\n", spfm_before * 100.0);
  std::printf("SPFM with ECC deployed on MC1: %6.2f%%   (paper: 96.77%%)\n", spfm_after * 100.0);
  std::printf("achieved integrity level:      %s (target ASIL-B)\n\n",
              core::achieved_asil(spfm_after).c_str());

  expect(std::abs(spfm_before - 0.0538) < 5e-4, "Table IV: SPFM before != 5.38%");
  expect(std::abs(spfm_after - 0.9677) < 5e-4, "Table IV: SPFM after != 96.77%");
  expect(fmeda.safety_related_components() == std::vector<std::string>({"D1", "L1", "MC1"}),
         "Table IV: safety-related set != {D1, L1, MC1}");
  for (const auto* row : fmeda.rows_of("D1")) {
    if (row->failure_mode == "Open") {
      expect(row->single_point_fit() == 3.0, "Table IV: D1 Open != 3 FIT");
    }
    if (row->failure_mode == "Short") {
      expect(!row->safety_related, "Table IV: D1 Short must be No");
    }
  }
  for (const auto* row : fmeda.rows_of("L1")) {
    if (row->failure_mode == "Open") {
      expect(row->single_point_fit() == 4.5, "Table IV: L1 Open != 4.5 FIT");
    }
  }
  for (const auto* row : fmeda.rows_of("MC1")) {
    expect(std::abs(row->single_point_fit() - 3.0) < 1e-9, "Table IV: MC1 != 3 FIT");
    expect(row->safety_mechanism == "ECC", "Table IV: MC1 mechanism != ECC");
  }
  std::printf("all Table IV values verified exactly\n\n");
}

// ---------------------------------------------------------------- Table V --
// Two participants design Systems A (102 elements) and B (230 elements) to
// ASIL-B, manually and with DECISIVE + SAME, in both orders. The humans are
// the calibrated analyst model (core/analyst.hpp); the automated sessions
// add the measured runtime of a real tool pass. The claim is the shape
// (an order-of-magnitude speed-up), not the minutes.

namespace {

core::AnalystProfile participant(char name, uint64_t salt) {
  core::AnalystProfile p;
  p.name = std::string(1, name);
  p.speed_factor = name == 'A' ? 0.95 : 1.05;
  p.seed = (name == 'A' ? 1001 : 2002) + salt;
  return p;
}

struct Subject {
  core::SyntheticSystem (*make)();
  const char* name;
};

core::DesignSession manual_design(const Subject& subject, const core::AnalystProfile& profile) {
  auto system = subject.make();
  const auto fmea = core::analyze_component(*system.model, system.system);
  return core::simulate_manual_design(fmea, core::synthetic_sm_catalogue(), "ASIL-B",
                                      system.element_count, profile);
}

core::DesignSession automated_design(const Subject& subject,
                                     const core::AnalystProfile& profile) {
  return core::run_automated_design(
      [&] {
        // One real tool pass: regenerate the design and run the automated
        // FMEA (Algorithm 1); the session model measures its wall time.
        auto system = subject.make();
        return core::analyze_component(*system.model, system.system);
      },
      core::synthetic_sm_catalogue(), "ASIL-B", profile);
}

}  // namespace

void table5_efficiency() {
  const Subject system_a{&core::make_system_a, "A"};
  const Subject system_b{&core::make_system_b, "B"};
  std::printf("== Table V: efficiency experiment (manual vs DECISIVE+SAME) ==\n\n");
  TextTable table({"System", "Participant", "Time spent (minutes)", "No. Iterations",
                   "Target met", "Paper (min)"});
  struct RowSpec {
    const Subject* subject;
    char participant;
    bool automated;
    uint64_t salt;
    const char* paper;
  };
  const RowSpec rows[] = {
      // Setting 1: A manual, B automated.
      {&system_a, 'A', false, 0, "505"}, {&system_a, 'B', true, 0, "62"},
      {&system_b, 'A', false, 1, "1143"}, {&system_b, 'B', true, 1, "105"},
      // Setting 2: roles swapped.
      {&system_a, 'A', true, 2, "57"}, {&system_a, 'B', false, 2, "497"},
      {&system_b, 'A', true, 3, "110"}, {&system_b, 'B', false, 3, "1166"},
  };
  double manual_total = 0.0;
  double auto_total = 0.0;
  bool all_met = true;
  for (const RowSpec& spec : rows) {
    const auto profile = participant(spec.participant, spec.salt);
    const core::DesignSession session = spec.automated
                                            ? automated_design(*spec.subject, profile)
                                            : manual_design(*spec.subject, profile);
    (spec.automated ? auto_total : manual_total) += session.minutes;
    all_met = all_met && session.target_met;
    table.add_row({spec.subject->name,
                   std::string(1, spec.participant) + (spec.automated ? "(Auto.)" : "(Man.)"),
                   format_number(session.minutes, 0), std::to_string(session.iterations),
                   session.target_met ? "yes" : "NO", spec.paper});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("observed speed-up from automation: %.1fx (paper: ~10x)\n\n",
              manual_total / auto_total);
  expect(all_met, "Table V: a design session missed its ASIL-B target");
}

// --------------------------------------------------------------- Table VI --
// The full-load repository reproduces EMF's load-everything behaviour: Set5
// is refused because the projected resident model exceeds the memory budget
// (the paper's "memory overflow"). The indexed (Hawk-style) back-end is the
// fix the paper proposes as future work.

void table6_scalability() {
  constexpr std::uint64_t kSets[] = {109, 269, 1369, 5689, 5689000, 568990000};
  constexpr size_t kMemoryBudget = size_t{4} * 1024 * 1024 * 1024;  // 4 GiB
  // The indexed back-end still streams every element; above this cap the
  // row is skipped to keep the run short (the asymptotics are the point).
  constexpr std::uint64_t kIndexedCap = 20'000'000;
  const char* paper[] = {"0.1", "0.2", "0.8", "4.1", "48.3", "N/A"};

  std::printf("== Table VI: scalability of model evaluation ==\n");
  std::printf("   memory budget for the full-load (EMF-style) repository: %zu MiB\n\n",
              kMemoryBudget / (1024 * 1024));
  TextTable table({"Model", "No. of Model Elements", "Full-load eval (sec)",
                   "Indexed eval (sec)", "Paper (sec)"});
  bool queries_match = true;
  bool set5_refused = false;
  for (size_t i = 0; i < std::size(kSets); ++i) {
    const std::uint64_t n = kSets[i];
    const auto full = core::evaluate_full_load(n, kMemoryBudget);
    const std::string full_text = full.loaded
                                      ? format_number(full.load_seconds + full.query_seconds, 3)
                                      : "N/A (memory overflow)";
    if (i + 1 == std::size(kSets)) set5_refused = !full.loaded;
    std::string indexed_text;
    if (n <= kIndexedCap) {
      const auto indexed = core::evaluate_indexed(n);
      indexed_text = format_number(indexed.load_seconds + indexed.query_seconds, 3);
      if (full.loaded && (indexed.safety_related != full.safety_related ||
                          indexed.total_fit != full.total_fit)) {
        indexed_text += " (QUERY MISMATCH)";
        queries_match = false;
      }
    } else {
      indexed_text = "streams in O(1) memory (skipped: > " + std::to_string(kIndexedCap) +
                     " elems keeps the run short)";
    }
    table.add_row({"Set" + std::to_string(i), std::to_string(n), full_text, indexed_text,
                   paper[i]});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape check: near-linear growth until the full-load memory wall at Set5;\n"
      "the indexed back-end removes the wall (the paper's proposed fix).\n\n");
  expect(queries_match, "Table VI: indexed and full-load queries disagree");
  expect(set5_refused, "Table VI: the full-load repository loaded Set5");
}

// -------------------------------------------------------------------- RQ1 --
// The manual participant is the calibrated analyst model; the automated one
// is the library's FMEA. The paper's key observation: the component-level
// safety-related sets always match.

namespace {

std::set<std::string> safety_set(const core::FmedaResult& fmea) {
  const auto components = fmea.safety_related_components();
  return {components.begin(), components.end()};
}

}  // namespace

void rq1_correctness() {
  std::printf("== RQ1: correctness — manual vs automated FMEA ==\n\n");
  TextTable table({"System", "FMEA rows", "Disagreement (seed 1)", "Mean over 200 seeds",
                   "SR sets identical", "Paper"});
  bool all_identical = true;
  for (const auto& [make, name, paper] :
       {std::tuple{&core::make_system_a, "A", "1.5%"},
        std::tuple{&core::make_system_b, "B", "2.67%"}}) {
    auto system = make();
    const auto truth = core::analyze_component(*system.model, system.system);
    core::AnalystProfile profile;
    profile.seed = 1;
    const auto single = core::simulate_manual_fmea(truth, system.element_count, profile);
    double total = 0.0;
    bool identical = true;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      core::AnalystProfile p;
      p.seed = seed;
      const auto manual = core::simulate_manual_fmea(truth, system.element_count, p);
      total += manual.disagreement;
      identical = identical && safety_set(manual.result) == safety_set(truth);
    }
    all_identical = all_identical && identical;
    table.add_row({name, std::to_string(truth.rows.size()), format_percent(single.disagreement),
                   format_percent(total / 200.0), identical ? "yes (200/200)" : "NO", paper});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape check: low single-digit %% row disagreement, component-level\n"
      "safety-related sets always identical (the paper's key observation).\n\n");
  expect(all_identical, "RQ1: a manual FMEA changed the safety-related set");
}

// -------------------------------------------------------------------- RQ2 --
// SAME covers the analogue block library; uncovered elements use the
// annotated-subsystem workaround, so 100 % of the subjects are covered. SSAM
// maps the conceptual, hardware and software blocks of Systems A and B.

void rq2_coverage() {
  std::printf("-- Simulink-substitute block library --\n");
  std::printf("natively simulatable block types:");
  for (const auto type : sim::supported_block_types()) {
    std::printf(" %.*s", static_cast<int>(type.size()), type.data());
  }
  std::printf("\n\n");

  // Every block of the case study simulates natively or is known simulation
  // infrastructure.
  const auto mdl = drivers::parse_mdl_file(kAssets + "/power_supply.mdl");
  size_t native = 0;
  size_t infra = 0;
  for (const auto& block : mdl.root.blocks) {
    if (sim::block_type_infrastructure(block.type)) ++infra;
    else if (sim::block_type_supported(block.type)) ++native;
  }
  const bool covered = native + infra == mdl.root.blocks.size();
  std::printf("case-study model: %zu/%zu blocks native, %zu infrastructure -> %s coverage\n",
              native, mdl.root.blocks.size(), infra, covered ? "100%" : "INCOMPLETE");

  // The workaround: an uncovered element type ("ComplexMCU") modelled as an
  // annotated subsystem builds and simulates; without the annotation it is
  // rejected with an actionable error.
  const char* workaround_mdl = R"(
    Model { Name "workaround"
      System {
        Block { BlockType DCVoltageSource Name "V1" Voltage "5" }
        Block {
          BlockType SubSystem Name "U1" AnnotatedType "MCU"
          OriginalType "ComplexMCU"
        }
        Block { BlockType Ground Name "G1" }
        Line { SrcBlock "V1" SrcPort "p" DstBlock "U1" DstPort "vdd" }
        Line { SrcBlock "U1" SrcPort "gnd" DstBlock "G1" DstPort "g" }
        Line { SrcBlock "V1" SrcPort "n" DstBlock "G1" DstPort "g" }
      }
    })";
  const auto wk = sim::build_circuit(drivers::parse_mdl(workaround_mdl));
  std::printf("annotated-subsystem workaround: %zu substitution(s): %s\n", wk.workarounds.size(),
              wk.workarounds.empty() ? "-" : wk.workarounds.front().c_str());

  const char* unsupported_mdl = R"(
    Model { Name "unsupported"
      System { Block { BlockType ComplexMCU Name "U1" } }
    })";
  bool rejected = false;
  try {
    sim::build_circuit(drivers::parse_mdl(unsupported_mdl));
    std::printf("ERROR: unsupported block type was silently accepted\n");
  } catch (const ParseError& error) {
    rejected = true;
    std::printf("uncovered element without annotation is rejected: %s\n\n", error.what());
  }

  std::printf("-- SSAM mapping coverage across domains --\n");
  TextTable table({"System", "Elements", "hardware", "software", "conceptual/other", "Mapped"});
  for (const auto& [make, name] :
       {std::pair{&core::make_system_a, "A"}, std::pair{&core::make_system_b, "B"}}) {
    auto system = make();
    std::map<std::string, size_t> by_type;
    size_t components = 0;
    for (const auto id : system.model->all_components_under(system.system)) {
      ++components;
      ++by_type[system.model->obj(id).get_string("componentType", "conceptual")];
    }
    table.add_row({name, std::to_string(system.element_count),
                   std::to_string(by_type["hardware"]), std::to_string(by_type["software"]),
                   std::to_string(components - by_type["hardware"] - by_type["software"]),
                   "100%"});
  }
  std::printf("%s\n", table.render().c_str());

  // The Simulink import also maps 100 % of the case-study model (audited).
  ssam::SsamModel model;
  const auto result = transform::simulink_to_ssam(mdl, model);
  const auto missing = transform::audit_information_loss(mdl, model, result);
  std::printf("Simulink->SSAM import of the case study: %zu blocks, %zu lines, %s\n\n",
              result.blocks, result.lines,
              missing.empty() ? "lossless (100% mapped)" : "LOSSY");
  expect(covered, "RQ2: a case-study block is neither native nor infrastructure");
  expect(wk.workarounds.size() == 1, "RQ2: the annotated subsystem was not substituted");
  expect(rejected, "RQ2: an unannotated unsupported block was accepted");
  expect(missing.empty(), "RQ2: the Simulink->SSAM import lost information");
}

// ------------------------------------------------------ threshold ablation --
// The paper marks a failure mode safety-related when a sensor reading
// "differs by a threshold" but does not study the threshold. Swept over the
// case study, the verdicts hold on a wide plateau: only the diode-short
// verdict moves, at its physical deviation of ~15 %.

void ablation_threshold() {
  const CaseStudy cs = load_case_study();
  std::printf("== Ablation: FMEA deviation threshold sweep (case study) ==\n\n");
  TextTable table({"threshold", "safety-related rows", "SR components", "D1 Short verdict",
                   "SPFM"});
  bool plateau = true;
  for (const double threshold : {0.01, 0.02, 0.05, 0.10, 0.16, 0.20, 0.30, 0.50, 1.00, 2.00}) {
    core::CircuitFmeaOptions options = cs.options;
    options.relative_threshold = threshold;
    const auto fmea = core::analyze_circuit(cs.built, cs.reliability, nullptr, options);
    size_t sr_rows = 0;
    bool d1_short_sr = false;
    for (const auto& row : fmea.rows) {
      if (row.safety_related) ++sr_rows;
      if (row.component == "D1" && row.failure_mode == "Short") d1_short_sr = row.safety_related;
    }
    // The paper's verdicts on the plateau: D1 Open, L1 Open and MC1 RAM are
    // safety-related, D1 Short is not, SPFM 5.38 %; the diode short
    // registers below its ~15 % deviation.
    if (threshold >= 0.16 && threshold <= 0.50) {
      plateau = plateau && sr_rows == 3 && !d1_short_sr && std::abs(fmea.spfm() - 0.0538) < 5e-4;
    }
    if (threshold >= 0.02 && threshold <= 0.10) plateau = plateau && d1_short_sr;
    table.add_row({format_percent(threshold, 0), std::to_string(sr_rows),
                   std::to_string(fmea.safety_related_components().size()),
                   d1_short_sr ? "safety-related" : "benign", format_percent(fmea.spfm())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: the diode-short deviation is ~15%%, so its verdict flips\n"
      "between 10%% and 16%%; the paper's verdicts hold on the whole plateau\n"
      "from 16%% to beyond 50%% (hard opens deviate ~100%%, capacitor shorts\n"
      "< 1%% behind their ESR; below ~2%% the capacitor shorts start to\n"
      "register, above 100%% even hard opens stop registering).\n\n");
  expect(plateau, "threshold ablation: verdicts moved off the 16%-50% plateau or the "
                  "diode-short flip left 10%-16%");
}

}  // namespace reproduce
