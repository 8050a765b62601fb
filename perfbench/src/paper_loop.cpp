// paper_loop: the real toolchain on the repository's assets, one full pass
// per iteration:
//   power_supply.mdl: parse -> build -> workbook -> FMEA -> assurance verdict
//     (Defeated) -> FMEDA with ECC -> CSV -> verdict (Supported);
//   brake_chain.ssam: XMI load -> graph FMEA -> ZBDD FTA -> quantify -> LFM;
//   System B: optimal_reach_asil + pareto_front on its set-up FMEA;
//   auv_control.aadl: import into SSAM.
// Every circuit here is below the sparse crossover, so fixed costs dominate.
// The assets are fixed; the seed changes nothing in this workload.
#include <memory>

#include "decisive/assurance/case.hpp"
#include "decisive/assurance/evaluate.hpp"
#include "decisive/base/csv.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/drivers/aadl.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/transform/aadl.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = decisive::core;
namespace assurance = decisive::assurance;
using decisive::format_percent;

namespace {

/// Set-ups before the measurement, and as many again after it, so the
/// median samples two points of the host's drifting load.
constexpr int kSetupRepetitions = 8;

/// What one pass produced, kept for the checks after the timed region.
struct PassOutput {
  std::string spfm_before;
  std::string spfm_after;
  assurance::ClaimState verdict_before = assurance::ClaimState::Undeveloped;
  assurance::ClaimState verdict_after = assurance::ClaimState::Undeveloped;
  std::string evidence;  ///< the FMEDA-with-ECC CSV as written
  std::string summary;   ///< everything else, for the stability digest
  std::size_t rows = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class PaperLoop {
 public:
  explicit PaperLoop(const RunOptions& options)
      : assets_(options.assets.string()),
        evidence_path_((options.work / "paper_loop_fmeda.csv").string()),
        case_("power-supply-safety"),
        system_b_(core::make_system_b()),
        catalogue_b_(core::synthetic_sm_catalogue()) {
    // The paper's Section V-C case: E1 recomputes Equation 1 from the FMEDA.
    case_.add_claim("G1", "The sensor power supply is acceptably safe for hazard H1");
    case_.add_strategy("S1", "Argue over the architecture metrics of the design", "G1");
    case_.add_claim("G2", "The design meets the ASIL-B SPFM target (>= 90%)", "S1");
    case_.add_artifact("E1", "Automated FMEDA of the power-supply design", "G2", evidence_path_,
                       "csv",
                       "var sr = rows().select(r | r.Safety_Related == 'Yes');\n"
                       "var comps = sr.collect(r | r.Component).distinct();\n"
                       "var lambda = comps.collect(c |\n"
                       "    rows().select(r | r.Component == c).first().FIT).sum();\n"
                       "var residual = sr.collect(r | r.Single_Point_FIT).sum();\n"
                       "return 1 - residual / lambda >= 0.90;");
    fmea_b_ = core::analyze_component(*system_b_.model, system_b_.system);
  }

  PassOutput pass() {
    PassOutput out;
    // power_supply.mdl through FMEA, FMEDA and the assurance verdicts.
    const auto mdl = in_span("bench.drivers.parse_mdl", [&] {
      return decisive::drivers::parse_mdl_file(assets_ + "/power_supply.mdl");
    });
    const auto built =
        in_span("bench.sim.build_circuit", [&] { return decisive::sim::build_circuit(mdl); });
    std::optional<core::ReliabilityModel> reliability;
    std::optional<core::SafetyMechanismModel> mechanisms;
    {
      LayerSpan span("bench.drivers.workbook");
      const auto workbook =
          decisive::drivers::DriverRegistry::global().open(assets_ + "/reliability_workbook");
      reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
      mechanisms = core::SafetyMechanismModel::from_source(*workbook, "SafetyMechanisms");
    }
    core::CircuitFmeaOptions options;
    options.safety_goal_observables = {"CS1", "MC1"};
    const auto fmea = in_span("bench.core.campaign.fmea", [&] {
      return core::analyze_circuit(built, *reliability, nullptr, options);
    });
    write_evidence(fmea);
    const auto before = in_span("bench.assurance.evaluate", [&] { return assurance::evaluate(case_); });
    const auto fmeda = in_span("bench.core.campaign.fmeda", [&] {
      return core::analyze_circuit(built, *reliability, &*mechanisms, options);
    });
    write_evidence(fmeda);
    const auto after = in_span("bench.assurance.evaluate", [&] { return assurance::evaluate(case_); });

    // brake_chain.ssam through graph FMEA, FTA and the LFM.
    decisive::ssam::SsamModel brake;
    in_span("bench.model.load_xmi", [&] {
      decisive::model::load_xmi_file(brake.repo(), brake.meta(), assets_ + "/brake_chain.ssam");
      return 0;
    });
    const auto chain = brake.find_by_name(decisive::ssam::cls::Component, "BrakeChain");
    const auto brake_fmea =
        in_span("bench.core.graph_fmea", [&] { return core::analyze_component(brake, chain); });
    const auto tree = in_span("bench.fta.synthesize",
                              [&] { return decisive::fta::synthesize_fault_tree_zbdd(brake, chain); });
    const auto quant =
        in_span("bench.fta.quantify", [&] { return decisive::fta::quantify(tree, 10000.0); });
    const auto lfm = in_span("bench.fta.lfm",
                             [&] { return decisive::fta::classify_latent(brake, tree, brake_fmea); });

    // System B: the optimal deployment and the Pareto front.
    const auto optimal = in_span("bench.core.sm_search.optimal", [&] {
      return core::optimal_reach_asil(fmea_b_, catalogue_b_, "ASIL-B");
    });
    const auto front = in_span("bench.core.sm_search.pareto",
                               [&] { return core::pareto_front(fmea_b_, catalogue_b_); });

    // auv_control.aadl into SSAM.
    decisive::ssam::SsamModel auv;
    const auto imported = in_span("bench.transform.aadl_import", [&] {
      const auto package = decisive::drivers::parse_aadl_file(assets_ + "/auv_control.aadl");
      return decisive::transform::aadl_to_ssam(package, "AuvControl", auv);
    });

    out.spfm_before = format_percent(fmea.spfm());
    out.spfm_after = format_percent(fmeda.spfm());
    out.verdict_before = root_state(before);
    out.verdict_after = root_state(after);
    out.rows = fmea.rows.size() + fmeda.rows.size() + brake_fmea.rows.size();
    out.attempted = 1 + fmea.rows.size() + fmeda.rows.size();
    for (const auto* result : {&fmea, &fmeda}) {
      for (const auto& row : result->rows) {
        out.failed += row.outcome == core::FaultOutcome::Crashed ||
                      row.outcome == core::FaultOutcome::BudgetExhausted;
      }
    }
    out.summary = decisive::write_csv(brake_fmea.to_csv()) + tree.to_text() +
                  std::to_string(quant.exact_probability) + "|" +
                  std::to_string(quant.rare_event_bound) + "|" + lfm.to_text() + "|" +
                  (optimal ? std::to_string(optimal->total_cost_hours) : "unreachable") + "|" +
                  decisive::write_csv(core::front_to_csv(fmea_b_, front)) + "|" +
                  std::to_string(imported.blocks) + "/" + std::to_string(imported.lines) + "/" +
                  std::to_string(auv.size());
    return out;
  }

 private:
  static assurance::ClaimState root_state(const assurance::EvaluationReport& report) {
    const auto* root = report.result_for("G1");
    return root == nullptr ? assurance::ClaimState::Undeveloped : root->state;
  }

  void write_evidence(const core::FmedaResult& result) {
    LayerSpan span("bench.base.csv_write");
    decisive::write_csv_file(evidence_path_, result.to_csv());
  }

  std::string assets_;
  std::string evidence_path_;
  assurance::AssuranceCase case_;
  core::SyntheticSystem system_b_;
  core::SafetyMechanismModel catalogue_b_;
  core::FmedaResult fmea_b_;
};

/// "" when the pass reproduced the paper's case study, else what differs.
std::string check_pass(const PassOutput& out, const std::string& golden) {
  if (out.spfm_before != "5.38%") return "SPFM before ECC is " + out.spfm_before + ", not 5.38%";
  if (out.spfm_after != "96.77%") return "SPFM with ECC is " + out.spfm_after + ", not 96.77%";
  if (out.verdict_before != assurance::ClaimState::Defeated) return "verdict before ECC not Defeated";
  if (out.verdict_after != assurance::ClaimState::Supported) return "verdict with ECC not Supported";
  if (out.evidence != golden) return "FMEDA bytes differ from the golden copy";
  return "";
}

}  // namespace

void run_paper_loop(Harness& h) {
  const std::string golden = read_file(h.options().data / "power_supply_fmeda.csv");
  std::string first_summary;
  PassOutput last;
  const auto check = [&](PassOutput out) {
    h.count_operations(out.attempted, out.failed);
    out.evidence = read_file(h.options().work / "paper_loop_fmeda.csv");
    if (const std::string problem = check_pass(out, golden); !problem.empty()) h.fail_check(problem);
    if (first_summary.empty()) first_summary = out.summary;
    if (out.summary != first_summary) h.fail_check("paper loop outputs changed between passes");
    last = std::move(out);
  };

  std::unique_ptr<PaperLoop> loop;
  const auto set_up = [&] {
    const auto start = Clock::now();
    loop = std::make_unique<PaperLoop>(h.options());
    PassOutput cold = loop->pass();
    h.add_setup_seconds(seconds_since(start));
    check(std::move(cold));
  };
  for (int rep = 0; rep < kSetupRepetitions; ++rep) set_up();

  for (const Phase phase : h.phases()) {
    h.begin_phase(phase);
    while (h.keep_going()) {
      const auto start = Clock::now();
      PassOutput out = loop->pass();
      h.record_iteration(seconds_since(start), out.rows);
      check(std::move(out));
    }
    h.end_phase();
  }

  PassOutput corrupted = last;
  corrupted.evidence[corrupted.evidence.size() / 2] ^= 0x01;
  h.expect_check_fires(!check_pass(corrupted, golden).empty(), "FMEDA evidence with one flipped byte");
  corrupted = last;
  corrupted.verdict_after = assurance::ClaimState::Defeated;
  h.expect_check_fires(!check_pass(corrupted, golden).empty(), "verdict that stays Defeated");

  for (int rep = 0; rep < kSetupRepetitions; ++rep) set_up();
}

}  // namespace perfbench
