// deploy_search: Step 4b and FTA at scale. The subjects are
// make_scaled_architecture(40, 8) with seeded leaf FITs (680 FMEDA rows) and
// the width-5 make_scaled_architecture(9, 1, 5) lattice, both with their
// FMEDA built in set-up. The design is sized so one decision takes ~0.1 s
// and a 20 s run holds well over a hundred of them, enough for the gated
// 10th percentile to have ten decisions below it; at (40, 32) a decision
// takes ~0.6 s. One iteration is one deployment decision:
//   greedy_reach_asil(ASIL-B) and its apply_deployment,
//   pareto_front at epsilon 0.001,
//   ZBDD synthesis + quantify + classify_latent on the lattice, then a
//   Pareto front weighted by the LFM rows.
// optimal_reach_asil stays in paper_loop (System B), where it completes.
#include <memory>

#include "decisive/base/csv.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = decisive::core;
namespace fta = decisive::fta;

namespace {

/// Set-ups before the measurement, and as many again after it, so the
/// median samples two points of the host's drifting load.
constexpr int kSetupRepetitions = 5;
constexpr std::size_t kComposites = 40;
constexpr std::size_t kLeaves = 8;
constexpr double kEpsilon = 0.001;

struct Subjects {
  core::SyntheticSystem scaled;
  core::FmedaResult scaled_fmea;
  core::SyntheticSystem lattice;
  core::FmedaResult lattice_fmea;
  core::SafetyMechanismModel catalogue;
};

std::unique_ptr<Subjects> make_subjects(std::uint64_t seed) {
  auto s = std::make_unique<Subjects>();
  s->scaled = core::make_scaled_architecture(kComposites, kLeaves);
  SeededRandom random(seed);
  for (const auto component : s->scaled.model->all_components_under(s->scaled.system)) {
    auto& object = s->scaled.model->obj(component);
    if (object.get_string("name").find(".Leaf") != std::string::npos) {
      object.set_real("fit", 5.0 + 10.0 * random.unit());
    }
  }
  s->scaled_fmea = core::analyze_component(*s->scaled.model, s->scaled.system);
  s->lattice = core::make_scaled_architecture(9, 1, 5);
  s->lattice_fmea = core::analyze_component(*s->lattice.model, s->lattice.system);
  s->catalogue = core::scaled_sm_catalogue();
  return s;
}

struct Decision {
  std::optional<core::Deployment> greedy;
  core::FmedaResult deployed;
  std::vector<core::Deployment> front;
  core::FaultTree tree;
  fta::Quantification quant;
  fta::LfmResult lfm;
  std::vector<core::Deployment> lfm_front;
};

Decision decide(const Subjects& s) {
  Decision d;
  d.greedy = in_span("bench.core.sm_search.greedy", [&] {
    return core::greedy_reach_asil(s.scaled_fmea, s.catalogue, "ASIL-B");
  });
  if (d.greedy) d.deployed = core::apply_deployment(s.scaled_fmea, *d.greedy);
  core::ParetoOptions options;
  options.epsilon = kEpsilon;
  d.front = in_span("bench.core.sm_search.pareto",
                    [&] { return core::pareto_front(s.scaled_fmea, s.catalogue, options); });
  d.tree = in_span("bench.fta.synthesize", [&] {
    return fta::synthesize_fault_tree_zbdd(*s.lattice.model, s.lattice.system);
  });
  d.quant = in_span("bench.fta.quantify", [&] { return fta::quantify(d.tree, 10000.0); });
  d.lfm = in_span("bench.fta.lfm", [&] {
    return fta::classify_latent(*s.lattice.model, d.tree, s.lattice_fmea);
  });
  options.row_weights = fta::lfm_row_weights(d.lfm);
  d.lfm_front = in_span("bench.core.sm_search.lfm_pareto",
                        [&] { return core::pareto_front(s.lattice_fmea, s.catalogue, options); });
  return d;
}

/// "" when the front is sorted by cost with strictly increasing metric.
std::string check_front(const std::vector<core::Deployment>& front, const char* which) {
  if (front.empty()) return std::string(which) + " front is empty";
  for (std::size_t i = 1; i < front.size(); ++i) {
    if (front[i].total_cost_hours < front[i - 1].total_cost_hours ||
        front[i].spfm <= front[i - 1].spfm) {
      return std::string(which) + " front not sorted by cost with increasing metric";
    }
  }
  return "";
}

std::string check_decision(const Decision& d) {
  if (!d.greedy) return "greedy search found no ASIL-B deployment";
  if (!core::meets_asil(d.deployed.spfm(), "ASIL-B")) {
    return "greedy deployment misses the ASIL-B SPFM after apply_deployment";
  }
  if (std::string problem = check_front(d.front, "SPFM"); !problem.empty()) return problem;
  if (std::string problem = check_front(d.lfm_front, "LFM"); !problem.empty()) return problem;
  if (d.quant.exact_probability > d.quant.rare_event_bound + 1e-12) {
    return "exact top-event probability above the rare-event bound";
  }
  return "";
}

/// Everything a decision produced, for the digest that must stay stable.
std::string decision_bytes(const Subjects& s, const Decision& d) {
  std::string bytes = decisive::write_csv(core::front_to_csv(s.scaled_fmea, d.front));
  bytes += decisive::write_csv(core::front_to_csv(s.lattice_fmea, d.lfm_front, core::ParetoMetric::Lfm));
  if (d.greedy) bytes += decisive::write_csv(core::front_to_csv(s.scaled_fmea, {*d.greedy}));
  bytes += d.tree.to_text() + d.lfm.to_text();
  bytes += std::to_string(d.quant.exact_probability) + "|" + std::to_string(d.quant.rare_event_bound);
  return bytes;
}

}  // namespace

void run_deploy_search(Harness& h) {
  const auto set_up = [&] {
    const auto start = Clock::now();
    auto made = make_subjects(h.options().seed);
    h.add_setup_seconds(seconds_since(start));
    return made;
  };
  std::unique_ptr<Subjects> subjects;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) subjects = set_up();

  std::string first_digest;
  Decision last;
  for (const Phase phase : h.phases()) {
    h.begin_phase(phase);
    while (h.keep_going()) {
      const auto start = Clock::now();
      Decision d = decide(*subjects);
      const double seconds = seconds_since(start);
      h.record_iteration(seconds, d.deployed.rows.size() + d.lfm.rows.size());
      h.record_sample("decision", seconds * 1e3);
      const std::string problem = check_decision(d);
      h.count_operations(1, d.greedy ? 0 : 1);
      if (!problem.empty()) h.fail_check(problem);
      const std::string bytes_digest = digest(decision_bytes(*subjects, d));
      if (first_digest.empty()) first_digest = bytes_digest;
      if (bytes_digest != first_digest) h.fail_check("deployment decision changed between iterations");
      last = std::move(d);
    }
    h.end_phase();
  }

  Decision corrupted = last;
  std::swap(corrupted.front.front(), corrupted.front.back());
  h.expect_check_fires(!check_decision(corrupted).empty(), "SPFM front out of cost order");
  corrupted = last;
  corrupted.quant.exact_probability = 2.0 * corrupted.quant.rare_event_bound + 1.0;
  h.expect_check_fires(!check_decision(corrupted).empty(), "exact probability above the bound");
  std::string bytes = decision_bytes(*subjects, last);
  bytes[bytes.size() / 2] ^= 0x01;
  h.expect_check_fires(digest(bytes) != first_digest, "decision output with one flipped byte");

  for (int rep = 0; rep < kSetupRepetitions; ++rep) (void)set_up();
}

}  // namespace perfbench
