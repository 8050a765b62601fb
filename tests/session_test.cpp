// Tests for the `same session` service (src/session): one resident model,
// edits tracked by the write verbs, `reanalyze` replaying the last result
// when nothing was edited and otherwise re-analysing only the units the
// edits named — property-tested byte-identical against cold analyses of the
// saved model under seeded random edit sequences — plus the protocol's other
// verbs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "decisive/base/persist.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/session/service.hpp"
#include "spare_subject.hpp"

using namespace decisive;
using namespace decisive::session;
using ssam::SsamModel;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Saves make_scaled_architecture(composites, leaves, width) as XMI.
std::string save_scaled(const std::string& name, size_t composites, size_t leaves,
                        size_t width = 1) {
  const std::string path = temp_path(name);
  const auto sys = core::make_scaled_architecture(composites, leaves, width);
  model::save_xmi_file(path, sys.model->repo(), sys.model->meta());
  return path;
}

/// Runs a request script against a service started on `model_path` and
/// returns one reply per request: its lines up to and including the status
/// line ("ok" or "error: ...").
std::vector<std::string> run_script(const std::string& model_path, const std::string& component,
                                    const std::string& script) {
  ServiceOptions options;
  options.model_path = model_path;
  options.component = component;
  std::istringstream in(script);
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);

  std::vector<std::string> replies;
  std::istringstream transcript(out.str());
  std::string line;
  std::string reply;
  bool ready = false;
  while (std::getline(transcript, line)) {
    if (!ready) {
      ready = line == "same session ready";
      continue;
    }
    reply += line + "\n";
    if (line == "ok" || line.rfind("error:", 0) == 0) {
      replies.push_back(std::move(reply));
      reply.clear();
    }
  }
  return replies;
}

/// The `table` reply the service gives for `result`.
std::string table_reply(const core::FmedaResult& result) {
  std::string text = result.to_text().render() + "\n";
  for (const auto& warning : result.warnings) text += "note: " + warning + "\n";
  return text + "ok\n";
}

/// A cold analysis of the model saved at `path`, and its unit count.
std::string cold_table(const std::string& path, const std::string& component,
                       size_t* units = nullptr) {
  SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), path);
  core::GraphFmeaStats stats;
  const auto result = core::analyze_component(
      model, model.find_by_name(ssam::cls::Component, component), {}, &stats);
  if (units != nullptr) *units = stats.units;
  return table_reply(result);
}

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A model the service saved is a fixed point of a cold analysis: loading
/// it, analysing it cold and saving it again gives the same bytes, so every
/// `safetyRelated` verdict and FailureEffect was written back.
void expect_cold_fixed_point(const std::string& path, const std::string& component) {
  SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), path);
  (void)core::analyze_component(model, model.find_by_name(ssam::cls::Component, component));
  EXPECT_EQ(model::save_xmi(model.repo(), model.meta()), read_file(path)) << path;
}

/// The number after `key` in `text` (the first occurrence), or -1.
long long number_after(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Resident re-analysis vs cold oracle
// ---------------------------------------------------------------------------

TEST(IncrementalTest, FirstRunIsAllMissesAndMatchesCold) {
  const std::string path = save_scaled("decisive_session_first_run.ssam", 4, 3);
  size_t units = 0;
  const std::string cold = cold_table(path, "System", &units);
  const auto replies = run_script(path, "System", "reanalyze\ntable\nquit\n");
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].find("short-circuit"), std::string::npos) << replies[0];
  EXPECT_NE(replies[0].find("units " + std::to_string(units) + " hits 0 misses " +
                            std::to_string(units)),
            std::string::npos)
      << replies[0];
  EXPECT_EQ(replies[1], cold);
  std::remove(path.c_str());
}

TEST(IncrementalTest, UnchangedModelShortCircuits) {
  const std::string path = save_scaled("decisive_session_unchanged.ssam", 4, 3);
  const auto reanalyses0 = counter("decisive_session_reanalyses_total");
  const auto short_circuits0 = counter("decisive_session_short_circuits_total");
  const auto replies =
      run_script(path, "System", "reanalyze\ntable\nreanalyze\ntable\nquit\n");
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[2].rfind("short-circuit (model unchanged)\n", 0), 0u) << replies[2];
  EXPECT_NE(replies[2].find(" misses 0 hit-rate 100.00%"), std::string::npos) << replies[2];
  EXPECT_EQ(replies[1], replies[3]);
  EXPECT_EQ(counter("decisive_session_reanalyses_total") - reanalyses0, 2u);
  EXPECT_EQ(counter("decisive_session_short_circuits_total") - short_circuits0, 1u);
  std::remove(path.c_str());
}

TEST(IncrementalTest, RandomEditSequencesStayByteIdenticalToCold) {
  // Seeded property test through the line protocol: whatever sequence of
  // FIT edits, new failure modes, mechanism deployments and rewires the
  // write verbs apply, the `table` after `reanalyze` equals a cold analysis
  // of the model the service saves at that step, byte for byte, and that
  // saved model is a fixed point of a cold analysis (no write-back was
  // skipped); a second `reanalyze` with no edit in between replays the
  // resident result.
  constexpr size_t kComposites = 5;
  constexpr size_t kLeaves = 4;
  constexpr int kSteps = 32;
  const std::string path = save_scaled("decisive_session_random.ssam", kComposites, kLeaves);
  std::mt19937 rng(20260805u);
  const auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const auto unit = [](size_t u) { return "Unit" + std::to_string(u); };
  const auto leaf = [&](size_t u, size_t l) { return unit(u) + ".Leaf" + std::to_string(l); };

  std::string script;
  std::vector<std::string> saved;
  for (int step = 0; step < kSteps; ++step) {
    // Every verb in turn; targets and values are seeded.
    const size_t u = pick(kComposites);
    const size_t l = pick(kLeaves);
    const bool coin = pick(2) == 0;
    const std::string tag = std::to_string(step);
    switch (step % 4) {
      case 0:
        script += "set-fit " + (coin ? unit(u) : leaf(u, l)) + " " +
                  std::to_string(1 + pick(500)) + "\n";
        break;
      case 1:
        script += "add-failure-mode " + leaf(u, l) + " FM" + tag + " 0." +
                  std::to_string(1 + pick(9)) + (coin ? " lossOfFunction\n" : " erroneous\n");
        break;
      case 2:
        script += "deploy-sm " + leaf(u, l) + " SM" + tag + " 0." + std::to_string(5 + pick(5)) +
                  (coin ? " 1 Open\n" : " 1\n");
        break;
      default: {
        // A bypass inside one unit, or around whole units in the system.
        if (coin) {
          const size_t from = l == kLeaves - 1 ? 0 : l;
          const size_t to = from + 1 + pick(kLeaves - 1 - from);
          script += "rewire " + unit(u) + " " + leaf(u, from) + ".out " + leaf(u, to) + ".in\n";
        } else {
          const size_t next = u + 1 + pick(kComposites - u);
          script += "rewire System " + unit(u) + ".out " +
                    (next == kComposites ? std::string("System.out") : unit(next) + ".in") + "\n";
        }
        break;
      }
    }
    saved.push_back(temp_path("decisive_session_random_" + std::to_string(step) + ".ssam"));
    script += "reanalyze\nreanalyze\ntable\nsave " + saved.back() + "\n";
  }
  script += "quit\n";

  const auto short_circuits0 = counter("decisive_session_short_circuits_total");
  const auto replies = run_script(path, "System", script);
  ASSERT_EQ(replies.size(), 5u * kSteps + 1);
  for (int step = 0; step < kSteps; ++step) {
    const std::string* reply = &replies[5 * step];
    ASSERT_TRUE(reply[0].ends_with("ok\n")) << reply[0];
    EXPECT_EQ(reply[1].find("short-circuit"), std::string::npos) << "step " << step;
    EXPECT_EQ(reply[2].rfind("short-circuit (model unchanged)\n", 0), 0u) << "step " << step;
    ASSERT_EQ(reply[3], cold_table(saved[step], "System")) << "diverged at step " << step;
    expect_cold_fixed_point(saved[step], "System");
    std::remove(saved[step].c_str());
  }
  EXPECT_EQ(counter("decisive_session_short_circuits_total") - short_circuits0,
            static_cast<std::uint64_t>(kSteps));
  std::remove(path.c_str());
}

TEST(IncrementalTest, EachEditReanalysesOnlyItsUnits) {
  // Nine units: System and its eight composites. A write verb marks the
  // component it names; the next reanalyze re-runs the unit listing it as a
  // subcomponent and its own unit, and replays every other one.
  const std::string path = save_scaled("decisive_session_edit_units.ssam", 8, 4);
  struct Edit {
    std::string request;
    long long misses;
  };
  const std::vector<Edit> edits = {
      {"set-fit Unit3.Leaf1 5", 1},                           // Unit3's rows
      {"set-fit Unit2 7", 2},                                 // System's rows, Unit2's unit
      {"add-failure-mode Unit5.Leaf0 FMx 0.1 erroneous", 1},  // Unit5's rows
      {"deploy-sm Unit6.Leaf2 SMx 0.9 1 Open", 1},            // Unit6's rows
      {"rewire Unit4 Unit4.Leaf0.out Unit4.Leaf2.in", 2},     // System's rows, Unit4's graph
      {"rewire System Unit1.out Unit3.in", 1},                // System's graph
  };
  std::string script = "reanalyze\nmetrics\n";
  for (const Edit& edit : edits) script += edit.request + "\nreanalyze\nmetrics\n";
  script += "quit\n";
  const auto replies = run_script(path, "System", script);
  ASSERT_EQ(replies.size(), 2 + 3 * edits.size() + 1);
  EXPECT_NE(replies[0].find("units 9 hits 0 misses 9 hit-rate 0.00%"), std::string::npos)
      << replies[0];

  const std::string units_total = "\ndecisive_graph_fmea_units_total ";
  long long units_before = number_after(replies[1], units_total);
  ASSERT_GE(units_before, 9);
  for (size_t i = 0; i < edits.size(); ++i) {
    const std::string& reanalyze = replies[2 + 3 * i + 1];
    const std::string& metrics = replies[2 + 3 * i + 2];
    const long long misses = edits[i].misses;
    EXPECT_EQ(number_after(reanalyze, " misses "), misses)
        << edits[i].request << "\n" << reanalyze;
    EXPECT_EQ(number_after(reanalyze, " hits "), 9 - misses) << edits[i].request;
    EXPECT_EQ(number_after(reanalyze, "dirty changed "), 1) << edits[i].request;
    const long long units_after = number_after(metrics, units_total);
    EXPECT_EQ(units_after - units_before, misses) << edits[i].request;
    units_before = units_after;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Service protocol
// ---------------------------------------------------------------------------

TEST(ServiceTest, ScriptedEditLoopOverOneResidentModel) {
  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  std::istringstream in(
      "# comment lines and blanks are ignored\n"
      "\n"
      "reanalyze\n"
      "set-fit Sensor 120\n"
      "reanalyze\n"
      "impact Sensor\n"
      "result\n"
      "metrics\n"
      "stats\n"
      "bogus-command\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);

  const std::string text = out.str();
  EXPECT_NE(text.find("same session ready"), std::string::npos);
  EXPECT_NE(text.find("fit(Sensor) = 120"), std::string::npos);
  EXPECT_NE(text.find("hit-rate"), std::string::npos);
  EXPECT_NE(text.find("Impact of changing 'Sensor'"), std::string::npos);
  // `result` replays the last SPFM / ASIL summary.
  EXPECT_NE(text.find("\nspfm "), std::string::npos);
  EXPECT_NE(text.find("\nasil "), std::string::npos);
  // `metrics` answers a Prometheus dump of the instrumentation registry,
  // re-analysis counters and request latency histogram included.
  EXPECT_NE(text.find("# TYPE decisive_session_reanalyses_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("decisive_session_short_circuits_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE decisive_session_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("decisive_session_request_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("error: unknown command 'bogus-command'"), std::string::npos);
  // Every non-error request ends in an ok status line.
  EXPECT_NE(text.find("\nok\n"), std::string::npos);
}

TEST(ServiceTest, FtaRequestIsFingerprintCached) {
  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  auto& registry = obs::Registry::global();
  const auto hits0 = registry.counter("decisive_fta_request_cache_hits_total").value();
  const auto misses0 = registry.counter("decisive_fta_request_cache_misses_total").value();

  // Same request twice → one synthesis, one replay. An edit clears the
  // reply cache, so the third request recomputes; so does a changed
  // parameter set.
  std::istringstream in(
      "fta\n"
      "fta\n"
      "set-fit Sensor 120\n"
      "fta\n"
      "fta 5000\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);

  EXPECT_EQ(registry.counter("decisive_fta_request_cache_hits_total").value() - hits0, 1u);
  EXPECT_EQ(registry.counter("decisive_fta_request_cache_misses_total").value() - misses0,
            3u);
  const std::string text = out.str();
  EXPECT_NE(text.find("cut-sets "), std::string::npos);
  EXPECT_NE(text.find("importance "), std::string::npos);
  EXPECT_NE(text.find("mission 5000h"), std::string::npos);
}

TEST(ServiceTest, FtaRejectsOutOfRangeMissionTime) {
  // A negative mission gave negative probabilities. NaN also matched any
  // cached reply key, so after one `fta` it replayed the 10000 h reply.
  const auto replies = run_script(DECISIVE_ASSETS_DIR "/brake_chain.ssam", "BrakeChain",
                                  "fta\nfta nan\nfta -100\nfta inf\nfta 0\nquit\n");
  ASSERT_EQ(replies.size(), 6u);  // quit answers too
  EXPECT_NE(replies[0].find("mission 10000h"), std::string::npos) << replies[0];
  for (size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(replies[i].rfind("error: ", 0), 0u) << replies[i];
    EXPECT_NE(replies[i].find("mission time"), std::string::npos) << replies[i];
  }
  // Mission 0 stays valid: every probability is 0.
  EXPECT_NE(replies[4].find("exact 0.000000e+00"), std::string::npos) << replies[4];
}

TEST(ServiceTest, RejectsNegativeMaxOrderAndNanEpsilon) {
  // -1 used to wrap to an unbounded order, and NaN ran the exact front.
  const auto catalogue = temp_path("decisive-service-nan-catalogue.csv");
  write_file(catalogue,
             "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n"
             "Sensor,No output,Redundant sensor,95%,4.0\n");
  const auto replies =
      run_script(DECISIVE_ASSETS_DIR "/brake_chain.ssam", "BrakeChain",
                 "reanalyze\nfta 10000 -1\npareto " + catalogue + " nan\nquit\n");
  std::remove(catalogue.c_str());
  ASSERT_EQ(replies.size(), 4u);  // quit answers too
  EXPECT_EQ(replies[1].rfind("error: ", 0), 0u) << replies[1];
  EXPECT_NE(replies[1].find("max-order"), std::string::npos) << replies[1];
  EXPECT_EQ(replies[2].rfind("error: ", 0), 0u) << replies[2];
  EXPECT_NE(replies[2].find("epsilon"), std::string::npos) << replies[2];
}

namespace {

/// Saves spare_subject's model, with or without its bypass wires.
std::string save_spare_model(const std::string& name, bool bypass) {
  SsamModel m;
  spare_subject::build(m, bypass);
  const std::string path = temp_path(name);
  model::save_xmi_file(path, m.repo(), m.meta());
  return path;
}

}  // namespace

TEST(ServiceTest, RewireStaysInTheParentsScope) {
  // `rewire` used to take the first IONode of that name anywhere in the
  // model: two rewires through Spare.in moved the SPFM from 36.67% to
  // 40.00% while `fta` still listed {Driver}. It now resolves names among
  // BrakeChain's IONodes and its subcomponents' only, and refuses Spare.in
  // before it touches the model.
  const std::string model = save_spare_model("decisive_session_spare.ssam", false);
  const std::string saved = temp_path("decisive_session_spare_saved.ssam");
  const std::string reference = temp_path("decisive_session_spare_reference.ssam");
  const auto replies = run_script(model, "BrakeChain",
                                  "reanalyze\n"
                                  "rewire BrakeChain Sensor.out Spare.in\n"
                                  "rewire BrakeChain Spare.in caliper\n"
                                  "reanalyze\n"
                                  "fta\n"
                                  "save " + saved + "\n"
                                  "rewire BrakeChain Sensor.out caliper\n"
                                  "reanalyze\n"
                                  "quit\n");
  ASSERT_EQ(replies.size(), 9u);
  EXPECT_NE(replies[0].find("spfm 36.67%"), std::string::npos) << replies[0];
  for (size_t i = 1; i <= 2; ++i) {
    EXPECT_EQ(replies[i],
              "error: model error: no IONode named 'Spare.in' on 'BrakeChain' or its "
              "subcomponents\n");
  }
  // No edit is pending: the reanalyze replays the first result.
  EXPECT_EQ(replies[3].rfind("short-circuit (model unchanged)\nrows 2 spfm 36.67% ", 0), 0u)
      << replies[3];
  EXPECT_NE(replies[3].find("\ndirty changed 0 "), std::string::npos) << replies[3];
  EXPECT_NE(replies[4].find("( ) loss of 'Driver'"), std::string::npos) << replies[4];
  // The refused rewires left nothing behind: the saved model is the one a
  // session that made no edit saves.
  const auto untouched =
      run_script(model, "BrakeChain", "reanalyze\nsave " + reference + "\nquit\n");
  ASSERT_EQ(untouched.size(), 3u);
  const auto saved_bytes = decisive::read_file(saved);
  ASSERT_TRUE(saved_bytes.has_value());
  EXPECT_EQ(saved_bytes, decisive::read_file(reference));
  // An in-scope rewire may name the parent's own IONode: Driver is bypassed.
  EXPECT_EQ(replies[6].rfind("wired Sensor.out -> caliper in BrakeChain\n", 0), 0u)
      << replies[6];
  EXPECT_NE(replies[7].find("spfm 40.00%"), std::string::npos) << replies[7];
  for (const auto& path : {model, saved, reference}) std::remove(path.c_str());

  // A loaded model that already wires Spare.in fails graph FMEA and FTA
  // with one error.
  const std::string bypassed = save_spare_model("decisive_session_spare_bypass.ssam", true);
  const auto failed = run_script(bypassed, "BrakeChain", "reanalyze\nfta\nquit\n");
  ASSERT_EQ(failed.size(), 3u);
  EXPECT_EQ(failed[0].rfind("error: analysis error: relationship 'bypass1' of 'BrakeChain'", 0),
            0u)
      << failed[0];
  EXPECT_EQ(failed[1], failed[0]);
  std::remove(bypassed.c_str());
}

TEST(ServiceTest, FtaAndParetoReanalysePendingEditsFirst) {
  // `fta` classifies latent faults against the FMEA of the current model:
  // after an edit it re-analyses first, and no pre-edit reply is replayed.
  const std::string model = save_scaled("decisive_session_stale_lfm.ssam", 2, 3, 2);
  const auto edited = run_script(
      model, "System", "reanalyze\nset-fit Unit0_0 900\nfta\nreanalyze\nfta\nquit\n");
  const auto reference =
      run_script(model, "System", "set-fit Unit0_0 900\nreanalyze\nfta\nquit\n");
  ASSERT_EQ(edited.size(), 6u);
  ASSERT_EQ(reference.size(), 4u);
  for (const std::string& reply : {edited[2], edited[4], reference[2]}) {
    EXPECT_NE(reply.find("\nmulti-point FIT: 384.8 "), std::string::npos) << reply;
  }
  // The pending edit is re-analysed first, in the same reply; after the
  // explicit reanalyze the reply equals a fresh session's.
  EXPECT_EQ(edited[2].rfind("rows ", 0), 0u) << edited[2];
  EXPECT_EQ(edited[4], reference[2]);
  std::remove(model.c_str());

  // `pareto` after an edit ranks deployments against the edited model.
  const auto catalogue = temp_path("decisive-service-stale-catalogue.csv");
  write_file(catalogue,
             "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n"
             "Sensor,No output,Redundant sensor,95%,4.0\n"
             "Driver,Open,Duplex driver,90%,2.0\n");
  const std::string brake = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  const auto before = run_script(brake, "BrakeChain", "pareto " + catalogue + "\nquit\n");
  const auto after = run_script(
      brake, "BrakeChain", "reanalyze\nset-fit Sensor 120\npareto " + catalogue + "\nquit\n");
  const auto expected = run_script(
      brake, "BrakeChain", "set-fit Sensor 120\nreanalyze\npareto " + catalogue + "\nquit\n");
  ASSERT_EQ(before.size(), 2u);
  ASSERT_EQ(after.size(), 4u);
  ASSERT_EQ(expected.size(), 4u);
  const auto front = [](const std::string& reply) { return reply.substr(reply.find("Cost(hrs)")); };
  EXPECT_NE(front(before[0]), expected[2]);
  EXPECT_EQ(front(after[2]), expected[2]);
  std::remove(catalogue.c_str());
}

TEST(ServiceTest, FtaRepliesArePinnedAlongASeededEditScript) {
  // Every `fta` reply along a seeded script of FIT edits, new failure
  // modes, mechanism deployments and bypass rewires on a width-3 lattice,
  // at three (mission, max-order) settings, hashed and compared with the
  // digest recorded before the FTA kernels moved to flat tables.
  constexpr size_t kStages = 5;
  constexpr size_t kWidth = 3;
  const std::string path = save_scaled("decisive_session_fta_pinned.ssam", kStages, 2, kWidth);
  std::mt19937 rng(20261018u);
  const auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const auto unit = [](size_t c, size_t k) {
    return "Unit" + std::to_string(c) + "_" + std::to_string(k);
  };
  std::string script = "reanalyze\n";
  for (int step = 0; step < 24; ++step) {
    // Every draw every step, in one fixed order.
    const size_t stage = pick(kStages);
    const std::string target = unit(stage, pick(kWidth));
    const size_t verb = pick(4);
    const size_t value = pick(900);
    const bool loss = pick(2) == 0;
    const size_t next = stage + 2 + pick(2);
    const size_t next_unit = pick(kWidth);
    const std::string tag = std::to_string(step);
    switch (verb) {
      case 0:
        script += "set-fit " + target + " " + std::to_string(5 + value) + "\n";
        break;
      case 1:
        script += "add-failure-mode " + target + " FM" + tag + " 0." +
                  std::to_string(1 + value % 9) + (loss ? " lossOfFunction\n" : " omission\n");
        break;
      case 2:
        script += "deploy-sm " + target + " SM" + tag + " 0." + std::to_string(5 + value % 5) +
                  " 1 Open\n";
        break;
      default:
        script += "rewire System " + target + ".out " +
                  (next >= kStages ? "System.out" : unit(next, next_unit) + ".in") + "\n";
        break;
    }
    script += "reanalyze\nfta\nfta 5000 2\nfta 0.5 1\n";
  }
  script += "quit\n";

  const auto replies = run_script(path, "System", script);
  ASSERT_EQ(replies.size(), 1 + 24 * 5 + 1);
  for (const std::string& reply : replies) ASSERT_TRUE(reply.ends_with("ok\n")) << reply;
  std::string fta;
  for (size_t step = 0; step < 24; ++step) {
    for (size_t i = 0; i < 3; ++i) {
      const std::string& reply = replies[1 + 5 * step + 2 + i];
      ASSERT_NE(reply.find("cut-sets "), std::string::npos) << reply;
      fta += reply;
    }
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(fnv1a64(fta)));
  EXPECT_EQ(std::string(digest), "0x0345a8fc76383d8d") << fta.size() << " bytes";
  std::remove(path.c_str());
}

TEST(ServiceTest, RequestsWithoutAModelFailSoftly) {
  std::istringstream in("reanalyze\nload nowhere.ssam Nothing\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, {}), 0);
  EXPECT_NE(out.str().find("error: no model loaded"), std::string::npos);
}

TEST(ServiceTest, FailedInitialLoadReturnsTwo) {
  ServiceOptions options;
  options.model_path = temp_path("decisive_no_such_model.ssam");
  options.component = "X";
  std::istringstream in("quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 2);
}

TEST(ServiceTest, ParetoAnswersTheDeploymentFront) {
  const auto catalogue_path = temp_path("decisive-service-catalogue.csv");
  write_file(catalogue_path,
             "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n"
             "Sensor,No output,Redundant sensor,95%,4.0\n"
             "Sensor,No output,Heartbeat check,80%,1.0\n"
             "Driver,Open,Duplex driver,90%,2.0\n");

  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  // `pareto` works without an explicit reanalyze: the service runs one
  // itself when no FMEA result is resident yet.
  std::istringstream in("pareto " + catalogue_path + "\n" +
                        "pareto " + catalogue_path + " 0.5\n" +
                        "pareto\n"
                        "quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("Cost(hrs),SPFM,ASIL,Choices,Deployment"), std::string::npos) << text;
  EXPECT_NE(text.find("Sensor/No output=Redundant sensor; Driver/Open=Duplex driver"),
            std::string::npos);
  EXPECT_NE(text.find("front: 4 deployment(s)"), std::string::npos);
  // Epsilon coarsening may only shrink the front; the zero-cost point stays.
  EXPECT_NE(text.find("\n0,"), std::string::npos);
  // Missing catalogue argument is a soft request error, not a crash.
  EXPECT_NE(text.find("usage: pareto"), std::string::npos);
  std::remove(catalogue_path.c_str());
}

TEST(ServiceTest, CampaignRequestLeavesTheResidentSessionUntouched) {
  ServiceOptions options;
  options.model_path = DECISIVE_ASSETS_DIR "/brake_chain.ssam";
  options.component = "BrakeChain";

  const std::string journal = temp_path("decisive_service_campaign.journal");
  std::remove(journal.c_str());
  const std::string mdl = DECISIVE_ASSETS_DIR "/power_supply.mdl";
  const std::string workbook = DECISIVE_ASSETS_DIR "/reliability_workbook";

  // Two journaled campaigns (the second replays every task from the first's
  // checkpoints) plus a plain one, interleaved with the resident model's
  // analysis — which must keep answering reanalyze as if no campaign ran.
  std::istringstream in("reanalyze\n"
                        "campaign " + mdl + " " + workbook + " " + journal + "\n" +
                        "campaign " + mdl + " " + workbook + " " + journal + "\n" +
                        "campaign " + mdl + " " + workbook + "\n" +
                        "campaign too-few\n"
                        "reanalyze\nstats\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(run_service(in, out, options), 0);
  const std::string text = out.str();

  const auto first = text.find("rows 9 spfm");
  const auto second = text.find("rows 9 spfm", first + 1);
  const auto third = text.find("rows 9 spfm", second + 1);
  EXPECT_NE(first, std::string::npos) << text;
  EXPECT_NE(second, std::string::npos) << text;
  EXPECT_NE(third, std::string::npos) << text;
  // Replayed and fresh campaigns answer identically (same summary lines).
  EXPECT_NE(text.find("campaign 9 converged"), std::string::npos) << text;
  EXPECT_NE(text.find("usage: campaign"), std::string::npos);
  // A campaign is not an edit: the resident analysis replays.
  EXPECT_NE(text.find("short-circuit (model unchanged)"), std::string::npos) << text;
  EXPECT_TRUE(std::filesystem::exists(journal));
  std::remove(journal.c_str());
}
