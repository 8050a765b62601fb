// The campaign solve context (sim/campaign_solver.hpp) and its integration
// with the campaign engine. The load-bearing property is byte-identity: a
// campaign with the context must emit exactly the bytes the classic
// one-solve-per-fault campaign emits — same CSV, same warnings — for any job
// count, factor kind, shard spec, or journal state, because every gate in
// the context falls back to the naive ladder the moment a result could
// differ.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_subjects.hpp"
#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/campaign.hpp"
#include "decisive/core/campaign_journal.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/oracles.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/sim/campaign_solver.hpp"
#include "decisive/sim/dense.hpp"
#include "decisive/sim/fault.hpp"
#include "decisive/sim/solver.hpp"

using namespace decisive;
using namespace campaign_subjects;

namespace {

const std::string kAssets = DECISIVE_ASSETS_DIR;

/// Torture specimen from robustness_test: the baseline solves inside the
/// iteration budget, the Drift fault only converges via the recovery ladder
/// — so the context must hand it back to the naive solver (NotConverged
/// fallback) and the row must still say RecoveredViaLadder.
sim::BuiltCircuit drifting_source_rig() {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int p = c.node("p");
  const int k = c.node("k");
  c.add_vsource("V1", p, 0, 1.2);
  c.add_resistor("R1", p, k, 1000.0);
  c.add_diode("D1", 0, k);
  c.add_voltage_sensor("VS1", k, 0);
  built.observables.push_back("VS1");
  built.components.push_back({"V1", "Source", "V1"});
  return built;
}

/// An MCU monitoring a divided-down supply: Drift faults on the supply move
/// the MCU across its brown-out threshold, exercising the RHS-only update,
/// the MCU knife-edge guard, and the structural VSource Open/Short faults.
sim::BuiltCircuit mcu_rig() {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int vdd = c.node("vdd");
  c.add_vsource("V1", vin, 0, 5.0);
  c.add_resistor("R1", vin, vdd, 1000.0);
  c.add_resistor("R2", vdd, 0, 2200.0);
  c.add_mcu("MC1", vdd, 0, 10000.0);
  c.add_voltage_sensor("VS1", vdd, 0);
  built.observables.push_back("MC1");
  built.observables.push_back("VS1");
  built.components.push_back({"V1", "Source", "V1"});
  built.components.push_back({"R1", "Resistor", "R1"});
  built.components.push_back({"MC1", "Mcu", "MC1"});
  return built;
}

core::ReliabilityModel mcu_reliability() {
  core::ReliabilityModel reliability;
  reliability.add("Source", 5.0, {{"Open", 0.3}, {"Short", 0.2}, {"Drift", 0.5}});
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Mcu", 20.0, {{"RAM Failure", 0.6}, {"Drift", 0.4}});
  return reliability;
}

/// `fault` resolved against `nominal` the way the campaign runner resolves
/// it: the element's index and its faulted_element form.
struct ResolvedFault {
  std::size_t index = 0;
  sim::Element failed;
};

ResolvedFault resolve(const sim::Circuit& nominal, const sim::Fault& fault) {
  const sim::Element& element = nominal.get(fault.element);
  return {static_cast<std::size_t>(&element - nominal.elements().data()),
          sim::faulted_element(element, fault.kind, fault.drift_factor, 1e12, 1e-3)};
}

bool eligible(const sim::CampaignContext& context, const sim::Circuit& nominal,
              const sim::Fault& fault) {
  const ResolvedFault resolved = resolve(nominal, fault);
  return context.eligible(resolved.index, resolved.failed);
}

sim::CampaignSolve try_solve(const sim::CampaignContext& context, const sim::Circuit& nominal,
                             const sim::Fault& fault, sim::CampaignContext::Workspace& ws) {
  const ResolvedFault resolved = resolve(nominal, fault);
  return context.try_solve(resolved.index, resolved.failed, ws);
}

/// Every slot of a solved fault against a fresh solve of the faulted circuit:
/// within 1e-6 where the fresh solve has the reading, with an error bound
/// inside that tolerance; absent (NaN) where it has none.
void expect_readings_match(const sim::CampaignContext& context, const sim::Circuit& nominal,
                           const sim::CampaignSolve& solve, const sim::OperatingPoint& fresh,
                           const std::string& what) {
  const std::vector<std::size_t>& slots = context.reading_elements();
  ASSERT_EQ(solve.readings.size(), slots.size()) << what;
  ASSERT_EQ(solve.reading_error.size(), slots.size()) << what;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const std::string& name = nominal.elements()[slots[s]].name;
    const auto it = fresh.readings.find(name);
    if (it == fresh.readings.end()) {
      EXPECT_TRUE(std::isnan(solve.readings[s])) << what << " reading " << name;
      continue;
    }
    EXPECT_NEAR(solve.readings[s], it->second, 1e-6) << what << " reading " << name;
    EXPECT_LE(solve.reading_error[s], 1e-6) << what << " reading " << name;
  }
}

/// Options that give the context each factor kind on the small subjects:
/// the default crossover keeps them dense; a crossover of 1 with the fill
/// gate opened (a handful of unknowns is a dense pattern) makes them sparse.
sim::SolveOptions factor_options(bool sparse) {
  sim::SolveOptions options;
  if (sparse) {
    options.sparse_min_dim = 1;
    options.sparse_max_fill = 1.0;
  }
  return options;
}

/// The context as the campaign runner builds it: linearised at the dense
/// baseline of `nominal`.
sim::CampaignContext make_context(const sim::Circuit& nominal, const sim::SolveOptions& options) {
  return sim::CampaignContext(nominal, sim::dc_operating_point(nominal, options), options);
}

}  // namespace

// ------------------------------------------------- campaign identity matrix --

TEST(BatchCampaign, RailSubjectByteIdenticalAcrossJobCounts) {
  // Both sides of the 48-unknown crossover: a dense and a sparse factor.
  expect_identity_matrix("rail-8", make_rail(8), rail_reliability());
  expect_identity_matrix("rail-48", make_rail(48), rail_reliability());
}

TEST(BatchCampaign, BigRailSubjectsByteIdentical) {
  // The naive reference is O(n^3) per fault, so the big rails list every
  // 4th / 64th stage's faults. (the `reproduce` tool's throughput gate checks all
  // 960 faults of the 192-stage rail.)
  expect_identity_matrix("rail-96", make_rail(96, 4), rail_reliability());
  expect_identity_matrix("rail-192", make_rail(192, 64), rail_reliability());
}

TEST(BatchCampaign, LadderTortureSubjectByteIdentical) {
  // The Drift fault needs the recovery ladder; the context must fall back,
  // keeping the RecoveredViaLadder row (whose detail embeds iteration
  // counts) byte-identical.
  core::ReliabilityModel reliability;
  reliability.add("Source", 5.0, {{"Drift", 1.0}});
  core::CircuitFmeaOptions options;
  options.solver.max_newton_iterations = 40;
  expect_identity_matrix("ladder-torture", drifting_source_rig(), reliability, options);
}

TEST(BatchCampaign, LadderBaselineBuildsNoContext) {
  // A reverse diode whose cold-started Newton walk (0.6 V to -12 V at 0.1 V
  // per iteration) overruns a 30-iteration budget: the baseline converges
  // only through the recovery ladder, so the campaign must not linearise a
  // context there. Every row goes naive and prints the naive bytes.
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int p = c.node("p");
  const int k = c.node("k");
  c.add_vsource("V1", p, 0, 12.0);
  c.add_resistor("R1", p, k, 1000.0);
  c.add_diode("D1", 0, k);
  c.add_voltage_sensor("VS1", k, 0);
  built.observables.push_back("VS1");
  built.components.push_back({"R1", "Resistor", "R1"});
  core::ReliabilityModel reliability;
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  core::CircuitFmeaOptions options;
  options.solver.max_newton_iterations = 30;

  sim::SolveDiagnostics baseline;
  ASSERT_TRUE(sim::try_dc_operating_point(c, options.solver, baseline).has_value());
  ASSERT_GE(baseline.ladder_rung, 1) << "the baseline no longer needs the ladder";

  auto& registry = obs::Registry::global();
  const char* const untouched[] = {
      "decisive_batch_contexts_total", "decisive_batch_factor_reuses_total",
      "decisive_campaign_batched_rows_total", "decisive_campaign_batch_fallback_total",
      "decisive_campaign_sparse_rows_total", "decisive_campaign_sparse_fallback_total"};
  std::vector<std::uint64_t> before;
  for (const char* name : untouched) before.push_back(registry.counter(name).value());
  (void)run_campaign(built, reliability, options);
  for (std::size_t i = 0; i < std::size(untouched); ++i) {
    EXPECT_EQ(registry.counter(untouched[i]).value(), before[i]) << untouched[i];
  }
  expect_identity_matrix("ladder-baseline", built, reliability, options);
}

TEST(BatchCampaign, McuKnifeEdgeSubjectByteIdentical) {
  expect_identity_matrix("mcu-knife-edge", mcu_rig(), mcu_reliability());
  // The subject must inject the MCU's RAM fault, not skip it as an unknown
  // mode: its row is solved on either path.
  const auto result = core::analyze_circuit(mcu_rig(), mcu_reliability());
  bool found = false;
  for (const core::FmedaRow& row : result.rows) {
    if (row.component != "MC1" || row.failure_mode != "RAM Failure") continue;
    found = true;
    EXPECT_NE(row.outcome, core::FaultOutcome::NotApplicable) << row.outcome_detail;
    EXPECT_NE(row.outcome, core::FaultOutcome::Crashed) << row.outcome_detail;
  }
  EXPECT_TRUE(found);
}

TEST(BatchCampaign, ReferenceSubjectByteIdentical) {
  const auto built = sim::build_circuit(drivers::parse_mdl_file(kAssets + "/power_supply.mdl"));
  const auto workbook = drivers::DriverRegistry::global().open(kAssets + "/reliability_workbook");
  const auto reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  expect_identity_matrix("power_supply.mdl", built, reliability, options);
}

// Outside the shipped subjects the byte-identity contract rests on these:
// seeded general netlists (campaign_subjects::random_general_circuit), each
// against its naive reference at jobs 1 and 4 three ways — the default
// campaign (a dense factor on these small systems), the dense-factor one
// (`sparse = false`), and one with the sparse factor forced on, so the
// sparse nominal factor, the refactor branch and the low-rank branch all run
// on small systems. A failing seed is a fast-path bug: fix the fast path,
// never drop the seed.
void expect_general_circuits_identical(std::uint32_t first, std::uint32_t last) {
  const core::ReliabilityModel reliability = random_general_reliability();
  for (std::uint32_t seed = first; seed <= last; ++seed) {
    const std::string subject = "general-" + std::to_string(seed);
    const sim::BuiltCircuit built = random_general_circuit(seed);
    const CampaignOutput reference = run_campaign(built, reliability, naive({}));
    for (const int jobs : {1, 4}) {
      core::CircuitFmeaOptions options;
      options.jobs = jobs;
      expect_matches_reference(subject, reference, built, reliability, options);
      options.sparse = false;
      expect_matches_reference(subject, reference, built, reliability, options);
      options.sparse = true;
      options.solver.sparse_min_dim = 1;
      options.solver.sparse_max_fill = 1.0;  // a handful of unknowns is a dense pattern
      expect_matches_reference(subject + " (sparse factor)", reference, built, reliability,
                               options);
    }
  }
}

TEST(BatchCampaign, RandomGeneralCircuitsByteIdenticalSeeds1To120) {
  expect_general_circuits_identical(1, 120);
}

TEST(BatchCampaign, RandomGeneralCircuitsByteIdenticalSeeds121To240) {
  expect_general_circuits_identical(121, 240);
}

TEST(BatchCampaign, RandomGeneralCircuitsThatNeedEachGate) {
  // Seeds past the sweep on which the fast path diverged from naive until a
  // gate caught it: the cold-start walk (326, 1603), the junction error
  // bound (274, 582, 1040, 1548) and the reading error bound (577, 720, 759).
  for (const std::uint32_t seed : {326u, 1603u, 274u, 582u, 1040u, 1548u, 577u, 720u, 759u}) {
    expect_general_circuits_identical(seed, seed);
  }
}

// The sweep past the suite's 240 seeds, for a change to the context: ~40 s
// optimised, so the suite skips it and CI runs it on its own with
// --gtest_also_run_disabled_tests.
TEST(BatchCampaign, DISABLED_RandomGeneralCircuitsWideSweep) {
  expect_general_circuits_identical(241, 3000);
}

// ------------------------------------------- journal + shard determinism --

TEST(BatchCampaign, JournalsInterchangeBetweenBatchedAndNaiveRuns) {
  // The batch flag is excluded from the campaign fingerprint, so a journal
  // written by a naive run must resume under a default run (and vice versa)
  // and still reproduce the uninterrupted bytes.
  const auto built = make_rail(6);
  const auto reliability = rail_reliability();
  const auto dir = std::filesystem::temp_directory_path() / "decisive_batch_journal_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const CampaignOutput uninterrupted = run_campaign(built, reliability, {});

  core::CircuitFmeaOptions options;
  options.execution.journal_path = (dir / "campaign.journal").string();
  // Pass 1: naive run writes the full journal.
  const CampaignOutput naive_run = run_campaign(built, reliability, naive(options));
  // Pass 2: default run replays it (everything checkpointed, nothing re-run).
  const CampaignOutput replayed = run_campaign(built, reliability, options);
  EXPECT_EQ(naive_run.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.warnings, uninterrupted.warnings);
  std::filesystem::remove_all(dir);
}

TEST(BatchCampaign, ShardedBatchedJournalsMergeToNaiveBytes) {
  const auto built = make_rail(6);
  const auto reliability = rail_reliability();
  const CampaignOutput whole = run_campaign(built, reliability, naive({}));
  const auto dir = std::filesystem::temp_directory_path() / "decisive_batch_shard_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> journals;
  for (int shard = 0; shard < 4; ++shard) {
    core::CircuitFmeaOptions options;
    options.execution.shard_index = shard;
    options.execution.shard_count = 4;
    options.execution.journal_path = (dir / ("s" + std::to_string(shard) + ".journal")).string();
    journals.push_back(options.execution.journal_path);
    (void)core::analyze_circuit(built, reliability, nullptr, options);
  }
  const auto merged = core::merge_campaign_journals(journals);
  EXPECT_EQ(write_csv(merged.to_csv()), whole.csv);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ context-level behaviour --
// Every case runs against both factor kinds.

TEST(BatchContext, EligibilityFollowsTheFaultTaxonomy) {
  const auto built = mcu_rig();
  for (const bool sparse : {false, true}) {
    const sim::CampaignContext context = make_context(built.circuit, factor_options(sparse));
    ASSERT_TRUE(context.usable());
    EXPECT_EQ(context.sparse_factor(), sparse);
    const sim::Circuit& c = built.circuit;
    // Conductance-delta faults on two-terminal passives are low-rank.
    EXPECT_TRUE(eligible(context, c, {"R1", sim::FaultKind::Open}));
    EXPECT_TRUE(eligible(context, c, {"R1", sim::FaultKind::Short}));
    EXPECT_TRUE(eligible(context, c, {"R1", sim::FaultKind::Drift}));
    // VSource Open/Short delete the branch unknown: structural.
    EXPECT_FALSE(eligible(context, c, {"V1", sim::FaultKind::Open}));
    EXPECT_FALSE(eligible(context, c, {"V1", sim::FaultKind::Short}));
    // ...but value-only faults on the same source keep the structure.
    EXPECT_TRUE(eligible(context, c, {"V1", sim::FaultKind::Drift}));
    EXPECT_TRUE(eligible(context, c, {"V1", sim::FaultKind::StuckOff}));
    // MCU faults never touch the matrix (reading-only / RHS-only).
    EXPECT_TRUE(eligible(context, c, {"MC1", sim::FaultKind::RamFailure}));
    EXPECT_TRUE(eligible(context, c, {"MC1", sim::FaultKind::Drift}));
  }
}

TEST(BatchContext, SolvedFaultAgreesWithFreshSolve) {
  const auto built = make_rail(4);
  for (const bool sparse : {false, true}) {
    const sim::SolveOptions options = factor_options(sparse);
    const sim::CampaignContext context = make_context(built.circuit, options);
    ASSERT_TRUE(context.usable());
    ASSERT_EQ(context.sparse_factor(), sparse);
    sim::CampaignContext::Workspace ws;
    for (const sim::Fault& fault : {sim::Fault{"R2", sim::FaultKind::Open},
                                    sim::Fault{"R2", sim::FaultKind::Short},
                                    sim::Fault{"RL1", sim::FaultKind::Drift},
                                    sim::Fault{"D3", sim::FaultKind::Short}}) {
      const std::string what = fault.element + "/" + std::string(to_string(fault.kind)) +
                               " sparse=" + std::to_string(sparse);
      const sim::Circuit faulted = sim::inject_fault(built.circuit, fault);
      const sim::CampaignSolve solve = try_solve(context, built.circuit, fault, ws);
      ASSERT_TRUE(solve.solved) << what << ": " << to_string(solve.lowrank);
      EXPECT_EQ(solve.lowrank, sim::BatchOutcome::Solved) << what;
      EXPECT_FALSE(solve.refactor.has_value()) << what;
      EXPECT_TRUE(solve.diagnostics.converged) << what;
      expect_readings_match(context, built.circuit, solve,
                            sim::dc_operating_point(faulted, options), what);
    }
  }
}

TEST(BatchContext, StructuralFaultReportsStructuralFallback) {
  // A shorted source deletes its branch unknown. The low-rank branch never
  // takes it; a dense factor hands it straight back, a sparse one absorbs it
  // through partial_factor against the nominal symbolic.
  const auto built = make_rail(4);
  const sim::Fault fault{"V1", sim::FaultKind::Short};
  const sim::Circuit faulted = sim::inject_fault(built.circuit, fault);
  for (const bool sparse : {false, true}) {
    const sim::SolveOptions options = factor_options(sparse);
    const sim::CampaignContext context = make_context(built.circuit, options);
    ASSERT_TRUE(context.usable());
    sim::CampaignContext::Workspace ws;
    auto& partial = obs::Registry::global().counter("decisive_sparse_partial_refactors_total");
    const std::uint64_t partial0 = partial.value();
    const sim::CampaignSolve solve = try_solve(context, built.circuit, fault, ws);
    EXPECT_EQ(solve.lowrank, sim::BatchOutcome::Structural) << "sparse=" << sparse;
    if (!sparse) {
      EXPECT_FALSE(solve.solved);
      EXPECT_FALSE(solve.refactor.has_value());
      continue;
    }
    ASSERT_TRUE(solve.refactor.has_value());
    EXPECT_EQ(*solve.refactor, sim::BatchOutcome::Solved);
    ASSERT_TRUE(solve.solved);
    EXPECT_GT(partial.value(), partial0);
    expect_readings_match(context, built.circuit, solve,
                          sim::dc_operating_point(faulted, options), "V1/Short");
  }
}

TEST(BatchContext, UnsolvableNominalDisablesTheContext) {
  // Contradictory sources: the nominal system is singular, so the context
  // must construct unusable and refuse every solve instead of throwing.
  // It has no baseline to give, so the context gets a point of zeros.
  sim::Circuit c;
  const int a = c.node("a");
  c.add_vsource("V1", a, 0, 12.0);
  c.add_vsource("V2", a, 0, 5.0);
  c.add_resistor("R1", a, 0, 100.0);
  sim::OperatingPoint zero;
  zero.node_voltage.assign(static_cast<std::size_t>(c.node_count()), 0.0);
  for (const bool sparse : {false, true}) {
    const sim::CampaignContext context(c, zero, factor_options(sparse));
    EXPECT_FALSE(context.usable()) << "sparse=" << sparse;
    sim::CampaignContext::Workspace ws;
    const sim::CampaignSolve solve = try_solve(context, c, {"R1", sim::FaultKind::Open}, ws);
    EXPECT_FALSE(solve.solved);
    EXPECT_EQ(solve.lowrank, sim::BatchOutcome::Disabled);
  }
}

TEST(BatchContext, FaultThatRemovesAReadingMatchesNaive) {
  // An opened MCU is a plain resistor: its status reading is gone from the
  // faulted circuit. The context leaves that slot empty, fills every other
  // one, and the campaign row equals the naive one.
  const auto built = mcu_rig();
  const sim::Fault fault{"MC1", sim::FaultKind::Open};
  const sim::Circuit faulted = sim::inject_fault(built.circuit, fault);
  ASSERT_EQ(sim::dc_operating_point(faulted).readings.count("MC1"), 0u);
  for (const bool sparse : {false, true}) {
    const sim::SolveOptions options = factor_options(sparse);
    const sim::CampaignContext context = make_context(built.circuit, options);
    ASSERT_TRUE(context.usable());
    sim::CampaignContext::Workspace ws;
    const sim::CampaignSolve solve = try_solve(context, built.circuit, fault, ws);
    ASSERT_TRUE(solve.solved) << "sparse=" << sparse << ": " << to_string(solve.lowrank);
    EXPECT_EQ(solve.lowrank, sim::BatchOutcome::Solved) << "sparse=" << sparse;
    expect_readings_match(context, built.circuit, solve,
                          sim::dc_operating_point(faulted, options),
                          "MC1/Open sparse=" + std::to_string(sparse));
  }

  core::ReliabilityModel reliability;
  reliability.add("Mcu", 20.0, {{"Open", 1.0}});
  auto& batched = obs::Registry::global().counter("decisive_campaign_batched_rows_total");
  const std::uint64_t batched0 = batched.value();
  const CampaignOutput fast = run_campaign(built, reliability, {});
  EXPECT_EQ(batched.value() - batched0, 1u) << "the fast path did not take the row";
  const CampaignOutput reference = run_campaign(built, reliability, naive({}));
  EXPECT_EQ(fast.csv, reference.csv);
  EXPECT_EQ(fast.warnings, reference.warnings);
}

namespace {

/// Every fault the taxonomy gives each element of `nominal`, in element
/// order.
std::vector<ResolvedFault> every_fault(const sim::Circuit& nominal) {
  std::vector<ResolvedFault> faults;
  const auto& elements = nominal.elements();
  for (std::size_t i = 0; i < elements.size(); ++i) {
    for (const sim::FaultKind kind :
         {sim::FaultKind::Open, sim::FaultKind::Short, sim::FaultKind::StuckOff,
          sim::FaultKind::Drift, sim::FaultKind::RamFailure}) {
      try {
        faults.push_back({i, sim::faulted_element(elements[i], kind, sim::kDefaultDriftFactor,
                                                  1e12, 1e-3)});
      } catch (const AnalysisError&) {
        // Not applicable to this element kind.
      }
    }
  }
  return faults;
}

/// Everything a solve reports but its wall time, doubles as bit patterns.
std::string solve_record(const sim::CampaignSolve& solve) {
  std::ostringstream out;
  out << std::hex << "solved " << solve.solved << " lowrank " << to_string(solve.lowrank)
      << " refactor " << (solve.refactor ? to_string(*solve.refactor) : "none")
      << " converged " << solve.diagnostics.converged << " rung "
      << solve.diagnostics.ladder_rung << " iterations " << solve.diagnostics.iterations
      << " residual " << std::bit_cast<std::uint64_t>(solve.diagnostics.residual)
      << " failure " << to_string(solve.diagnostics.failure) << " readings";
  for (const double r : solve.readings) out << ' ' << std::bit_cast<std::uint64_t>(r);
  out << " errors";
  for (const double e : solve.reading_error) out << ' ' << std::bit_cast<std::uint64_t>(e);
  return out.str();
}

/// What a subject's faults exercised: solved faults, and faults the
/// refactor branch took.
struct Exercised {
  int solved = 0;
  int refactored = 0;
};

/// Solves every fault of `nominal` three ways: through one workspace in
/// fault order, through it again in reverse order, and each through a
/// fresh workspace. A workspace keeps buffers, never results: every record
/// must agree bit for bit.
Exercised expect_workspace_stateless(const std::string& subject, const sim::Circuit& nominal,
                                     const sim::SolveOptions& options) {
  const sim::CampaignContext context = make_context(nominal, options);
  EXPECT_TRUE(context.usable()) << subject;
  const std::vector<ResolvedFault> faults = every_fault(nominal);
  std::vector<std::string> fresh;
  Exercised exercised;
  for (const ResolvedFault& f : faults) {
    sim::CampaignContext::Workspace ws;
    const sim::CampaignSolve& solve = context.try_solve(f.index, f.failed, ws);
    exercised.solved += solve.solved ? 1 : 0;
    exercised.refactored += solve.refactor.has_value() ? 1 : 0;
    fresh.push_back(solve_record(solve));
  }
  sim::CampaignContext::Workspace ws;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(solve_record(context.try_solve(faults[i].index, faults[i].failed, ws)), fresh[i])
        << subject << " fault " << i << " in order";
  }
  for (std::size_t i = faults.size(); i-- > 0;) {
    EXPECT_EQ(solve_record(context.try_solve(faults[i].index, faults[i].failed, ws)), fresh[i])
        << subject << " fault " << i << " in reverse order";
  }
  return exercised;
}

}  // namespace

TEST(BatchContext, ReusedWorkspaceIsStateless) {
  const auto rail = make_rail(48);
  const sim::SolveOptions defaults;
  ASSERT_TRUE(make_context(rail.circuit, defaults).sparse_factor());
  const Exercised on_rail = expect_workspace_stateless("rail-48", rail.circuit, defaults);
  EXPECT_GT(on_rail.solved, 0);
  EXPECT_GT(on_rail.refactored, 0);

  const auto power_supply =
      sim::build_circuit(drivers::parse_mdl_file(kAssets + "/power_supply.mdl"));
  ASSERT_FALSE(make_context(power_supply.circuit, defaults).sparse_factor());
  EXPECT_GT(
      expect_workspace_stateless("power_supply.mdl", power_supply.circuit, defaults).solved, 0);

  // Both factor kinds, so the refactor branch's plan and factor are reused
  // across faults too.
  Exercised general;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    const sim::BuiltCircuit built = random_general_circuit(seed);
    for (const bool sparse : {false, true}) {
      const Exercised one = expect_workspace_stateless(
          "general-" + std::to_string(seed) + (sparse ? " (sparse factor)" : ""), built.circuit,
          factor_options(sparse));
      general.solved += one.solved;
      general.refactored += one.refactored;
    }
  }
  EXPECT_GT(general.solved, 0);
  EXPECT_GT(general.refactored, 0);
}

// ------------------------------------- Sherman–Morrison numerical ground --

TEST(ShermanMorrison, AgreesWithFreshFactorisationOnRandomRankOneUpdates) {
  // For randomized diagonally-dominant systems and random rank-1 node-pair
  // perturbations g*u*u^T (u = e_a - e_b, the shape every conductance delta
  // takes), the update formula against the nominal factorisation must match
  // a fresh factorisation of the perturbed matrix.
  Rng rng(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 3 + rng.below(8);
    std::vector<std::vector<double>> a(n, std::vector<double>(n));
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      double row_sum = 0.0;
      for (size_t j = 0; j < n; ++j) {
        a[i][j] = rng.uniform(-1.0, 1.0);
        row_sum += std::abs(a[i][j]);
      }
      a[i][i] = row_sum + 1.0;  // strict diagonal dominance: never singular
      b[i] = rng.uniform(-5.0, 5.0);
    }
    const size_t pa = rng.below(n);
    size_t pb = rng.below(n);
    while (pb == pa) pb = rng.below(n);
    const double g = rng.uniform(0.1, 10.0);

    // Fresh factorisation of the perturbed system.
    auto perturbed = a;
    perturbed[pa][pa] += g;
    perturbed[pb][pb] += g;
    perturbed[pa][pb] -= g;
    perturbed[pb][pa] -= g;
    const auto fresh = oracle::solve_dense(perturbed, b);

    // Sherman–Morrison against the nominal factorisation.
    sim::dense::LuFactorization lu;
    auto& buffer = lu.reset(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) buffer[i * n + j] = a[i][j];
    }
    lu.factor("singular test system");
    std::vector<double> u(n, 0.0);
    u[pa] = 1.0;
    u[pb] = -1.0;
    std::vector<double> z = u;
    std::vector<double> zb = b;
    lu.solve_in_place(z.data());
    lu.solve_in_place(zb.data());
    const double denom = 1.0 + g * (z[pa] - z[pb]);
    ASSERT_GT(std::abs(denom), 1e-12);
    const double w = g * (zb[pa] - zb[pb]) / denom;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(zb[i] - w * z[i], fresh[i], 1e-8 * (1.0 + std::abs(fresh[i])))
          << "trial " << trial << " component " << i;
    }
  }
}
