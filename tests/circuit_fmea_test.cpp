// Tests for the fault-injection FMEA on circuit models, including the exact
// reproduction of the paper's Section V case study (Table IV).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "decisive/base/error.hpp"
#include "decisive/core/campaign.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/sim/builder.hpp"

using namespace decisive;
using namespace decisive::core;

namespace {

const std::string kAssets = DECISIVE_ASSETS_DIR;

struct CaseStudy {
  sim::BuiltCircuit built;
  ReliabilityModel reliability;
  SafetyMechanismModel sm_model;
  CircuitFmeaOptions options;

  CaseStudy() {
    built = sim::build_circuit(drivers::parse_mdl_file(kAssets + "/power_supply.mdl"));
    const auto workbook =
        drivers::DriverRegistry::global().open(kAssets + "/reliability_workbook");
    reliability = ReliabilityModel::from_source(*workbook, "Reliability");
    sm_model = SafetyMechanismModel::from_source(*workbook, "SafetyMechanisms");
    options.safety_goal_observables = {"CS1", "MC1"};
  }
};

const FmedaRow* find_row(const FmedaResult& result, const std::string& component,
                         const std::string& mode) {
  for (const auto& row : result.rows) {
    if (row.component == component && row.failure_mode == mode) return &row;
  }
  return nullptr;
}

}  // namespace

TEST(ObservableDeviation, RelativeWithFloor) {
  EXPECT_NEAR(observable_deviation(1.0, 1.1, 1e-6), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(observable_deviation(0.0, 1.0, 1.0), 1.0);  // floor applies
  EXPECT_DOUBLE_EQ(observable_deviation(2.0, 2.0, 1e-6), 0.0);
}

TEST(CircuitFmea, CaseStudySafetyRelatedSetMatchesPaper) {
  const CaseStudy cs;
  const auto fmea = analyze_circuit(cs.built, cs.reliability, nullptr, cs.options);
  EXPECT_EQ(fmea.safety_related_components(),
            (std::vector<std::string>{"D1", "L1", "MC1"}));
  EXPECT_NEAR(fmea.spfm(), 0.0538, 5e-4);
}

TEST(CircuitFmea, CaseStudyFmedaMatchesTableIv) {
  const CaseStudy cs;
  const auto fmeda = analyze_circuit(cs.built, cs.reliability, &cs.sm_model, cs.options);

  const auto* d1_open = find_row(fmeda, "D1", "Open");
  ASSERT_NE(d1_open, nullptr);
  EXPECT_TRUE(d1_open->safety_related);
  EXPECT_DOUBLE_EQ(d1_open->single_point_fit(), 3.0);

  const auto* d1_short = find_row(fmeda, "D1", "Short");
  ASSERT_NE(d1_short, nullptr);
  EXPECT_FALSE(d1_short->safety_related);

  const auto* l1_open = find_row(fmeda, "L1", "Open");
  ASSERT_NE(l1_open, nullptr);
  EXPECT_DOUBLE_EQ(l1_open->single_point_fit(), 4.5);

  const auto* mc1 = find_row(fmeda, "MC1", "RAM Failure");
  ASSERT_NE(mc1, nullptr);
  EXPECT_EQ(mc1->safety_mechanism, "ECC");
  EXPECT_NEAR(mc1->single_point_fit(), 3.0, 1e-9);

  EXPECT_NEAR(fmeda.spfm(), 0.9677, 5e-4);
  EXPECT_TRUE(meets_asil(fmeda.spfm(), "ASIL-B"));
}

TEST(CircuitFmea, CapacitorShortIsBenignBehindEsr) {
  // The decoupling branches sit behind 10-ohm ESR resistors; a capacitor
  // short barely shifts the MCU supply current (the paper's Table IV lists
  // no capacitor as safety-related).
  const CaseStudy cs;
  const auto fmea = analyze_circuit(cs.built, cs.reliability, nullptr, cs.options);
  for (const char* cap : {"C1", "C2"}) {
    for (const char* mode : {"Open", "Short"}) {
      const auto* row = find_row(fmea, cap, mode);
      ASSERT_NE(row, nullptr) << cap << " " << mode;
      EXPECT_FALSE(row->safety_related) << cap << " " << mode;
    }
  }
}

TEST(CircuitFmea, ComponentsWithoutReliabilityAreSkippedWithWarning) {
  const CaseStudy cs;
  const auto fmea = analyze_circuit(cs.built, cs.reliability, nullptr, cs.options);
  // DC1 (source, the paper's "assume DC1 is stable") and both ESR resistors.
  size_t skipped = 0;
  for (const auto& warning : fmea.warnings) {
    if (warning.find("no reliability data") != std::string::npos) ++skipped;
  }
  EXPECT_EQ(skipped, 3u);
  EXPECT_EQ(find_row(fmea, "DC1", "Open"), nullptr);
}

TEST(CircuitFmea, EffectClassificationDvfVsIvf) {
  // With only CS1 as the safety-goal observable, the MCU RAM failure (which
  // only corrupts the MCU status output) is IVF, not DVF.
  CaseStudy cs;
  cs.options.safety_goal_observables = {"CS1"};
  const auto fmea = analyze_circuit(cs.built, cs.reliability, nullptr, cs.options);
  const auto* mc1 = find_row(fmea, "MC1", "RAM Failure");
  ASSERT_NE(mc1, nullptr);
  EXPECT_TRUE(mc1->safety_related);
  EXPECT_EQ(mc1->effect, EffectClass::IVF);
  const auto* d1 = find_row(fmea, "D1", "Open");
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(d1->effect, EffectClass::DVF);
}

TEST(CircuitFmea, ThresholdControlsSensitivity) {
  // At a very tight threshold even the diode short (a ~15% current shift)
  // becomes safety-related; at the default 20% it is benign.
  CaseStudy cs;
  cs.options.relative_threshold = 0.05;
  const auto tight = analyze_circuit(cs.built, cs.reliability, nullptr, cs.options);
  const auto* d1_short = find_row(tight, "D1", "Short");
  ASSERT_NE(d1_short, nullptr);
  EXPECT_TRUE(d1_short->safety_related);
}

TEST(CircuitFmea, OutOfRangeThresholdIsAnError) {
  // NaN compared false against every deviation (SPFM 100 %) and a negative
  // threshold made every row safety-related. Zero stays valid.
  CaseStudy cs;
  for (const double threshold :
       {std::nan(""), -0.5, std::numeric_limits<double>::infinity()}) {
    cs.options.relative_threshold = threshold;
    EXPECT_THROW(analyze_circuit(cs.built, cs.reliability, nullptr, cs.options), AnalysisError)
        << threshold;
  }
  cs.options.relative_threshold = 0.0;
  EXPECT_NO_THROW(analyze_circuit(cs.built, cs.reliability, nullptr, cs.options));
}

TEST(CircuitFmea, UnmappableFailureModeYieldsWarningRow) {
  ReliabilityModel reliability;
  reliability.add("Diode", 10, {{"Exotic quantum failure", 1.0}});
  const CaseStudy cs;
  const auto fmea = analyze_circuit(cs.built, reliability, nullptr, cs.options);
  const auto* exotic = find_row(fmea, "D1", "Exotic quantum failure");
  ASSERT_NE(exotic, nullptr);
  EXPECT_FALSE(exotic->safety_related);
  bool warned = false;
  for (const auto& warning : fmea.warnings) {
    if (warning.find("Exotic quantum failure") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(CircuitFmea, RamFailureOnNonMcuIsWarnedNotFatal) {
  // A reliability model claiming diodes have RAM failures: the injection is
  // not applicable; the analysis must survive with a warning.
  ReliabilityModel reliability;
  reliability.add("Diode", 10, {{"RAM Failure", 1.0}});
  const CaseStudy cs;
  const auto fmea = analyze_circuit(cs.built, reliability, nullptr, cs.options);
  bool warned = false;
  for (const auto& warning : fmea.warnings) {
    if (warning.find("RamFailure applies only to MCU") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(CircuitFmea, EmptyGoalSetTreatsEveryObservableAsGoal) {
  CaseStudy cs;
  cs.options.safety_goal_observables.clear();
  const auto fmea = analyze_circuit(cs.built, cs.reliability, nullptr, cs.options);
  const auto* mc1 = find_row(fmea, "MC1", "RAM Failure");
  ASSERT_NE(mc1, nullptr);
  EXPECT_EQ(mc1->effect, EffectClass::DVF);
}

TEST(CircuitFmea, EveryRowCarriesAStructuredOutcome) {
  const CaseStudy cs;
  const auto fmea = analyze_circuit(cs.built, cs.reliability, nullptr, cs.options);
  // Outcome counts partition the rows, and the case-study faults all solve
  // plainly (no ladder, no budget exhaustion, no singular systems).
  const auto counts = fmea.outcome_counts();
  size_t total = 0;
  for (const size_t count : counts) total += count;
  EXPECT_EQ(total, fmea.rows.size());
  for (const auto& row : fmea.rows) {
    EXPECT_EQ(row.outcome, FaultOutcome::Converged) << row.component << " "
                                                    << row.failure_mode;
    EXPECT_EQ(row.ladder_rung, 0);
    EXPECT_GT(row.solver_iterations, 0);
  }
  // The structured outcome reaches the CSV artefact.
  const auto csv = fmea.to_csv();
  EXPECT_NE(std::find(csv.header.begin(), csv.header.end(), "Fault_Outcome"),
            csv.header.end());
}

TEST(CircuitFmea, WarningsAreDerivedFromStructuredOutcomes) {
  // Satellite invariant: warnings are a projection of the rows, so the CSV
  // and the warning list can never disagree. Every non-empty outcome_warning
  // appears in the warnings, and every warning is either such a projection or
  // a skip notice for a component without reliability data.
  ReliabilityModel reliability;
  reliability.add("Diode", 10, {{"RAM Failure", 0.5}, {"Open", 0.5}});
  const CaseStudy cs;
  const auto fmea = analyze_circuit(cs.built, reliability, nullptr, cs.options);
  size_t derived = 0;
  for (const auto& row : fmea.rows) {
    const std::string warning = outcome_warning(row);
    if (warning.empty()) continue;
    ++derived;
    EXPECT_NE(std::find(fmea.warnings.begin(), fmea.warnings.end(), warning),
              fmea.warnings.end())
        << warning;
  }
  EXPECT_GT(derived, 0u);  // the RAM Failure on a diode is NotApplicable
  size_t skips = 0;
  for (const auto& warning : fmea.warnings) {
    if (warning.find("no reliability data") != std::string::npos) ++skips;
  }
  EXPECT_EQ(fmea.warnings.size(), skips + derived);
}

TEST(CircuitFmea, SmModelOnlyAppliesToSafetyRelatedRows) {
  CaseStudy cs;
  SafetyMechanismModel sm;
  sm.add({"Capacitor", "Short", "Useless mechanism", 0.5, 1.0});
  const auto fmeda = analyze_circuit(cs.built, cs.reliability, &sm, cs.options);
  const auto* c1_short = find_row(fmeda, "C1", "Short");
  ASSERT_NE(c1_short, nullptr);
  EXPECT_TRUE(c1_short->safety_mechanism.empty());  // not safety-related -> no SM
}
