// Unit tests for the FMEDA result model and ISO 26262 architecture metrics
// (paper Equation 1 and the SPFM targets).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/campaign.hpp"
#include "decisive/core/fmeda.hpp"
#include "decisive/core/sm_search.hpp"

using namespace decisive;
using namespace decisive::core;

namespace {

FmedaRow row(const char* component, double fit, const char* mode, double dist, bool sr,
             double coverage = 0.0) {
  FmedaRow r;
  r.component = component;
  r.component_type = component;
  r.fit = fit;
  r.failure_mode = mode;
  r.distribution = dist;
  r.safety_related = sr;
  r.effect = sr ? EffectClass::DVF : EffectClass::None;
  if (coverage > 0.0) {
    r.safety_mechanism = "SM";
    r.sm_coverage = coverage;
  }
  return r;
}

/// The paper's Table IV rows.
FmedaResult paper_fmeda(bool with_ecc) {
  FmedaResult result;
  result.rows = {
      row("D1", 10, "Open", 0.30, true),
      row("D1", 10, "Short", 0.70, false),
      row("L1", 15, "Open", 0.30, true),
      row("L1", 15, "Short", 0.70, false),
      row("MC1", 300, "RAM Failure", 1.00, true, with_ecc ? 0.99 : 0.0),
  };
  return result;
}

}  // namespace

TEST(FmedaRow, ModeAndResidualFit) {
  const FmedaRow r = row("D1", 10, "Open", 0.30, true, 0.90);
  EXPECT_DOUBLE_EQ(r.mode_fit(), 3.0);
  EXPECT_NEAR(r.single_point_fit(), 0.3, 1e-12);
  const FmedaRow none = row("D1", 10, "Short", 0.70, false);
  EXPECT_DOUBLE_EQ(none.single_point_fit(), 0.0);  // not safety-related
}

TEST(Fmeda, PaperSpfmBeforeMechanisms) {
  const auto result = paper_fmeda(false);
  EXPECT_DOUBLE_EQ(result.total_safety_related_fit(), 325.0);
  EXPECT_DOUBLE_EQ(result.single_point_fit(), 307.5);
  EXPECT_NEAR(result.spfm(), 0.0538, 5e-4);
}

TEST(Fmeda, PaperSpfmWithEcc) {
  const auto result = paper_fmeda(true);
  EXPECT_DOUBLE_EQ(result.single_point_fit(), 10.5);
  EXPECT_NEAR(result.spfm(), 0.9677, 5e-4);
  EXPECT_EQ(achieved_asil(result.spfm()), "ASIL-B");
}

TEST(Fmeda, SafetyRelatedComponentsDeduplicated) {
  auto result = paper_fmeda(false);
  result.rows.push_back(row("D1", 10, "Drift", 0.0, true));
  EXPECT_EQ(result.safety_related_components(),
            (std::vector<std::string>{"D1", "L1", "MC1"}));
  // The denominator counts D1's FIT once even with two safety-related rows.
  EXPECT_DOUBLE_EQ(result.total_safety_related_fit(), 325.0);
}

TEST(Fmeda, DuplicateNamesWithDistinctIdentityCountSeparately) {
  // Two different components both displayed as "Regulator" (e.g. the same
  // block type at two recursion levels). Name-keyed aggregation would count
  // the FIT once; identity-keyed aggregation must not.
  FmedaResult result;
  auto r1 = row("Regulator", 100, "Open", 1.0, true);
  r1.component_id = 11;
  auto r2 = row("Regulator", 40, "Open", 1.0, true);
  r2.component_id = 22;
  result.rows = {r1, r2};

  EXPECT_DOUBLE_EQ(result.total_safety_related_fit(), 140.0);
  EXPECT_EQ(result.safety_related_components(),
            (std::vector<std::string>{"Regulator", "Regulator"}));
  EXPECT_EQ(result.rows_of("Regulator").size(), 2u);       // by display name
  EXPECT_EQ(result.rows_of(std::uint64_t{11}).size(), 1u);  // by identity
  EXPECT_DOUBLE_EQ(result.rows_of(std::uint64_t{22})[0]->fit, 40.0);

  // Two safety-related rows of the SAME identity still count the FIT once.
  auto r3 = row("Regulator", 100, "Short", 0.5, true);
  r3.component_id = 11;
  result.rows.push_back(r3);
  EXPECT_DOUBLE_EQ(result.total_safety_related_fit(), 140.0);
}

TEST(Fmeda, EmptyOrNonSafetyResultHasSpfmOne) {
  // Documented convention: an empty denominator reports SPFM = 1.0, and
  // asil_label() surfaces the degenerate case instead of claiming ASIL-D.
  FmedaResult empty;
  EXPECT_DOUBLE_EQ(empty.spfm(), 1.0);
  EXPECT_FALSE(empty.has_safety_related());
  EXPECT_EQ(empty.asil_label(), "no safety-related hardware");
  FmedaResult benign;
  benign.rows = {row("C1", 2, "Open", 0.3, false)};
  EXPECT_DOUBLE_EQ(benign.spfm(), 1.0);
  EXPECT_EQ(benign.asil_label(), "no safety-related hardware");
}

TEST(Fmeda, AsilLabelMatchesAchievedAsilWhenSafetyRelated) {
  const auto result = paper_fmeda(true);
  ASSERT_TRUE(result.has_safety_related());
  EXPECT_EQ(result.asil_label(), achieved_asil(result.spfm()));
  EXPECT_EQ(result.asil_label(), "ASIL-B");
}

TEST(Fmeda, RowsOfFiltersByComponent) {
  const auto result = paper_fmeda(false);
  EXPECT_EQ(result.rows_of("D1").size(), 2u);
  EXPECT_EQ(result.rows_of("MC1").size(), 1u);
  EXPECT_TRUE(result.rows_of("nope").empty());
}

TEST(Fmeda, CsvExportIsMachineReadable) {
  const auto table = paper_fmeda(true).to_csv();
  EXPECT_EQ(table.rows.size(), 5u);
  EXPECT_GE(table.column("Single_Point_FIT"), 0);
  EXPECT_EQ(table.at(4, "Safety_Mechanism"), "SM");
  EXPECT_EQ(table.at(4, "Single_Point_FIT"), "3");
  EXPECT_EQ(table.at(0, "FIT"), "10");  // repeated on every row
}

TEST(Fmeda, TextExportMatchesPaperLayout) {
  const std::string text = paper_fmeda(true).to_text().render();
  EXPECT_NE(text.find("Single_Point_Failure_Rate"), std::string::npos);
  EXPECT_NE(text.find("3 FIT"), std::string::npos);
  EXPECT_NE(text.find("4.5 FIT"), std::string::npos);
}

// ------------------------------------------------------------ ASIL targets --

TEST(Asil, TargetsPerLevel) {
  EXPECT_DOUBLE_EQ(spfm_target("ASIL-B"), 0.90);
  EXPECT_DOUBLE_EQ(spfm_target("ASIL-C"), 0.97);
  EXPECT_DOUBLE_EQ(spfm_target("ASIL-D"), 0.99);
  EXPECT_DOUBLE_EQ(spfm_target("ASIL-A"), 0.0);
  EXPECT_DOUBLE_EQ(spfm_target("QM"), 0.0);
  EXPECT_DOUBLE_EQ(spfm_target("b"), 0.90);       // case-insensitive
  EXPECT_DOUBLE_EQ(spfm_target("ASIL D"), 0.99);  // space form
  EXPECT_THROW(spfm_target("ASIL-E"), AnalysisError);
}

TEST(Asil, MeetsAndAchieved) {
  EXPECT_TRUE(meets_asil(0.95, "ASIL-B"));
  EXPECT_FALSE(meets_asil(0.95, "ASIL-C"));
  EXPECT_EQ(achieved_asil(0.995), "ASIL-D");
  EXPECT_EQ(achieved_asil(0.98), "ASIL-C");
  EXPECT_EQ(achieved_asil(0.9), "ASIL-B");
  EXPECT_EQ(achieved_asil(0.3), "ASIL-A");
}

TEST(EffectClass, Names) {
  EXPECT_EQ(to_string(EffectClass::DVF), "DVF");
  EXPECT_EQ(to_string(EffectClass::IVF), "IVF");
  EXPECT_EQ(to_string(EffectClass::None), "");
}

// ---------------------------------------------------------------- outcomes --

namespace {

FmedaRow outcome_row(FaultOutcome outcome, int retries = 0) {
  FmedaRow r = row("MC1", 300, "RAM Failure", 1.0, true);
  r.outcome = outcome;
  r.outcome_detail = "detail";
  r.retries = retries;
  return r;
}

}  // namespace

/// The display warning is *derived* from the structured outcome (single
/// source of truth), so for every variant the warning text, the CSV's
/// Fault_Outcome column and the structured row must agree — and the
/// conservative "marked safety-related" phrasing must appear exactly on the
/// outcomes that force the conservative classification.
TEST(FaultOutcomes, WarningAndCsvAgreeOnEveryVariant) {
  for (size_t i = 0; i < kFaultOutcomeCount; ++i) {
    const auto outcome = static_cast<FaultOutcome>(i);
    const FmedaRow r = outcome_row(outcome);
    const std::string warning = outcome_warning(r);

    FmedaResult result;
    result.rows = {r};
    const CsvTable table = result.to_csv();
    EXPECT_EQ(table.at(0, "Fault_Outcome"), std::string(to_string(outcome)));

    switch (outcome) {
      case FaultOutcome::Converged:
        EXPECT_TRUE(warning.empty());
        break;
      case FaultOutcome::RecoveredViaLadder:
        EXPECT_NE(warning.find("recovery ladder"), std::string::npos);
        EXPECT_EQ(warning.find("conservatively marked"), std::string::npos);
        break;
      case FaultOutcome::BudgetExhausted:
        EXPECT_NE(warning.find("exhausted the solve budget"), std::string::npos);
        EXPECT_NE(warning.find("conservatively marked safety-related"), std::string::npos);
        break;
      case FaultOutcome::Singular:
        EXPECT_NE(warning.find("singular system"), std::string::npos);
        EXPECT_NE(warning.find("conservatively marked safety-related"), std::string::npos);
        break;
      case FaultOutcome::NotApplicable:
        EXPECT_NE(warning.find("failure mode 'RAM Failure'"), std::string::npos);
        break;
      case FaultOutcome::Crashed:
        EXPECT_NE(warning.find("crashed its campaign worker"), std::string::npos);
        EXPECT_NE(warning.find("conservatively marked safety-related"), std::string::npos);
        break;
    }
    // Every non-Converged outcome carries its structured detail into the
    // warning; the warning never invents information the row lacks.
    if (outcome != FaultOutcome::Converged) {
      EXPECT_NE(warning.find(r.outcome_detail.empty() ? "" : "detail"),
                std::string::npos);
    }
  }
}

TEST(FaultOutcomes, RetriedRowsAnnotateTheWarning) {
  // A retried-but-converged row still warns (the retry is an anomaly worth
  // surfacing), and a retried failure appends the count to its warning.
  const std::string converged = outcome_warning(outcome_row(FaultOutcome::Converged, 1));
  EXPECT_NE(converged.find("took 1 containment retry"), std::string::npos);
  const std::string crashed = outcome_warning(outcome_row(FaultOutcome::Crashed, 2));
  EXPECT_NE(crashed.find("crashed its campaign worker"), std::string::npos);
  EXPECT_NE(crashed.find("took 2 containment retries"), std::string::npos);
}

TEST(FaultOutcomes, NamesAndSummaryCoverEveryVariant) {
  EXPECT_EQ(to_string(FaultOutcome::Crashed), "Crashed");
  FmedaResult result;
  result.rows = {outcome_row(FaultOutcome::Converged), outcome_row(FaultOutcome::Crashed)};
  const std::string summary = result.outcome_summary();
  EXPECT_NE(summary.find("1 converged"), std::string::npos);
  EXPECT_NE(summary.find("1 crashed"), std::string::npos);
  const auto counts = result.outcome_counts();
  EXPECT_EQ(counts[static_cast<size_t>(FaultOutcome::Crashed)], 1u);
}

// -------------------------------------------------------------- properties --

/// Property: SPFM is always in [0, 1] and monotonically non-decreasing in
/// any row's diagnostic coverage.
class SpfmProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpfmProperty, BoundsAndCoverageMonotonicity) {
  // Build a pseudo-random FMEDA from the seed.
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  FmedaResult result;
  const int components = 2 + static_cast<int>(rng.below(6));
  for (int c = 0; c < components; ++c) {
    const double fit = 1.0 + rng.uniform() * 500.0;
    const int modes = 1 + static_cast<int>(rng.below(3));
    double remaining = 1.0;
    for (int m = 0; m < modes; ++m) {
      const double dist = m == modes - 1 ? remaining : remaining * rng.uniform();
      remaining -= dist;
      result.rows.push_back(row(("c" + std::to_string(c)).c_str(), fit,
                                ("m" + std::to_string(m)).c_str(), dist, rng.chance(0.6),
                                rng.chance(0.5) ? rng.uniform() : 0.0));
    }
  }

  const double base = result.spfm();
  EXPECT_GE(base, 0.0);
  EXPECT_LE(base, 1.0);

  // Raising coverage on any safety-related row must not lower the SPFM.
  for (size_t i = 0; i < result.rows.size(); ++i) {
    if (!result.rows[i].safety_related) continue;
    FmedaResult improved = result;
    improved.rows[i].sm_coverage = std::min(1.0, improved.rows[i].sm_coverage + 0.2);
    EXPECT_GE(improved.spfm() + 1e-12, base);
  }

  // Perfect coverage everywhere yields SPFM == 1.
  FmedaResult perfect = result;
  for (auto& r : perfect.rows) {
    r.sm_coverage = 1.0;
  }
  EXPECT_NEAR(perfect.spfm(), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfmProperty, ::testing::Range(1, 26));

namespace {

/// The identity filter as it was written with a std::set: each component
/// identity's first safety-related row, keyed (id, "") or, for id 0,
/// (0, display name).
struct SetReference {
  std::vector<std::string> names;
  double fit = 0.0;
};

SetReference set_reference(const FmedaResult& result) {
  SetReference out;
  std::set<std::pair<std::uint64_t, std::string>> seen;
  for (const auto& r : result.rows) {
    const std::pair<std::uint64_t, std::string> key{
        r.component_id, r.component_id == 0 ? r.component : std::string()};
    if (r.safety_related && seen.insert(key).second) {
      out.names.push_back(r.component);
      out.fit += r.fit;
    }
  }
  return out;
}

}  // namespace

TEST_P(SpfmProperty, IdentityFilterMatchesTheStdSetReference) {
  // Random rows mixing model ids and id-0 (circuit) rows: ids repeat out of
  // order, names repeat under id 0 and across ids, and one id is huge.
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919u);
  FmedaResult result;
  const size_t count = 1 + rng.below(400);
  for (size_t i = 0; i < count; ++i) {
    FmedaRow r = row(("c" + std::to_string(rng.below(12))).c_str(), rng.uniform(0.1, 90.0),
                     "Open", rng.uniform(), rng.chance(0.7));
    switch (rng.below(4)) {
      case 0: r.component_id = 0; break;
      case 1: r.component_id = std::numeric_limits<std::uint64_t>::max() - rng.below(3); break;
      default: r.component_id = 1 + rng.below(40); break;
    }
    result.rows.push_back(r);
  }
  const SetReference reference = set_reference(result);
  EXPECT_EQ(result.safety_related_components(), reference.names);
  EXPECT_EQ(result.safety_related_component_count(), reference.names.size());
  // Same rows summed in the same order: the same bits.
  EXPECT_EQ(result.total_safety_related_fit(), reference.fit);
}

TEST(Fmeda, SpfmClampsAtZeroWhenRoundingGoesBelow) {
  // Undeployed, every mode safety-related, fractional FITs split over two
  // half-share modes: Σ residual rounds a hair above Σ FIT, and the
  // unclamped metric reads −2.2e-16, which printed as "-0.0000%".
  FmedaResult result;
  for (const auto& [name, fit] : {std::pair{"A", 0.1}, std::pair{"B", 0.35}}) {
    result.rows.push_back(row(name, fit, "Open", 0.5, true));
    result.rows.push_back(row(name, fit, "Short", 0.5, true));
  }
  ASSERT_LT(1.0 - result.single_point_fit() / result.total_safety_related_fit(), 0.0);
  EXPECT_EQ(result.spfm(), 0.0);
  EXPECT_FALSE(std::signbit(result.spfm()));
  EXPECT_EQ(format_percent(result.spfm(), 4), "0.0000%");

  // The deployment search's evaluator clamps the same way: the undeployed
  // point of the front prints 0.0000%.
  SafetyMechanismModel catalogue;
  catalogue.add({"A", "Open", "Monitor", 0.9, 1.0});
  const auto front = pareto_front(result, catalogue);
  ASSERT_FALSE(front.empty());
  EXPECT_TRUE(front.front().choices.empty());
  EXPECT_EQ(front_to_csv(result, front).rows.front()[1], "0.0000%");
}
