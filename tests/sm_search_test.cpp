// Tests for automated safety-mechanism deployment: greedy target search and
// the (cost, SPFM) Pareto front.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/oracles.hpp"

using namespace decisive;
using namespace decisive::core;

namespace {

FmedaRow make_row(const char* component, double fit, const char* mode, double dist,
                  bool sr) {
  FmedaRow r;
  r.component = component;
  r.component_type = component;
  r.fit = fit;
  r.failure_mode = mode;
  r.distribution = dist;
  r.safety_related = sr;
  return r;
}

/// Three safety-related single-mode components; catalogue with options of
/// different cost/coverage.
FmedaResult sample_fmea() {
  FmedaResult f;
  f.rows = {make_row("A", 100, "Open", 1.0, true), make_row("B", 200, "Open", 1.0, true),
            make_row("C", 300, "Open", 1.0, true)};
  return f;
}

SafetyMechanismModel sample_catalogue() {
  SafetyMechanismModel cat;
  cat.add({"A", "Open", "A-cheap", 0.80, 1.0});
  cat.add({"A", "Open", "A-good", 0.99, 4.0});
  cat.add({"B", "Open", "B-only", 0.95, 2.0});
  cat.add({"C", "Open", "C-only", 0.98, 3.0});
  return cat;
}

}  // namespace

TEST(ApplyDeployment, UpdatesRows) {
  const auto fmea = sample_fmea();
  const auto cat = sample_catalogue();
  Deployment d;
  d.choices.push_back({0, cat.applicable("A", "Open")[0]});
  const auto applied = apply_deployment(fmea, d);
  EXPECT_EQ(applied.rows[0].safety_mechanism, "A-cheap");
  EXPECT_DOUBLE_EQ(applied.rows[0].sm_coverage, 0.80);
  EXPECT_TRUE(applied.rows[1].safety_mechanism.empty());
}

TEST(ApplyDeployment, InvalidRowThrows) {
  const auto fmea = sample_fmea();
  const auto cat = sample_catalogue();
  Deployment d;
  d.choices.push_back({99, cat.applicable("A", "Open")[0]});
  EXPECT_THROW(apply_deployment(fmea, d), AnalysisError);
}

TEST(Greedy, ReachesAsilB) {
  const auto fmea = sample_fmea();
  const auto cat = sample_catalogue();
  const auto deployment = greedy_reach_asil(fmea, cat, "ASIL-B");
  ASSERT_TRUE(deployment.has_value());
  EXPECT_GE(deployment->spfm, 0.90);
  const auto applied = apply_deployment(fmea, *deployment);
  EXPECT_NEAR(applied.spfm(), deployment->spfm, 1e-12);
}

TEST(Greedy, PrefersCostEffectiveMechanisms) {
  const auto fmea = sample_fmea();
  const auto cat = sample_catalogue();
  const auto deployment = greedy_reach_asil(fmea, cat, "ASIL-B");
  ASSERT_TRUE(deployment.has_value());
  // Greedy should never pay for "A-good" (4h) when "A-cheap" suffices for
  // ASIL-B.
  for (const auto& choice : deployment->choices) {
    EXPECT_NE(choice.mechanism->name, "A-good");
  }
}

TEST(Greedy, UnreachableTargetReturnsNullopt) {
  FmedaResult f;
  f.rows = {make_row("X", 1000, "Open", 1.0, true)};
  SafetyMechanismModel cat;  // empty catalogue
  EXPECT_EQ(greedy_reach_asil(f, cat, "ASIL-B"), std::nullopt);

  // Even a weak mechanism cannot reach ASIL-D coverage here.
  cat.add({"X", "Open", "weak", 0.5, 1.0});
  EXPECT_EQ(greedy_reach_asil(f, cat, "ASIL-D"), std::nullopt);
}

TEST(Greedy, AlreadyMetTargetDeploysNothing) {
  FmedaResult f;
  f.rows = {make_row("X", 100, "Open", 0.05, true)};  // SPFM = 95%
  const auto deployment = greedy_reach_asil(f, sample_catalogue(), "ASIL-B");
  ASSERT_TRUE(deployment.has_value());
  EXPECT_TRUE(deployment->choices.empty());
  EXPECT_DOUBLE_EQ(deployment->total_cost_hours, 0.0);
}

TEST(Greedy, RespectsPreDeployedMechanisms) {
  auto fmea = sample_fmea();
  fmea.rows[2].safety_mechanism = "pre-existing";
  fmea.rows[2].sm_coverage = 0.99;
  const auto deployment = greedy_reach_asil(fmea, sample_catalogue(), "ASIL-B");
  ASSERT_TRUE(deployment.has_value());
  for (const auto& choice : deployment->choices) {
    EXPECT_NE(choice.row_index, 2u);  // row 2 is fixed
  }
}

TEST(Pareto, FrontIsNonDominatedAndSorted) {
  const auto fmea = sample_fmea();
  const auto front = pareto_front(fmea, sample_catalogue());
  ASSERT_FALSE(front.empty());
  // Sorted by cost; strictly improving SPFM along the front.
  for (size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(front[i].total_cost_hours, front[i - 1].total_cost_hours);
    EXPECT_GT(front[i].spfm, front[i - 1].spfm);
  }
  // No member dominates another.
  for (const auto& a : front) {
    for (const auto& b : front) {
      if (&a != &b) {
        EXPECT_FALSE(a.dominates(b));
      }
    }
  }
  // The empty deployment (cost 0) is always on the front.
  EXPECT_DOUBLE_EQ(front.front().total_cost_hours, 0.0);
}

TEST(Pareto, ContainsTheBestAchievableSpfm) {
  const auto fmea = sample_fmea();
  const auto front = pareto_front(fmea, sample_catalogue());
  // Full deployment with the best mechanisms: A-good + B-only + C-only.
  const double best = front.back().spfm;
  FmedaResult full = sample_fmea();
  full.rows[0].sm_coverage = 0.99;
  full.rows[1].sm_coverage = 0.95;
  full.rows[2].sm_coverage = 0.98;
  for (auto& r : full.rows) r.safety_mechanism = "x";
  EXPECT_NEAR(best, full.spfm(), 1e-12);
}

TEST(Pareto, DominanceSemantics) {
  Deployment cheap_good{.choices = {}, .spfm = 0.9, .total_cost_hours = 1.0};
  Deployment pricey_bad{.choices = {}, .spfm = 0.8, .total_cost_hours = 2.0};
  Deployment pricey_best{.choices = {}, .spfm = 0.95, .total_cost_hours = 2.0};
  EXPECT_TRUE(cheap_good.dominates(pricey_bad));
  EXPECT_FALSE(pricey_bad.dominates(cheap_good));
  EXPECT_FALSE(cheap_good.dominates(pricey_best));
  EXPECT_FALSE(pricey_best.dominates(cheap_good));
  EXPECT_FALSE(cheap_good.dominates(cheap_good));
}

TEST(Pareto, CombinationGuardThrowsOnTheOracleOnly) {
  // 12 rows x 3 options = 3^12 > the tiny cap given: the exhaustive oracle
  // refuses, the DP engine completes.
  FmedaResult f;
  SafetyMechanismModel cat;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "T" + std::to_string(i);
    f.rows.push_back(make_row(name.c_str(), 10, "Open", 1.0, true));
    cat.add({name, "Open", "a", 0.9, 1.0});
    cat.add({name, "Open", "b", 0.95, 2.0});
  }
  EXPECT_THROW(pareto_front_exhaustive(f, cat, /*max_combinations=*/1000), AnalysisError);
  EXPECT_FALSE(pareto_front(f, cat).empty());
}

TEST(Pareto, NoSafetyRelatedRowsYieldsTrivialFront) {
  FmedaResult f;
  f.rows = {make_row("A", 100, "Open", 1.0, false)};
  const auto front = pareto_front(f, sample_catalogue());
  ASSERT_EQ(front.size(), 1u);
  EXPECT_DOUBLE_EQ(front[0].spfm, 1.0);
  EXPECT_TRUE(front[0].choices.empty());
}

namespace {

/// Every greedy solution cost is >= the cheapest Pareto point meeting the
/// same target (greedy is not optimal, but never better than the front),
/// and all front members stay in bounds.
void expect_greedy_consistent_with_front(const FmedaResult& f, const SafetyMechanismModel& cat) {
  const auto front = pareto_front(f, cat);
  for (const auto& d : front) {
    EXPECT_GE(d.spfm, 0.0);
    EXPECT_LE(d.spfm, 1.0);
  }
  const auto greedy = greedy_reach_asil(f, cat, "ASIL-B");
  const Deployment* cheapest = nullptr;
  for (const auto& d : front) {
    if (d.spfm >= 0.90) {
      cheapest = &d;
      break;
    }
  }
  if (greedy.has_value()) {
    ASSERT_NE(cheapest, nullptr);  // greedy found it, so the front must too
    EXPECT_GE(greedy->total_cost_hours + 1e-12, cheapest->total_cost_hours);
  } else {
    EXPECT_EQ(cheapest, nullptr);  // and vice versa
  }
}

}  // namespace

/// Property sweep over random catalogues.
class SearchProperty : public ::testing::TestWithParam<int> {};

TEST_P(SearchProperty, GreedyConsistentWithFront) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  FmedaResult f;
  SafetyMechanismModel cat;
  const int n = 2 + static_cast<int>(rng.below(5));
  for (int i = 0; i < n; ++i) {
    const std::string name = "R" + std::to_string(i);
    f.rows.push_back(make_row(name.c_str(), 10 + rng.uniform() * 200, "Open", 1.0, true));
    const int options = static_cast<int>(rng.below(3));
    for (int k = 0; k < options; ++k) {
      cat.add({name, "Open", name + "-sm" + std::to_string(k), 0.5 + rng.uniform() * 0.49,
               0.5 + rng.uniform() * 5.0});
    }
  }
  expect_greedy_consistent_with_front(f, cat);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchProperty, ::testing::Range(1, 26));

namespace {

/// Seeded random instance: <= 6 open rows, 0-3 mechanisms per row.
struct RandomInstance {
  FmedaResult fmea;
  SafetyMechanismModel catalogue;
};

RandomInstance make_random_instance(uint64_t seed) {
  Rng rng(seed);
  RandomInstance out;
  const int n = 2 + static_cast<int>(rng.below(5));
  for (int i = 0; i < n; ++i) {
    const std::string name = "R" + std::to_string(i);
    out.fmea.rows.push_back(
        make_row(name.c_str(), 10 + rng.uniform() * 200, "Open", 1.0, true));
    const int options = static_cast<int>(rng.below(4));
    for (int k = 0; k < options; ++k) {
      out.catalogue.add({name, "Open", name + "-sm" + std::to_string(k),
                         0.5 + rng.uniform() * 0.49, 0.5 + rng.uniform() * 5.0});
    }
  }
  return out;
}

/// Seeded instance that sends the catalogue's alias- and case-insensitive
/// matching through the engines: 2-3 components with two failure modes each
/// (4-6 rows), every component typed by an MCU alias or a case variant of
/// "ADC", each mode spelled in either case, 1-2 catalogue entries per
/// (type, mode) spelled the same loose way, and a low-FIT sensor row that no
/// entry matches (the one sensor entry names another mode). About half the
/// instances can reach ASIL-B.
RandomInstance make_aliased_instance(uint64_t seed) {
  static const char* const kTypes[][4] = {{"MCU", "MC", "mcu", "Microcontroller"},
                                          {"ADC", "adc", "Adc", "aDC"}};
  static const char* const kModes[][2] = {{"RAM Failure", "ram failure"},
                                          {"Clock Drift", "CLOCK DRIFT"}};
  Rng rng(seed);
  RandomInstance out;
  const int components = 2 + static_cast<int>(rng.below(2));
  for (int c = 0; c < components; ++c) {
    const std::string name = "U" + std::to_string(c);
    const char* type = kTypes[rng.below(2)][rng.below(4)];
    // Fractional FITs: two half-share modes can round the undeployed SPFM
    // below 0, which the evaluator clamps like FmedaResult::spfm().
    const double fit = 10.0 + rng.uniform() * 200.0;
    for (const auto& mode : kModes) {
      FmedaRow row = make_row(name.c_str(), fit, mode[rng.below(2)], 0.5, true);
      row.component_type = type;
      out.fmea.rows.push_back(row);
    }
  }
  FmedaRow unmatched = make_row("S0", static_cast<double>(1 + rng.below(4)), "Open", 1.0, true);
  unmatched.component_type = "Sensor";
  out.fmea.rows.push_back(unmatched);
  for (const auto& spellings : kTypes) {
    for (const auto& mode : kModes) {
      const int entries = 1 + static_cast<int>(rng.below(2));
      for (int k = 0; k < entries; ++k) {
        out.catalogue.add({spellings[rng.below(4)], mode[rng.below(2)],
                           std::string(spellings[0]) + "/" + mode[0] + "-sm" + std::to_string(k),
                           0.8 + rng.uniform() * 0.19, 0.5 + rng.uniform() * 5.0});
      }
    }
  }
  out.catalogue.add({"sensor", "Short", "Sensor/Short-sm", 0.9, 1.0});
  return out;
}

/// The DP front equals the exhaustive oracle's point by point, and every DP
/// point is a real deployment.
void expect_dp_matches_oracle(const RandomInstance& instance) {
  const auto oracle = pareto_front_exhaustive(instance.fmea, instance.catalogue);
  const auto dp = pareto_front(instance.fmea, instance.catalogue);
  ASSERT_EQ(oracle.size(), dp.size());
  for (size_t i = 0; i < dp.size(); ++i) {
    EXPECT_NEAR(dp[i].total_cost_hours, oracle[i].total_cost_hours, 1e-9) << "point " << i;
    EXPECT_NEAR(dp[i].spfm, oracle[i].spfm, 1e-12) << "point " << i;
    // Every DP point is a real deployment: re-applying it reproduces the
    // reported SPFM and cost.
    const auto applied = apply_deployment(instance.fmea, dp[i]);
    EXPECT_NEAR(applied.spfm(), dp[i].spfm, 1e-12) << "point " << i;
    double cost = 0.0;
    for (const auto& choice : dp[i].choices) cost += choice.mechanism->cost_hours;
    EXPECT_DOUBLE_EQ(cost, dp[i].total_cost_hours) << "point " << i;
  }
}

/// optimal_reach_asil is provably min-cost: never costlier than greedy, and
/// equal to the cheapest oracle front point meeting the target.
void expect_optimal_matches_oracle(const RandomInstance& instance) {
  const auto greedy = greedy_reach_asil(instance.fmea, instance.catalogue, "ASIL-B");
  const auto optimal = optimal_reach_asil(instance.fmea, instance.catalogue, "ASIL-B");
  ASSERT_EQ(greedy.has_value(), optimal.has_value());
  if (!optimal.has_value()) return;
  EXPECT_LE(optimal->total_cost_hours, greedy->total_cost_hours + 1e-9);
  EXPECT_GE(optimal->spfm, 0.90);
  const auto front = pareto_front_exhaustive(instance.fmea, instance.catalogue);
  const Deployment* cheapest = nullptr;
  for (const auto& d : front) {
    if (d.spfm >= 0.90) {
      cheapest = &d;
      break;
    }
  }
  ASSERT_NE(cheapest, nullptr);
  EXPECT_NEAR(optimal->total_cost_hours, cheapest->total_cost_hours, 1e-9);
}

}  // namespace

/// The DP engine must reproduce the seed-era exhaustive enumerator's front
/// exactly (set-identical deployments on the (cost, SPFM) plane) on every
/// random instance small enough for the oracle.
class DpOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(DpOracleProperty, DpFrontMatchesExhaustiveOracle) {
  expect_dp_matches_oracle(make_random_instance(static_cast<uint64_t>(GetParam())));
}

TEST_P(DpOracleProperty, AliasedDpFrontMatchesExhaustiveOracle) {
  expect_dp_matches_oracle(make_aliased_instance(static_cast<uint64_t>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpOracleProperty, ::testing::Range(1, 41));

class OptimalProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimalProperty, NeverCostlierThanGreedyAndMatchesFront) {
  expect_optimal_matches_oracle(make_random_instance(static_cast<uint64_t>(GetParam())));
}

TEST_P(OptimalProperty, AliasedNeverCostlierThanGreedyAndMatchesFront) {
  expect_optimal_matches_oracle(make_aliased_instance(static_cast<uint64_t>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalProperty, ::testing::Range(1, 41));

// The alias-aware instances through the greedy/front consistency property
// (its plain instances are built in the test above).
TEST_P(SearchProperty, AliasedGreedyConsistentWithFront) {
  const auto instance = make_aliased_instance(static_cast<uint64_t>(GetParam()));
  expect_greedy_consistent_with_front(instance.fmea, instance.catalogue);
}

namespace {

/// Seeded instance aimed at greedy's edge cases: 3-16 rows with fractional
/// FITs, some zero-FIT, some sharing one FIT and one mechanism (equal gain
/// per cost hour across rows), some not safety-related or already deployed;
/// types and modes spelled by MCU aliases and case variants; catalogue
/// entries with coverages and costs from small sets, including zero-cost
/// ones (the 1e18 + gain ratio) and upgrades cheaper than the pick they
/// replace; and rows no entry matches, so high targets are often out of
/// reach.
RandomInstance make_greedy_instance(uint64_t seed) {
  static const char* const kTypes[][4] = {{"MCU", "mc", "Microcontroller", "micro controller"},
                                          {"ADC", "adc", "Adc", "aDC"},
                                          {"Sensor", "sensor", "SENSOR", "Sensor"}};
  static const char* const kModes[][2] = {{"Open", "open"}, {"Drift", "DRIFT"}};
  static const double kCoverages[] = {0.6, 0.9, 0.99};
  static const double kCosts[] = {0.0, 1.0, 2.0, 4.0};
  Rng rng(seed);
  RandomInstance out;
  const int n = 3 + static_cast<int>(rng.below(14));
  for (int i = 0; i < n; ++i) {
    const std::string name = "U" + std::to_string(i);
    double fit = rng.chance(0.4) ? 20.0 : 0.5 + rng.uniform() * 150.0;
    if (rng.chance(0.12)) fit = 0.0;
    FmedaRow row = make_row(name.c_str(), fit, kModes[rng.below(2)][rng.below(2)],
                            rng.chance(0.3) ? 0.35 : 1.0, !rng.chance(0.1));
    row.component_type = kTypes[rng.below(3)][rng.below(4)];
    if (rng.chance(0.1)) {
      row.safety_mechanism = "fixed";
      row.sm_coverage = 0.5;
    }
    out.fmea.rows.push_back(row);
  }
  for (const auto& type : kTypes) {
    for (const auto& mode : kModes) {
      const int entries = static_cast<int>(rng.below(4));
      for (int k = 0; k < entries; ++k) {
        const double coverage =
            rng.chance(0.6) ? kCoverages[rng.below(3)] : 0.5 + rng.uniform() * 0.49;
        const double cost = rng.chance(0.6) ? kCosts[rng.below(4)] : rng.uniform() * 5.0;
        out.catalogue.add({type[rng.below(4)], mode[rng.below(2)],
                           std::string(type[0]) + "/" + mode[0] + "-sm" + std::to_string(k),
                           coverage, cost});
      }
    }
  }
  return out;
}

}  // namespace

// The best-move heap must reproduce the full-scan greedy it replaced bit for
// bit, and branch-and-bound (seeded with that greedy) must stay no costlier
// and fail exactly when it fails, at every ASIL target.
class GreedyOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(GreedyOracleProperty, HeapGreedyMatchesTheFullScanAtEveryTarget) {
  const auto instance = make_greedy_instance(static_cast<uint64_t>(GetParam()));
  for (const char* target : {"ASIL-A", "ASIL-B", "ASIL-C", "ASIL-D"}) {
    const auto oracle = oracle::greedy_reach_asil(instance.fmea, instance.catalogue, target);
    const auto greedy = greedy_reach_asil(instance.fmea, instance.catalogue, target);
    const auto optimal = optimal_reach_asil(instance.fmea, instance.catalogue, target);
    ASSERT_EQ(greedy.has_value(), oracle.has_value()) << target;
    ASSERT_EQ(optimal.has_value(), oracle.has_value()) << target;
    if (!oracle.has_value()) continue;
    ASSERT_EQ(greedy->choices.size(), oracle->choices.size()) << target;
    for (size_t c = 0; c < oracle->choices.size(); ++c) {
      EXPECT_EQ(greedy->choices[c].row_index, oracle->choices[c].row_index) << target;
      EXPECT_EQ(greedy->choices[c].mechanism, oracle->choices[c].mechanism) << target;
    }
    EXPECT_EQ(greedy->total_cost_hours, oracle->total_cost_hours) << target;
    EXPECT_EQ(greedy->spfm, oracle->spfm) << target;
    EXPECT_LE(optimal->total_cost_hours, oracle->total_cost_hours + 1e-9) << target;
    EXPECT_GE(optimal->spfm, spfm_target(target)) << target;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyOracleProperty, ::testing::Range(1, 201));

TEST(GreedyOracle, InstancesReachTheEdgeCases) {
  // The seeds above must exercise what the heap's ordering has to get
  // right: a zero-cost pick, a tie in gain per cost hour between rows, and
  // an unreachable target.
  bool zero_cost = false;
  bool tie = false;
  bool unreachable = false;
  for (int seed = 1; seed <= 200; ++seed) {
    const auto instance = make_greedy_instance(static_cast<uint64_t>(seed));
    for (const char* target : {"ASIL-B", "ASIL-C", "ASIL-D"}) {
      const auto oracle = oracle::greedy_reach_asil(instance.fmea, instance.catalogue, target);
      if (!oracle.has_value()) {
        unreachable = true;
        continue;
      }
      for (const auto& choice : oracle->choices) {
        zero_cost = zero_cost || choice.mechanism->cost_hours == 0.0;
      }
    }
    // Two open rows with one FIT and one applicable list offer equal ratios.
    const auto& rows = instance.fmea.rows;
    for (size_t i = 0; i < rows.size() && !tie; ++i) {
      for (size_t j = i + 1; j < rows.size() && !tie; ++j) {
        const auto options = instance.catalogue.applicable(rows[i].component_type,
                                                           rows[i].failure_mode);
        tie = rows[i].safety_related && rows[j].safety_related &&
              rows[i].safety_mechanism.empty() && rows[j].safety_mechanism.empty() &&
              rows[i].mode_fit() > 0.0 && rows[i].mode_fit() == rows[j].mode_fit() &&
              !options.empty() &&
              options == instance.catalogue.applicable(rows[j].component_type,
                                                       rows[j].failure_mode);
      }
    }
  }
  EXPECT_TRUE(zero_cost);
  EXPECT_TRUE(tie);
  EXPECT_TRUE(unreachable);
}

TEST(Pareto, JobsCountNeverChangesTheFront) {
  const auto instance = make_random_instance(7);
  ParetoOptions serial;
  serial.jobs = 1;
  const auto base = pareto_front(instance.fmea, instance.catalogue, serial);
  for (const int jobs : {2, 4, 8}) {
    ParetoOptions options;
    options.jobs = jobs;
    const auto front = pareto_front(instance.fmea, instance.catalogue, options);
    ASSERT_EQ(front.size(), base.size()) << "jobs " << jobs;
    for (size_t i = 0; i < front.size(); ++i) {
      // Bit-identical, not just close: the merge-tree shape is fixed, so
      // parallelism must not change a single floating-point association.
      EXPECT_EQ(front[i].total_cost_hours, base[i].total_cost_hours);
      EXPECT_EQ(front[i].spfm, base[i].spfm);
      ASSERT_EQ(front[i].choices.size(), base[i].choices.size());
      for (size_t c = 0; c < front[i].choices.size(); ++c) {
        EXPECT_EQ(front[i].choices[c].row_index, base[i].choices[c].row_index);
        EXPECT_EQ(front[i].choices[c].mechanism, base[i].choices[c].mechanism);
      }
    }
  }
}

TEST(Pareto, TiePrefersFewestChoices) {
  // {M1} and {M2, M3} land on the same (cost 2, residual 250) point; the
  // front must report the single-mechanism representative.
  FmedaResult f;
  f.rows = {make_row("A", 100, "Open", 1.0, true), make_row("B", 100, "Open", 1.0, true),
            make_row("C", 100, "Open", 1.0, true)};
  SafetyMechanismModel cat;
  cat.add({"A", "Open", "M1", 0.5, 2.0});
  cat.add({"B", "Open", "M2", 0.25, 1.0});
  cat.add({"C", "Open", "M3", 0.25, 1.0});
  const auto front = pareto_front(f, cat);
  const Deployment* at_cost_2 = nullptr;
  for (const auto& d : front) {
    if (std::abs(d.total_cost_hours - 2.0) < 1e-9) at_cost_2 = &d;
  }
  ASSERT_NE(at_cost_2, nullptr);
  ASSERT_EQ(at_cost_2->choices.size(), 1u);
  EXPECT_EQ(at_cost_2->choices[0].mechanism->name, "M1");
  // The oracle applies the same tie preference.
  const auto oracle = pareto_front_exhaustive(f, cat);
  ASSERT_EQ(oracle.size(), front.size());
  for (size_t i = 0; i < front.size(); ++i) {
    EXPECT_EQ(oracle[i].choices.size(), front[i].choices.size()) << "point " << i;
  }
}

TEST(Pareto, CostGridTieInsideAMergeRowKeepsTheLowerResidual) {
  // The grid quantum is 1e-9 of the ~10 h cost scale. A (0.55 quanta) and B
  // (0.6) round to distinct cells alone, but {A} and {A, B} share one, so a
  // row of the merge holds a grid tie on cost. The front must keep {A, B},
  // the tie's lower residual, exactly as the oracle does.
  FmedaResult f;
  f.rows = {make_row("A", 100, "Open", 1.0, true), make_row("B", 100, "Open", 1.0, true),
            make_row("C", 100, "Open", 1.0, true)};
  SafetyMechanismModel cat;
  cat.add({"A", "Open", "a", 0.5, 5.5e-9});
  cat.add({"B", "Open", "b", 0.9, 6e-9});
  cat.add({"C", "Open", "c", 0.9, 10.0});
  const auto front = pareto_front(f, cat);
  const auto oracle = pareto_front_exhaustive(f, cat);
  ASSERT_EQ(front.size(), oracle.size());
  for (size_t i = 0; i < front.size(); ++i) {
    EXPECT_EQ(front[i].total_cost_hours, oracle[i].total_cost_hours) << "point " << i;
    EXPECT_EQ(front[i].spfm, oracle[i].spfm) << "point " << i;
  }
  ASSERT_GE(front.size(), 2u);
  EXPECT_EQ(front[1].choices.size(), 2u);
}

TEST(Pareto, EpsilonCoarseningBoundsTheFront) {
  const auto instance = make_random_instance(11);
  const auto exact = pareto_front(instance.fmea, instance.catalogue);
  ParetoOptions coarse;
  coarse.epsilon = 0.05;
  const auto approx = pareto_front(instance.fmea, instance.catalogue, coarse);
  ASSERT_FALSE(approx.empty());
  EXPECT_LE(approx.size(), exact.size());
  // The cost-0 point always survives, and every survivor is a real
  // non-dominated deployment in sorted order.
  EXPECT_DOUBLE_EQ(approx.front().total_cost_hours, 0.0);
  for (size_t i = 1; i < approx.size(); ++i) {
    EXPECT_GT(approx[i].total_cost_hours, approx[i - 1].total_cost_hours);
    EXPECT_GT(approx[i].spfm, approx[i - 1].spfm);
  }
  for (const auto& d : approx) {
    const auto applied = apply_deployment(instance.fmea, d);
    EXPECT_NEAR(applied.spfm(), d.spfm, 1e-12);
  }
  for (const double epsilon : {1.0, -0.1, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    ParetoOptions invalid;
    invalid.epsilon = epsilon;
    EXPECT_THROW(pareto_front(instance.fmea, instance.catalogue, invalid), AnalysisError)
        << epsilon;
  }
}

TEST(Pareto, MergeLabelGuardSuggestsEpsilon) {
  // Many rows with irrational-ish distinct costs make every partial sum a
  // distinct front point; a tiny label cap must trip with an epsilon hint.
  FmedaResult f;
  SafetyMechanismModel cat;
  for (int i = 0; i < 16; ++i) {
    const std::string name = "G" + std::to_string(i);
    f.rows.push_back(make_row(name.c_str(), 100, "Open", 1.0, true));
    cat.add({name, "Open", "a", 0.9, 1.0 + 0.001 * i});
    cat.add({name, "Open", "b", 0.99, 2.0 + 0.0017 * i});
  }
  ParetoOptions tiny;
  tiny.max_merge_labels = 64;
  try {
    pareto_front(f, cat, tiny);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& error) {
    EXPECT_NE(std::string(error.what()).find("epsilon"), std::string::npos);
  }
  // The same instance completes under coarsening.
  ParetoOptions coarse;
  coarse.max_merge_labels = 100'000;
  coarse.epsilon = 0.05;
  EXPECT_FALSE(pareto_front(f, cat, coarse).empty());
}

TEST(Pareto, RejectsNegativeOrNonFiniteRowWeights) {
  // Both engines took such weights: -1 gave a front topping out at metric
  // 1.8, NaN a metric of nan and +inf one of -nan. Each now names the row.
  const auto fmea = sample_fmea();
  const auto catalogue = sample_catalogue();
  const auto rejection = [](const auto& search) -> std::string {
    try {
      search();
    } catch (const AnalysisError& error) {
      return error.what();
    }
    return "accepted";
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double weight : {-1.0, -1e-300, std::numeric_limits<double>::quiet_NaN(), kInf,
                              -kInf}) {
    const std::vector<double> weights{1.0, weight, 1.0};
    ParetoOptions options;
    options.row_weights = weights;
    EXPECT_NE(rejection([&] { (void)pareto_front(fmea, catalogue, options); })
                  .find("row_weights[1] (B/Open)"),
              std::string::npos)
        << weight;
    EXPECT_NE(rejection([&] {
                (void)pareto_front_exhaustive(fmea, catalogue, 2'000'000, weights);
              }).find("row_weights[1] (B/Open)"),
              std::string::npos)
        << weight;
  }
  // Zero and positive weights stay valid; a zero weight closes the row.
  ParetoOptions zero_one;
  zero_one.row_weights = {0.0, 1.0, 2.5};
  const auto front = pareto_front(fmea, catalogue, zero_one);
  const auto oracle = pareto_front_exhaustive(fmea, catalogue, 2'000'000, zero_one.row_weights);
  ASSERT_EQ(front.size(), oracle.size());
  for (const auto& d : front) {
    for (const auto& choice : d.choices) EXPECT_NE(choice.row_index, 0u);
  }
}

TEST(Pareto, DpScalesToHundredsOfOpenRows) {
  // >= 200 open rows with 3 options each: the seed enumerator throws, the DP
  // engine completes with a well-formed front (grid-valued costs keep the
  // exact front polynomial).
  FmedaResult f;
  SafetyMechanismModel cat;
  for (int t = 0; t < 5; ++t) {
    const std::string type = "S" + std::to_string(t);
    cat.add({type, "Open", type + "-cheap", 0.7, 0.5});
    cat.add({type, "Open", type + "-good", 0.9, 2.0});
  }
  for (int i = 0; i < 220; ++i) {
    const std::string type = "S" + std::to_string(i % 5);
    FmedaRow row = make_row(type.c_str(), 5.0 + (i % 11), "Open", 1.0, true);
    row.component = type + "#" + std::to_string(i);
    f.rows.push_back(row);
  }
  EXPECT_THROW(pareto_front_exhaustive(f, cat), AnalysisError);
  ParetoOptions options;
  options.jobs = 4;
  const auto front = pareto_front(f, cat, options);
  ASSERT_GT(front.size(), 10u);
  for (size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].total_cost_hours, front[i - 1].total_cost_hours);
    EXPECT_GT(front[i].spfm, front[i - 1].spfm);
  }
  // Spot-verify the costliest point: every row deployed with its best
  // mechanism.
  EXPECT_EQ(front.back().choices.size(), 220u);
  const auto applied = apply_deployment(f, front.back());
  EXPECT_NEAR(applied.spfm(), front.back().spfm, 1e-12);
}

TEST(FrontExport, CsvAndJsonRenderTheFront) {
  const auto fmea = sample_fmea();
  // The catalogue must outlive the front: deployments point into its specs.
  const auto catalogue = sample_catalogue();
  const auto front = pareto_front(fmea, catalogue);
  const CsvTable table = front_to_csv(fmea, front);
  ASSERT_EQ(table.header.size(), 5u);
  EXPECT_EQ(table.header[0], "Cost(hrs)");
  ASSERT_EQ(table.rows.size(), front.size());
  EXPECT_EQ(table.rows[0][0], "0");  // the empty deployment leads the front
  const auto doc = json::parse(front_to_json(fmea, front));
  const auto* points = doc.find("front");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->as_array().size(), front.size());
  EXPECT_NEAR(points->as_array().back().find("cost_hours")->as_number(),
              front.back().total_cost_hours, 1e-9);
}

namespace {

std::string csv_digest(const CsvTable& table) { return hash_to_hex(fnv1a64(write_csv(table))); }

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace

TEST(Pareto, DeployScaleOutputsAndDpWorkAreExactAtAnyJobCount) {
  // Greedy has no oracle and these fronts are far beyond the enumerator, so
  // pin what the engines produce on the deploy-scale subjects: the
  // front_to_csv bytes (FNV-1a) and the DP's work counters, exactly. A moved
  // deployment, front point or merge visit changes a value here, at any job
  // count. The values were recorded with the sort-based merge that the record
  // merge replaced (DESIGN.md §11), which must reproduce them.
  const auto catalogue = scaled_sm_catalogue();
  auto scaled = make_scaled_architecture(40, 8);
  const auto scaled_fmea = analyze_component(*scaled.model, scaled.system);
  auto wide = make_scaled_architecture(60, 5);
  const auto wide_fmea = analyze_component(*wide.model, wide.system);
  auto lattice = make_scaled_architecture(9, 1, 5);
  const auto lattice_fmea = analyze_component(*lattice.model, lattice.system);
  const auto tree = fta::synthesize_fault_tree_zbdd(*lattice.model, lattice.system);
  const auto lfm_weights =
      fta::lfm_row_weights(fta::classify_latent(*lattice.model, tree, lattice_fmea));

  const auto greedy = greedy_reach_asil(scaled_fmea, catalogue, "ASIL-B");
  ASSERT_TRUE(greedy.has_value());
  EXPECT_EQ(greedy->choices.size(), 280u);
  EXPECT_DOUBLE_EQ(greedy->total_cost_hours, 165.0);
  EXPECT_NEAR(greedy->spfm, 0.900137552, 5e-10);
  EXPECT_EQ(csv_digest(front_to_csv(scaled_fmea, {*greedy})), "bd20e1e2431dcb2d");

  const struct {
    const char* name;
    const FmedaResult* fmea;
    double epsilon;
    const std::vector<double>* weights;
    size_t front;
    std::uint64_t labels, pruned, merges;
    const char* digest;
  } expected[] = {
      {"(40, 8) epsilon 0.001", &scaled_fmea, 0.001, nullptr, 408, 87'261, 83'597, 279,
       "f9c5d4cde2e4ffd0"},
      {"(60, 5) exact", &wide_fmea, 0.0, nullptr, 871, 373'170, 366'358, 239,
       "75ba5c1ec116b327"},
      {"(9, 1, 5) LFM epsilon 0.001", &lattice_fmea, 0.001, &lfm_weights, 141, 10'117, 9'307,
       44, "cff990f2ef7b95c7"},
  };
  for (const int jobs : {1, 4}) {
    for (const auto& subject : expected) {
      const std::uint64_t labels0 = counter_value("decisive_sm_search_labels_total");
      const std::uint64_t pruned0 = counter_value("decisive_sm_search_labels_pruned_total");
      const std::uint64_t merges0 = counter_value("decisive_sm_search_merges_total");
      ParetoOptions options;
      options.jobs = jobs;
      options.epsilon = subject.epsilon;
      if (subject.weights != nullptr) options.row_weights = *subject.weights;
      const auto front = pareto_front(*subject.fmea, catalogue, options);
      const auto metric = subject.weights != nullptr ? ParetoMetric::Lfm : ParetoMetric::Spfm;
      EXPECT_EQ(front.size(), subject.front) << subject.name << " at jobs " << jobs;
      EXPECT_EQ(csv_digest(front_to_csv(*subject.fmea, front, metric)), subject.digest)
          << subject.name << " at jobs " << jobs;
      EXPECT_EQ(counter_value("decisive_sm_search_labels_total") - labels0, subject.labels)
          << subject.name << " at jobs " << jobs;
      EXPECT_EQ(counter_value("decisive_sm_search_labels_pruned_total") - pruned0,
                subject.pruned)
          << subject.name << " at jobs " << jobs;
      EXPECT_EQ(counter_value("decisive_sm_search_merges_total") - merges0, subject.merges)
          << subject.name << " at jobs " << jobs;
    }
  }
}
