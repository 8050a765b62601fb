// Unit and property tests for the sparse direct solver subsystem: the
// Gilbert-Peierls kernel against the dense oracle, numeric refactorisation,
// partial refactorisation across structural edits, pivot gates, and the
// campaign's byte-identity with a sparse nominal factor.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "campaign_subjects.hpp"
#include "decisive/base/error.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/oracles.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/sim/solver.hpp"
#include "decisive/sim/sparse.hpp"

using namespace decisive;
using namespace decisive::sim;

namespace {

/// A random sparse test system assembled the way the solver does it: a
/// coordinate stamp stream frozen into a Pattern + slot sequence, values
/// replayed through the slots (duplicates accumulate).
struct TestSystem {
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  std::vector<std::pair<std::pair<int, int>, double>> stamps;  // ((row,col),v)
  std::vector<double> values;                                  // CSC, parallel to pattern
  std::vector<std::vector<double>> dense;                      // nested-vector mirror

  void assemble() {
    values.assign(pattern.nnz(), 0.0);
    dense.assign(pattern.n, std::vector<double>(pattern.n, 0.0));
    for (std::size_t t = 0; t < stamps.size(); ++t) {
      values[static_cast<std::size_t>(slots[t])] += stamps[t].second;
      dense[static_cast<std::size_t>(stamps[t].first.first)]
           [static_cast<std::size_t>(stamps[t].first.second)] += stamps[t].second;
    }
  }
};

/// Diagonally loaded random sparse system (structurally symmetric pattern,
/// like MNA): guaranteed nonsingular, occasionally with duplicate stamps.
TestSystem make_system(std::mt19937& rng, std::size_t n) {
  TestSystem sys;
  std::uniform_int_distribution<int> node(0, static_cast<int>(n) - 1);
  std::uniform_real_distribution<double> mag(0.1, 2.0);
  sparse::PatternBuilder builder;
  builder.begin(n);
  auto stamp = [&](int r, int c, double v) {
    builder.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    sys.stamps.push_back({{r, c}, v});
  };
  for (int i = 0; i < static_cast<int>(n); ++i) stamp(i, i, 4.0 + mag(rng));
  const std::size_t extras = 2 * n;
  for (std::size_t e = 0; e < extras; ++e) {
    const int r = node(rng);
    const int c = node(rng);
    const double v = mag(rng) - 1.0;
    // Structurally symmetric, like a conductance stamp.
    stamp(r, c, v);
    stamp(c, r, v);
  }
  builder.freeze(sys.pattern, sys.slots);
  sys.assemble();
  return sys;
}

std::vector<double> random_rhs(std::mt19937& rng, std::size_t n) {
  std::uniform_real_distribution<double> mag(-5.0, 5.0);
  std::vector<double> b(n);
  for (double& v : b) v = mag(rng);
  return b;
}

/// Solves `lu` in place over `x` with a throwaway scratch buffer.
void solve(const sparse::SparseLu& lu, std::vector<double>& x) {
  std::vector<double> scratch;
  lu.solve_in_place(x.data(), scratch);
}

void expect_close(const std::vector<double>& actual, const std::vector<double>& expected,
                  double tol, const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], tol * (1.0 + std::abs(expected[i])))
        << context << " at index " << i;
  }
}

}  // namespace

TEST(SparsePattern, BuilderDeduplicatesAndAccumulates) {
  sparse::PatternBuilder builder;
  builder.begin(3);
  builder.add(0, 0);
  builder.add(2, 1);
  builder.add(0, 0);  // duplicate coordinate, same slot
  builder.add(1, 1);
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);
  EXPECT_EQ(pattern.n, 3u);
  EXPECT_EQ(pattern.nnz(), 3u);  // (0,0), (1,1), (2,1)
  EXPECT_EQ(slots[0], slots[2]);
  EXPECT_NE(slots[1], slots[3]);
  // Rows sorted within each column.
  EXPECT_EQ(pattern.row_ind[static_cast<std::size_t>(pattern.col_ptr[1])], 1);
  EXPECT_EQ(pattern.row_ind[static_cast<std::size_t>(pattern.col_ptr[1]) + 1], 2);
}

TEST(SparsePattern, FingerprintSeparatesStructures) {
  std::mt19937 rng(7);
  TestSystem a = make_system(rng, 12);
  TestSystem b = make_system(rng, 12);
  EXPECT_EQ(a.pattern.fingerprint(), a.pattern.fingerprint());
  // Two independently drawn patterns of the same size should differ (the
  // extra stamps land on different coordinates with overwhelming odds).
  EXPECT_NE(a.pattern.fingerprint(), b.pattern.fingerprint());
}

TEST(SparseOrdering, MinDegreeIsAPermutation) {
  std::mt19937 rng(11);
  for (const std::size_t n : {1u, 2u, 5u, 23u, 64u}) {
    TestSystem sys = make_system(rng, n);
    const std::vector<std::int32_t> order = sparse::min_degree_order(sys.pattern);
    ASSERT_EQ(order.size(), n);
    std::vector<char> seen(n, 0);
    for (const std::int32_t c : order) {
      ASSERT_GE(c, 0);
      ASSERT_LT(static_cast<std::size_t>(c), n);
      EXPECT_FALSE(seen[static_cast<std::size_t>(c)]);
      seen[static_cast<std::size_t>(c)] = 1;
    }
  }
}

TEST(SparseLu, FactorMatchesDenseOracle) {
  std::mt19937 rng(42);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 60);
    TestSystem sys = make_system(rng, n);
    sparse::SparseLu lu;
    std::string error;
    ASSERT_TRUE(lu.factor(sys.pattern, sys.values.data(), &error)) << error;
    const std::vector<double> b = random_rhs(rng, n);
    std::vector<double> x = b;
    solve(lu, x);
    const std::vector<double> expected = oracle::solve_dense(sys.dense, b);
    expect_close(x, expected, 1e-9, "round " + std::to_string(round));
  }
}

TEST(SparseLu, RefactorReplaysNewValuesOverFrozenPattern) {
  std::mt19937 rng(44);
  TestSystem sys = make_system(rng, 30);
  sparse::SparseLu lu;
  std::string error;
  ASSERT_TRUE(lu.factor(sys.pattern, sys.values.data(), &error)) << error;
  const std::uint64_t factors_before = sparse::SparseMetrics::get().factors.value();

  for (int round = 0; round < 5; ++round) {
    // Perturb every stamp (same structure, new numbers) — the diode
    // relinearisation of a Newton step in miniature.
    for (auto& stamp : sys.stamps) {
      stamp.second *= (stamp.first.first == stamp.first.second) ? 1.1 : 0.9;
    }
    sys.assemble();
    ASSERT_TRUE(lu.refactor(sys.pattern, sys.values.data(), &error)) << error;
    const std::vector<double> b = random_rhs(rng, 30);
    std::vector<double> x = b;
    solve(lu, x);
    const std::vector<double> expected = oracle::solve_dense(sys.dense, b);
    expect_close(x, expected, 1e-9, "refactor round " + std::to_string(round));
  }
  // Refactor must not have run any fresh factorisation.
  EXPECT_EQ(sparse::SparseMetrics::get().factors.value(), factors_before);
}

TEST(SparseLu, RefactorPivotGateTripsOnDegradedPivot) {
  // 2x2: factor with a dominant diagonal, then swap dominance so the frozen
  // pivot order is numerically untrustworthy.
  sparse::PatternBuilder builder;
  builder.begin(2);
  builder.add(0, 0);
  builder.add(1, 0);
  builder.add(0, 1);
  builder.add(1, 1);
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);

  std::vector<double> good(4);
  good[static_cast<std::size_t>(slots[0])] = 10.0;  // (0,0)
  good[static_cast<std::size_t>(slots[1])] = 1.0;   // (1,0)
  good[static_cast<std::size_t>(slots[2])] = 1.0;   // (0,1)
  good[static_cast<std::size_t>(slots[3])] = 10.0;  // (1,1)
  sparse::SparseLu lu;
  std::string error;
  ASSERT_TRUE(lu.factor(pattern, good.data(), &error)) << error;

  std::vector<double> degraded(4);
  degraded[static_cast<std::size_t>(slots[0])] = 1e-9;  // frozen pivot collapses
  degraded[static_cast<std::size_t>(slots[1])] = 10.0;
  degraded[static_cast<std::size_t>(slots[2])] = 10.0;
  degraded[static_cast<std::size_t>(slots[3])] = 1e-9;
  EXPECT_FALSE(lu.refactor(pattern, degraded.data(), &error));
  EXPECT_NE(error.find("pivot gate"), std::string::npos) << error;

  // A fresh factor (repivot) handles the degraded numbers fine.
  ASSERT_TRUE(lu.factor(pattern, degraded.data(), &error)) << error;
  std::vector<double> x = {1.0, 2.0};
  solve(lu, x);
  std::vector<std::vector<double>> dense_m = {{1e-9, 10.0}, {10.0, 1e-9}};
  expect_close(x, oracle::solve_dense(dense_m, {1.0, 2.0}), 1e-9, "repivot");
}

TEST(SparseLu, SingularSystemReturnsFalseNotGarbage) {
  // Column 1 is exactly zero.
  sparse::PatternBuilder builder;
  builder.begin(2);
  builder.add(0, 0);
  builder.add(1, 1);
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);
  std::vector<double> values = {1.0, 0.0};
  sparse::SparseLu lu;
  std::string error;
  EXPECT_FALSE(lu.factor(pattern, values.data(), &error));
  EXPECT_NE(error.find("singular"), std::string::npos) << error;
  EXPECT_FALSE(lu.factored());
}

TEST(SparseLu, TinyWellScaledSystemIsNotSingular) {
  // Satellite regression (shared floor): every entry ~1e-32 but perfectly
  // conditioned — the old absolute 1e-30 floor called this singular.
  sparse::PatternBuilder builder;
  builder.begin(2);
  builder.add(0, 0);
  builder.add(1, 1);
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);
  std::vector<double> values = {1e-32, 2e-32};
  sparse::SparseLu lu;
  std::string error;
  ASSERT_TRUE(lu.factor(pattern, values.data(), &error)) << error;
  std::vector<double> x = {1e-32, 2e-32};
  solve(lu, x);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(SparseLu, PartialFactorReusesCleanPrefixAcrossDeletion) {
  std::mt19937 rng(45);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng() % 40);
    TestSystem base = make_system(rng, n);
    sparse::SparseLu base_lu;
    std::string error;
    ASSERT_TRUE(base_lu.factor(base.pattern, base.values.data(), &error)) << error;

    // Structural edit: delete one unknown (row + column), the shape of a
    // campaign Open/Short on a branch element.
    const std::size_t deleted = static_cast<std::size_t>(rng()) % n;
    std::vector<std::int32_t> new_of_old(n);
    for (std::size_t i = 0; i < n; ++i) {
      new_of_old[i] = i == deleted ? -1
                      : static_cast<std::int32_t>(i < deleted ? i : i - 1);
    }
    TestSystem edited;
    sparse::PatternBuilder builder;
    builder.begin(n - 1);
    for (const auto& stamp : base.stamps) {
      const std::int32_t r = new_of_old[static_cast<std::size_t>(stamp.first.first)];
      const std::int32_t c = new_of_old[static_cast<std::size_t>(stamp.first.second)];
      if (r < 0 || c < 0) continue;
      builder.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      edited.stamps.push_back({{r, c}, stamp.second});
    }
    builder.freeze(edited.pattern, edited.slots);
    edited.assemble();

    sparse::SparseLu lu;
    std::size_t reused = 0;
    ASSERT_TRUE(lu.partial_factor(*base_lu.symbolic(), base.pattern, new_of_old,
                                  edited.pattern, edited.values.data(), &reused, &error))
        << error;
    EXPECT_LE(reused, n - 1);

    const std::vector<double> b = random_rhs(rng, n - 1);
    std::vector<double> x = b;
    solve(lu, x);
    const std::vector<double> expected = oracle::solve_dense(edited.dense, b);
    expect_close(x, expected, 1e-8, "partial round " + std::to_string(round));
  }
}

TEST(SparseLu, PartialFactorReportsReusedColumns) {
  // A structured case where the deleted unknown is eliminated late: a
  // banded chain ordered naturally has its tail column untouched-prefix
  // friendly, so some prefix must be reused.
  const std::size_t n = 40;
  sparse::PatternBuilder builder;
  builder.begin(n);
  std::vector<std::pair<std::pair<int, int>, double>> stamps;
  auto stamp = [&](int r, int c, double v) {
    builder.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    stamps.push_back({{r, c}, v});
  };
  for (int i = 0; i < static_cast<int>(n); ++i) stamp(i, i, 4.0);
  for (int i = 0; i + 1 < static_cast<int>(n); ++i) {
    stamp(i, i + 1, -1.0);
    stamp(i + 1, i, -1.0);
  }
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);
  std::vector<double> values(pattern.nnz(), 0.0);
  for (std::size_t t = 0; t < stamps.size(); ++t) {
    values[static_cast<std::size_t>(slots[t])] += stamps[t].second;
  }
  sparse::SparseLu base_lu;
  std::string error;
  ASSERT_TRUE(base_lu.factor(pattern, values.data(), &error)) << error;

  // Delete the last unknown; everything that was eliminated before any
  // column adjacent to it stays clean.
  std::vector<std::int32_t> new_of_old(n);
  for (std::size_t i = 0; i < n; ++i) {
    new_of_old[i] = i == n - 1 ? -1 : static_cast<std::int32_t>(i);
  }
  sparse::PatternBuilder edited_builder;
  edited_builder.begin(n - 1);
  std::vector<std::pair<std::pair<int, int>, double>> edited_stamps;
  for (const auto& s : stamps) {
    if (s.first.first >= static_cast<int>(n) - 1 || s.first.second >= static_cast<int>(n) - 1) {
      continue;
    }
    edited_builder.add(static_cast<std::size_t>(s.first.first),
                       static_cast<std::size_t>(s.first.second));
    edited_stamps.push_back(s);
  }
  sparse::Pattern edited_pattern;
  std::vector<std::int32_t> edited_slots;
  edited_builder.freeze(edited_pattern, edited_slots);
  std::vector<double> edited_values(edited_pattern.nnz(), 0.0);
  for (std::size_t t = 0; t < edited_stamps.size(); ++t) {
    edited_values[static_cast<std::size_t>(edited_slots[t])] += edited_stamps[t].second;
  }

  sparse::SparseLu lu;
  std::size_t reused = 0;
  ASSERT_TRUE(lu.partial_factor(*base_lu.symbolic(), pattern, new_of_old, edited_pattern,
                                edited_values.data(), &reused, &error))
      << error;
  EXPECT_GT(reused, 0u) << "chain deletion should preserve a clean symbolic prefix";
  std::vector<double> x(n - 1, 1.0);
  solve(lu, x);
  for (const double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(SparseLu, AdoptedSymbolicRefactorsWithoutOwnFactor) {
  std::mt19937 rng(46);
  TestSystem sys = make_system(rng, 24);
  sparse::SparseLu owner;
  std::string error;
  ASSERT_TRUE(owner.factor(sys.pattern, sys.values.data(), &error)) << error;

  // A second instance (another campaign worker) adopts the shared symbolic
  // and goes straight to the numeric replay.
  sparse::SparseLu worker;
  worker.adopt(owner.symbolic());
  ASSERT_TRUE(worker.refactor(sys.pattern, sys.values.data(), &error)) << error;
  const std::vector<double> b = random_rhs(rng, 24);
  std::vector<double> x = b;
  solve(worker, x);
  expect_close(x, oracle::solve_dense(sys.dense, b), 1e-9, "adopted");
}

TEST(DensePivotFloor, TinyWellScaledSystemSolves) {
  // Satellite regression: the dense kernel shares the relative floor, so a
  // well-conditioned system of ~1e-32 entries solves instead of throwing.
  const std::vector<std::vector<double>> a = {{1e-32, 0.0}, {0.0, 1e-32}};
  const std::vector<double> x = oracle::solve_dense(a, {1e-32, 2e-32});
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(DensePivotFloor, AllZeroMatrixStillSingular) {
  const std::vector<std::vector<double>> a = {{0.0, 0.0}, {0.0, 0.0}};
  EXPECT_THROW(oracle::solve_dense(a, {1.0, 1.0}), SimulationError);
}

// ---------------------------------------------------- solver integration --

namespace {

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace

TEST(SparseCampaign, FmedaByteIdenticalAcrossJobCountsAndSeeds) {
  // The identity matrix on randomized rails above the crossover, whose
  // fault lists include structural Open/Short faults on branch-unknown
  // elements: every campaign emits exactly the naive campaign's bytes.
  for (const std::uint32_t seed : {11u, 29u}) {
    campaign_subjects::expect_identity_matrix("random-rail seed " + std::to_string(seed),
                                              campaign_subjects::random_rail(seed, 60),
                                              campaign_subjects::random_rail_reliability());
  }
}

TEST(SparseCampaign, SparseTierActuallySolvesRowsAndReusesSymbolic) {
  // Guard against the identity matrix passing vacuously: on rails above the
  // crossover the context must factor sparse, its low-rank branch must
  // accept rows against that factor, and its refactor branch must absorb
  // structural faults through partial_factor and a low-rank decline (the
  // source Drift of the 48-stage rail) by adopting the nominal symbolic.
  const char* const counters[] = {
      "decisive_batch_sparse_contexts_total", "decisive_campaign_batched_rows_total",
      "decisive_campaign_sparse_rows_total",  "decisive_sparse_partial_refactors_total",
      "decisive_campaign_batch_fallback_total", "decisive_sparse_symbolic_reuse_total"};
  std::vector<std::uint64_t> before;
  for (const char* name : counters) before.push_back(counter_value(name));
  (void)campaign_subjects::run_campaign(campaign_subjects::random_rail(7u, 60),
                                        campaign_subjects::random_rail_reliability(), {});
  (void)campaign_subjects::run_campaign(campaign_subjects::make_rail(48),
                                        campaign_subjects::rail_reliability(), {});
  EXPECT_GT(counter_value(counters[0]), before[0]) << "the context did not factor sparse";
  EXPECT_GT(counter_value(counters[1]), before[1])
      << "the low-rank branch accepted no rows on the sparse factor";
  EXPECT_GT(counter_value(counters[2]), before[2])
      << "the refactor branch accepted no rows";
  EXPECT_GT(counter_value(counters[3]), before[3])
      << "no structural fault went through partial refactorisation";
  EXPECT_GT(counter_value(counters[4]), before[4]) << "the low-rank branch declined nothing";
  EXPECT_GT(counter_value(counters[5]), before[5])
      << "no low-rank decline was refactored over the adopted nominal symbolic";
}

TEST(SparseCampaign, RailWorkCountersAreExactAtAnyJobCount) {
  // The default campaign's routing is deterministic, so its work counters
  // are exact, not rates: a route moving between the context's branches,
  // an extra Newton iteration or a lost factor reuse changes a count here.
  // The 96-stage rail has 483 faults: the source Drift is the one low-rank
  // decline, refactored over the adopted nominal symbolic; the source
  // Open/Short delete its branch unknown and go through partial_factor.
  // The context factors once, at the baseline, and refactors nothing itself.
  const struct {
    const char* name;
    std::uint64_t delta;
  } expected[] = {
      {"decisive_campaign_tasks_total", 483},
      {"decisive_campaign_outcome_converged_total", 483},
      {"decisive_campaign_batched_rows_total", 480},
      {"decisive_campaign_batch_fallback_total", 1},
      {"decisive_batch_factor_reuses_total", 481},
      {"decisive_solver_iterations_total", 2880},
      {"decisive_solver_solves_total", 484},
      {"decisive_sparse_factors_total", 1},
      {"decisive_sparse_refactors_total", 29},
      {"decisive_campaign_sparse_rows_total", 3},
      {"decisive_sparse_partial_refactors_total", 2},
      {"decisive_sparse_symbolic_reuse_total", 1},
      {"decisive_campaign_sparse_fallback_total", 0},
  };
  const sim::BuiltCircuit built = campaign_subjects::make_rail(96);
  const core::ReliabilityModel reliability = campaign_subjects::rail_reliability();
  for (const int jobs : {1, 4}) {
    std::vector<std::uint64_t> before;
    for (const auto& counter : expected) before.push_back(counter_value(counter.name));
    core::CircuitFmeaOptions options;
    options.jobs = jobs;
    (void)campaign_subjects::run_campaign(built, reliability, options);
    for (size_t i = 0; i < std::size(expected); ++i) {
      EXPECT_EQ(counter_value(expected[i].name) - before[i], expected[i].delta)
          << expected[i].name << " at jobs " << jobs;
    }
    if (jobs != 1) continue;
    // Last-writer gauges: only a serial run pins which factor wrote them.
    auto& registry = obs::Registry::global();
    EXPECT_EQ(registry.gauge("decisive_sparse_nnz").value(), 296.0);
    EXPECT_EQ(registry.gauge("decisive_sparse_lu_nnz").value(), 297.0);
  }
}

TEST(SparseCampaign, ForcedFallbacksStillByteIdentical) {
  // Slam every escape hatch and demand the naive bytes: a zero fill budget
  // (every sparse factorisation rejected), and a dimension threshold above
  // the system (sparse never engages).
  const sim::BuiltCircuit built = campaign_subjects::random_rail(3u, 60);
  const core::ReliabilityModel reliability = campaign_subjects::random_rail_reliability();
  const auto naive = campaign_subjects::run_campaign(built, reliability, campaign_subjects::naive({}));

  core::CircuitFmeaOptions fill_gate;
  fill_gate.jobs = 4;
  fill_gate.solver.sparse_max_fill = 0.0;
  const std::uint64_t fill0 = counter_value("decisive_sparse_fallback_fill_total");
  const auto gated = campaign_subjects::run_campaign(built, reliability, fill_gate);
  EXPECT_EQ(gated.csv, naive.csv);
  EXPECT_EQ(gated.warnings, naive.warnings);
  EXPECT_GT(counter_value("decisive_sparse_fallback_fill_total"), fill0)
      << "fill gate never tripped: the forced-fallback path went untested";

  core::CircuitFmeaOptions high_floor;
  high_floor.jobs = 4;
  high_floor.solver.sparse_min_dim = 1 << 20;
  const auto dense_only = campaign_subjects::run_campaign(built, reliability, high_floor);
  EXPECT_EQ(dense_only.csv, naive.csv);
  EXPECT_EQ(dense_only.warnings, naive.warnings);
}

TEST(SparseCampaign, JournalsInterchangeBetweenSparseAndDenseRuns) {
  // The batch and sparse knobs are excluded from the campaign fingerprint,
  // so a journal written by the naive dense run must replay under the
  // default run and reproduce the bytes.
  const sim::BuiltCircuit built = campaign_subjects::random_rail(5u, 60);
  const core::ReliabilityModel reliability = campaign_subjects::random_rail_reliability();
  const auto dir = std::filesystem::temp_directory_path() / "decisive_sparse_journal_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto uninterrupted = campaign_subjects::run_campaign(built, reliability, {});
  core::CircuitFmeaOptions options;
  options.execution.journal_path = (dir / "campaign.journal").string();
  const auto dense_run =
      campaign_subjects::run_campaign(built, reliability, campaign_subjects::naive(options));
  const auto replayed = campaign_subjects::run_campaign(built, reliability, options);
  EXPECT_EQ(dense_run.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.warnings, uninterrupted.warnings);
  std::filesystem::remove_all(dir);
}
