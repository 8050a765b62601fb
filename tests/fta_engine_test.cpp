// Tests for the ZBDD fault-tree engine (src/fta): oracle identity on
// randomised subjects, exact quantification, importance measures on
// degenerate inputs, truncation surfacing, and the ISO 26262 latent /
// multi-point classification that federates FTA with the FMEDA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/core/fta.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/fta/zbdd.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/oracles.hpp"

using namespace decisive;
using namespace decisive::core;
using ssam::ObjectId;
using ssam::SsamModel;

namespace {

struct Fixture {
  SsamModel m;
  ObjectId sys, in, out;

  Fixture() {
    const auto pkg = m.create_component_package("design");
    sys = m.create_component(pkg, "sys");
    in = m.add_io_node(sys, "in", "in");
    out = m.add_io_node(sys, "out", "out");
  }

  struct Sub {
    ObjectId comp, in, out;
  };
  Sub leaf(const std::string& name, double fit, double loss_dist) {
    Sub s;
    s.comp = m.create_component(sys, name);
    m.obj(s.comp).set_real("fit", fit);
    s.in = m.add_io_node(s.comp, name + ".in", "in");
    s.out = m.add_io_node(s.comp, name + ".out", "out");
    if (loss_dist > 0.0) m.add_failure_mode(s.comp, "Open", loss_dist, "lossOfFunction");
    return s;
  }
};

/// Deterministic LCG so the property subjects are reproducible.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
};

/// A random layered DAG: 2-5 stages of 1-3 units, every unit fed by a random
/// non-empty subset of the previous stage, plus occasional skip connections.
/// Small enough for the enumeration oracle, irregular enough to exercise
/// subsumption and the memoisation.
void build_random_subject(Fixture& f, Lcg& rng) {
  const size_t stages = 2 + rng.below(4);
  std::vector<Fixture::Sub> previous;
  std::vector<Fixture::Sub> two_back;
  size_t serial = 0;
  for (size_t s = 0; s < stages; ++s) {
    const size_t width = 1 + rng.below(3);
    std::vector<Fixture::Sub> stage;
    for (size_t k = 0; k < width; ++k) {
      const double fit = 10.0 + static_cast<double>(rng.below(500));
      const double dist = rng.below(5) == 0 ? 0.0 : 0.2 + 0.1 * static_cast<double>(rng.below(8));
      auto sub = f.leaf("u" + std::to_string(serial++), fit, dist);
      if (previous.empty()) {
        f.m.connect(f.sys, f.in, sub.in);
      } else {
        bool fed = false;
        for (const auto& src : previous) {
          if (rng.below(2) == 0) {
            f.m.connect(f.sys, src.out, sub.in);
            fed = true;
          }
        }
        if (!fed) f.m.connect(f.sys, previous[rng.below(previous.size())].out, sub.in);
        // Occasional skip edge across one stage, so cuts mix orders.
        if (!two_back.empty() && rng.below(4) == 0) {
          f.m.connect(f.sys, two_back[rng.below(two_back.size())].out, sub.in);
        }
      }
      stage.push_back(sub);
    }
    two_back = previous;
    previous = std::move(stage);
  }
  for (const auto& src : previous) f.m.connect(f.sys, src.out, f.out);
}

}  // namespace

// ---------------------------------------------------------------------------
// ZBDD arena primitives
// ---------------------------------------------------------------------------

TEST(Zbdd, JoinUnionMinimalAlgebra) {
  fta::ZbddArena z;
  const auto a = z.single(0);
  const auto b = z.single(1);
  const auto ab = z.join(a, b);
  EXPECT_EQ(z.count(ab), 1u);
  EXPECT_EQ(z.enumerate(ab), (std::vector<std::vector<std::uint32_t>>{{0, 1}}));

  // {a} ∪ {{a,b}} minimised drops the superset.
  const auto fam = z.min_union(a, ab);
  EXPECT_EQ(z.enumerate(fam), (std::vector<std::vector<std::uint32_t>>{{0}}));

  // Non-strict subsumption: f \ supersets(f) keeps nothing.
  EXPECT_EQ(z.without_supersets(a, a), fta::kZbddEmpty);
  // subsets_with is the positive cofactor: members containing the variable,
  // with the variable removed.
  const auto mixed = z.set_union(a, ab);
  EXPECT_EQ(z.enumerate(z.subsets_with(mixed, 1)),
            (std::vector<std::vector<std::uint32_t>>{{0}}));
  EXPECT_FALSE(z.contains_empty(mixed));
  EXPECT_TRUE(z.contains_empty(fta::kZbddUnit));
}

// ---------------------------------------------------------------------------
// Engine vs. enumeration oracle
// ---------------------------------------------------------------------------

TEST(FtaEngine, MatchesOracleOnRandomSubjects) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Lcg rng(seed * 0x9E3779B97F4A7C15ULL);
    Fixture f;
    build_random_subject(f, rng);

    oracle::FtaOptions oracle_opts;
    oracle_opts.max_cut_set_size = 16;  // unbounded for these sizes
    const auto reference = oracle::synthesize_fault_tree(f.m, f.sys, oracle_opts);
    const auto tree = fta::synthesize_fault_tree_zbdd(f.m, f.sys);

    ASSERT_EQ(tree.cut_sets, reference.cut_sets) << "seed " << seed;
    EXPECT_FALSE(tree.truncated) << "seed " << seed;
    EXPECT_FALSE(reference.truncated) << "seed " << seed;
    // Full structural identity, labels and rates included.
    EXPECT_EQ(tree.to_text(), reference.to_text()) << "seed " << seed;

    // Exact probability never exceeds the rare-event bound (coherent tree).
    const auto q = fta::quantify(tree, 10'000.0);
    EXPECT_LE(q.exact_probability, q.rare_event_bound + 1e-12) << "seed " << seed;
    EXPECT_NEAR(q.rare_event_bound, oracle::rare_event_probability(tree, 10'000.0), 1e-12)
        << "seed " << seed;
  }
}

TEST(FtaEngine, MatchesOracleUnderEqualOrderBounds) {
  // Triple-parallel: single order-3 cut. Bounded at 2 both engines return an
  // empty, truncated family; bounded at 3 both return the cut untruncated.
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    const auto s = f.leaf("p" + std::to_string(i), 10, 1.0);
    f.m.connect(f.sys, f.in, s.in);
    f.m.connect(f.sys, s.out, f.out);
  }
  oracle::FtaOptions bounded;
  bounded.max_cut_set_size = 2;
  const auto oracle2 = oracle::synthesize_fault_tree(f.m, f.sys, bounded);
  const auto tree2 = fta::synthesize_fault_tree_zbdd(f.m, f.sys, {.max_order = 2});
  EXPECT_TRUE(oracle2.cut_sets.empty());
  EXPECT_TRUE(tree2.cut_sets.empty());
  EXPECT_TRUE(oracle2.truncated);
  EXPECT_TRUE(tree2.truncated);
  EXPECT_NE(oracle2.to_text().find(kFtaTruncationWarning), std::string::npos);
  EXPECT_NE(tree2.to_text().find(kFtaTruncationWarning), std::string::npos);

  oracle::FtaOptions full;
  full.max_cut_set_size = 3;
  const auto oracle3 = oracle::synthesize_fault_tree(f.m, f.sys, full);
  const auto tree3 = fta::synthesize_fault_tree_zbdd(f.m, f.sys, {.max_order = 3});
  EXPECT_EQ(tree3.cut_sets, oracle3.cut_sets);
  EXPECT_FALSE(oracle3.truncated);
  EXPECT_FALSE(tree3.truncated);
  EXPECT_EQ(tree3.cut_sets.size(), 1u);
}

TEST(FtaEngine, OracleTruncationFlagExactOnSerialChain) {
  // A serial chain has only order-1 cuts: a size bound of 1 clips nothing
  // and must not raise the flag.
  Fixture f;
  const auto a = f.leaf("a", 10, 1.0);
  const auto b = f.leaf("b", 10, 1.0);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, f.out);
  oracle::FtaOptions opts;
  opts.max_cut_set_size = 1;
  const auto reference = oracle::synthesize_fault_tree(f.m, f.sys, opts);
  EXPECT_EQ(reference.cut_sets.size(), 2u);
  EXPECT_FALSE(reference.truncated);
}

TEST(FtaEngine, CompletesWhereEnumerationIsInfeasible) {
  // width-4 × 9 stages: 4^9 = 262144 input→output paths — the oracle's path
  // guard throws — yet only 9 minimal cut sets, each of order 4.
  const auto subject = make_scaled_architecture(9, 1, 4);
  EXPECT_THROW(oracle::synthesize_fault_tree(*subject.model, subject.system), AnalysisError);

  const auto tree = fta::synthesize_fault_tree_zbdd(*subject.model, subject.system);
  EXPECT_FALSE(tree.truncated);
  ASSERT_EQ(tree.cut_sets.size(), 9u);
  for (const auto& cut : tree.cut_sets) EXPECT_EQ(cut.size(), 4u);

  const auto q = fta::quantify(tree, 10'000.0);
  EXPECT_GT(q.exact_probability, 0.0);
  EXPECT_LE(q.exact_probability, q.rare_event_bound + 1e-12);
}

TEST(FtaEngine, ScaledWidthOnePreservesSerialChain) {
  const auto wide_default = make_scaled_architecture(3, 2);
  const auto explicit_one = make_scaled_architecture(3, 2, 1);
  EXPECT_EQ(wide_default.element_count, explicit_one.element_count);
  const auto a = fta::synthesize_fault_tree_zbdd(*wide_default.model, wide_default.system);
  const auto b = fta::synthesize_fault_tree_zbdd(*explicit_one.model, explicit_one.system);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.cut_sets.size(), 3u);  // one order-1 cut per serial stage
}

TEST(FtaEngine, DeterministicTextAcrossRuns) {
  Lcg rng(42);
  Fixture f;
  build_random_subject(f, rng);
  const auto first = fta::synthesize_fault_tree_zbdd(f.m, f.sys).to_text();
  const auto second = fta::synthesize_fault_tree_zbdd(f.m, f.sys).to_text();
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Exact quantification
// ---------------------------------------------------------------------------

TEST(FtaQuantify, ClosedFormsSerialAndParallel) {
  const double t = 1000.0;
  const double p = 1.0 - std::exp(-1e-6 * t);  // 1000 FIT, dist 1.0

  Fixture serial;
  const auto a = serial.leaf("a", 1000, 1.0);
  const auto b = serial.leaf("b", 1000, 1.0);
  serial.m.connect(serial.sys, serial.in, a.in);
  serial.m.connect(serial.sys, a.out, b.in);
  serial.m.connect(serial.sys, b.out, serial.out);
  const auto qs = fta::quantify(fta::synthesize_fault_tree_zbdd(serial.m, serial.sys), t);
  // Exact: 1 - (1-p)^2; rare event: 2p.
  EXPECT_NEAR(qs.exact_probability, 1.0 - (1.0 - p) * (1.0 - p), 1e-12);
  EXPECT_NEAR(qs.rare_event_bound, 2.0 * p, 1e-12);
  EXPECT_LT(qs.exact_probability, qs.rare_event_bound);

  Fixture par;
  const auto c = par.leaf("c", 1000, 1.0);
  const auto d = par.leaf("d", 1000, 1.0);
  par.m.connect(par.sys, par.in, c.in);
  par.m.connect(par.sys, par.in, d.in);
  par.m.connect(par.sys, c.out, par.out);
  par.m.connect(par.sys, d.out, par.out);
  const auto qp = fta::quantify(fta::synthesize_fault_tree_zbdd(par.m, par.sys), t);
  // Single cut {c,d}: exact and rare-event coincide at p², and every member
  // is indispensable (repairing either zeroes the top event).
  EXPECT_NEAR(qp.exact_probability, p * p, 1e-15);
  EXPECT_NEAR(qp.rare_event_bound, p * p, 1e-15);
  ASSERT_EQ(qp.importance.size(), 2u);
  EXPECT_TRUE(qp.importance[0].indispensable);
  EXPECT_TRUE(qp.importance[1].indispensable);
}

TEST(FtaQuantify, ImportanceRanksSerialAboveRedundant) {
  // head in series with a parallel pair: head dominates every measure.
  Fixture f;
  const auto head = f.leaf("head", 500, 1.0);
  const auto left = f.leaf("left", 500, 1.0);
  const auto right = f.leaf("right", 500, 1.0);
  f.m.connect(f.sys, f.in, head.in);
  f.m.connect(f.sys, head.out, left.in);
  f.m.connect(f.sys, head.out, right.in);
  f.m.connect(f.sys, left.out, f.out);
  f.m.connect(f.sys, right.out, f.out);
  const auto q = fta::quantify(fta::synthesize_fault_tree_zbdd(f.m, f.sys), 10'000.0);
  ASSERT_EQ(q.importance.size(), 3u);
  EXPECT_EQ(q.importance[0].component, head.comp);  // FV-descending
  // head is in the dominant cut but not every cut: FV just below 1, and a
  // repaired head still leaves the {left,right} cut — not indispensable.
  EXPECT_GT(q.importance[0].fussell_vesely, 0.99);
  EXPECT_LT(q.importance[0].fussell_vesely, 1.0);
  EXPECT_GT(q.importance[0].fussell_vesely, q.importance[1].fussell_vesely);
  EXPECT_GT(q.importance[0].birnbaum, q.importance[1].birnbaum);
  EXPECT_GT(q.importance[0].raw, 1.0);
  EXPECT_FALSE(q.importance[0].indispensable);
  EXPECT_GT(q.importance[0].rrw, q.importance[1].rrw);
  for (const auto& row : q.importance) {
    EXPECT_TRUE(std::isfinite(row.birnbaum));
    EXPECT_TRUE(std::isfinite(row.fussell_vesely));
    EXPECT_TRUE(std::isfinite(row.raw));
    EXPECT_TRUE(std::isfinite(row.rrw));
  }
}

TEST(FtaQuantify, DegenerateInputsStayFinite) {
  // Zero-rate basic event (no loss mode): P(top) = 0 on its only cut.
  Fixture f;
  const auto a = f.leaf("a", 100, 0.0);  // structural, rate 0
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto tree = fta::synthesize_fault_tree_zbdd(f.m, f.sys);
  ASSERT_EQ(tree.cut_sets.size(), 1u);

  for (const double t : {0.0, 10'000.0}) {
    const auto q = fta::quantify(tree, t);
    EXPECT_EQ(q.exact_probability, 0.0);
    EXPECT_EQ(q.rare_event_bound, 0.0);
    ASSERT_EQ(q.importance.size(), 1u);
    const auto& row = q.importance[0];
    // P(top) = 0: FV defaults to 0, RAW/RRW to 1 — finite, never NaN.
    EXPECT_EQ(row.fussell_vesely, 0.0);
    EXPECT_EQ(row.raw, 1.0);
    EXPECT_EQ(row.rrw, 1.0);
    // Birnbaum stays meaningful: with the rest perfect, a is decisive.
    EXPECT_NEAR(row.birnbaum, 1.0, 1e-12);
    EXPECT_TRUE(std::isfinite(row.birnbaum));
  }

  // Mission time 0 on a live tree: all probabilities 0, importance finite.
  Fixture g;
  const auto b = g.leaf("b", 1000, 1.0);
  g.m.connect(g.sys, g.in, b.in);
  g.m.connect(g.sys, b.out, g.out);
  const auto q0 = fta::quantify(fta::synthesize_fault_tree_zbdd(g.m, g.sys), 0.0);
  EXPECT_EQ(q0.exact_probability, 0.0);
  ASSERT_EQ(q0.importance.size(), 1u);
  EXPECT_TRUE(std::isfinite(q0.importance[0].birnbaum));
  EXPECT_TRUE(std::isfinite(q0.importance[0].rrw));
}

TEST(FtaQuantify, RejectsNegativeOrNonFiniteMissionTime) {
  // A negative mission gave negative probabilities and NaN gave NaN; both
  // entry points now refuse them. Mission 0 is covered above.
  Fixture f;
  const auto a = f.leaf("a", 100, 1.0);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto tree = fta::synthesize_fault_tree_zbdd(f.m, f.sys);
  for (const double t : {-100.0, -1e-9, std::nan(""), std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(fta::quantify(tree, t), AnalysisError) << t;
    EXPECT_THROW(fta::cut_sets_csv(tree, t), AnalysisError) << t;
  }
  EXPECT_NO_THROW(fta::cut_sets_csv(tree, 0.0));
}

TEST(FtaQuantify, CutSetCsvCarriesTruncationWarning) {
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    const auto s = f.leaf("p" + std::to_string(i), 10, 1.0);
    f.m.connect(f.sys, f.in, s.in);
    f.m.connect(f.sys, s.out, f.out);
  }
  const auto clipped = fta::synthesize_fault_tree_zbdd(f.m, f.sys, {.max_order = 2});
  const auto csv = fta::cut_sets_csv(clipped, 10'000.0);
  ASSERT_FALSE(csv.rows.empty());
  EXPECT_EQ(csv.rows.back()[1], std::string(kFtaTruncationWarning));

  const auto full = fta::synthesize_fault_tree_zbdd(f.m, f.sys);
  const auto ok = fta::cut_sets_csv(full, 10'000.0);
  ASSERT_EQ(ok.rows.size(), 1u);
  EXPECT_EQ(ok.rows[0][0], "3");
}

// ---------------------------------------------------------------------------
// ISO 26262 latent / multi-point classification
// ---------------------------------------------------------------------------

namespace {

/// head → (left | right): head is the single-point fault, the pair are
/// multi-point (order-2 cut). Loss distributions below 1 leave non-loss FIT
/// out of the LFM entirely.
struct LfmFixture : Fixture {
  Sub head, left, right;
  LfmFixture() {
    head = leaf("head", 100, 0.5);
    left = leaf("left", 200, 0.5);
    right = leaf("right", 200, 0.5);
    m.connect(sys, in, head.in);
    m.connect(sys, head.out, left.in);
    m.connect(sys, head.out, right.in);
    m.connect(sys, left.out, out);
    m.connect(sys, right.out, out);
  }
};

const FmedaRow* loss_row(const FmedaResult& fmea, std::uint64_t component_id) {
  for (const auto& row : fmea.rows) {
    if (row.component_id == component_id && row.failure_mode == "Open") return &row;
  }
  return nullptr;
}

}  // namespace

TEST(FtaLfm, ClassifiesSingleAndMultiPointRows) {
  LfmFixture f;
  const auto tree = fta::synthesize_fault_tree_zbdd(f.m, f.sys);
  auto fmea = analyze_component(f.m, f.sys);
  const auto lfm = fta::classify_latent(f.m, tree, fmea);

  ASSERT_EQ(lfm.rows.size(), fmea.rows.size());
  EXPECT_TRUE(lfm.has_multi_point());

  size_t single = 0, latent = 0;
  for (const auto& row : lfm.rows) {
    if (row.cls == fta::FaultClass::SinglePoint) {
      ++single;
      EXPECT_EQ(fmea.rows[row.row_index].component_id, f.head.comp);
      EXPECT_EQ(row.min_cut_order, 1u);
    }
    if (row.cls == fta::FaultClass::MultiPointLatent) {
      ++latent;
      EXPECT_EQ(row.min_cut_order, 2u);
    }
  }
  EXPECT_EQ(single, 1u);
  EXPECT_EQ(latent, 2u);  // no coverage, not perceived: all residual is latent

  // No mechanisms deployed: everything multi-point is latent, LFM = 0.
  EXPECT_NEAR(lfm.latent_fit, 200.0, 1e-9);  // 2 × 200 FIT × 0.5 loss share
  EXPECT_NEAR(lfm.denominator_fit, 200.0, 1e-9);
  EXPECT_NEAR(lfm.lfm(), 0.0, 1e-12);
  EXPECT_EQ(lfm.asil_label(), achieved_asil_lfm(0.0));

  auto copy = fmea;
  fta::apply_lfm(copy, lfm);
  ASSERT_TRUE(copy.latent_fault_metric.has_value());
  EXPECT_NEAR(*copy.latent_fault_metric, 0.0, 1e-12);
}

TEST(FtaLfm, CoverageAndPerceptionSplitTheResidual) {
  LfmFixture f;
  // left's loss mode is 90% covered by a deployed mechanism; right's is
  // perceived by the driver.
  f.m.add_safety_mechanism(f.left.comp, "Monitor", 0.9, 2.0,
                           f.m.obj(f.left.comp).refs("failureModes").front());
  for (const ObjectId fm : f.m.obj(f.right.comp).refs("failureModes")) {
    f.m.obj(fm).set_bool("perceived", true);
  }

  const auto tree = fta::synthesize_fault_tree_zbdd(f.m, f.sys);
  auto fmea = analyze_component(f.m, f.sys);
  // The graph FMEA does not auto-deploy mechanisms onto rows; mirror the
  // deployment manually (what `same sm-search --apply` would do).
  for (auto& row : fmea.rows) {
    if (row.component_id == f.left.comp && row.failure_mode == "Open") {
      row.safety_mechanism = "Monitor";
      row.sm_coverage = 0.9;
    }
  }
  const auto lfm = fta::classify_latent(f.m, tree, fmea);

  ASSERT_NE(loss_row(fmea, f.left.comp), nullptr);
  bool saw_detected = false, saw_perceived = false;
  for (const auto& row : lfm.rows) {
    const auto& src = fmea.rows[row.row_index];
    if (src.component_id == f.left.comp && src.failure_mode == "Open") {
      // 100 FIT loss share: 90 detected, 10 latent → residual-latent class.
      EXPECT_NEAR(row.detected_fit, 90.0, 1e-9);
      EXPECT_NEAR(row.latent_fit, 10.0, 1e-9);
      EXPECT_EQ(row.cls, fta::FaultClass::MultiPointLatent);
      saw_detected = true;
    }
    if (src.component_id == f.right.comp && src.failure_mode == "Open") {
      EXPECT_NEAR(row.perceived_fit, 100.0, 1e-9);
      EXPECT_EQ(row.cls, fta::FaultClass::MultiPointPerceived);
      saw_perceived = true;
    }
  }
  EXPECT_TRUE(saw_detected);
  EXPECT_TRUE(saw_perceived);

  // LFM = 1 − latent/denominator = 1 − 10/200.
  EXPECT_NEAR(lfm.lfm(), 1.0 - 10.0 / 200.0, 1e-12);
  const auto text = lfm.to_text();
  EXPECT_NE(text.find("latent"), std::string::npos);
}

TEST(FtaLfm, RowWeightsSelectMultiPointRows) {
  LfmFixture f;
  const auto tree = fta::synthesize_fault_tree_zbdd(f.m, f.sys);
  auto fmea = analyze_component(f.m, f.sys);
  const auto lfm = fta::classify_latent(f.m, tree, fmea);
  const auto weights = fta::lfm_row_weights(lfm);
  ASSERT_EQ(weights.size(), fmea.rows.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    const bool multi = lfm.rows[i].min_cut_order >= 2;
    EXPECT_EQ(weights[i], multi ? 1.0 : 0.0) << "row " << i;
  }
}

TEST(FtaLfm, WeightedParetoMatchesExhaustiveOracle) {
  LfmFixture f;
  const auto tree = fta::synthesize_fault_tree_zbdd(f.m, f.sys);
  auto fmea = analyze_component(f.m, f.sys);
  const auto weights = fta::lfm_row_weights(fta::classify_latent(f.m, tree, fmea));

  SafetyMechanismModel catalogue;
  catalogue.add({"Component", "Open", "Cheap", 0.60, 1.0});
  catalogue.add({"Component", "Open", "Good", 0.90, 4.0});
  catalogue.add({"Component", "Open", "Best", 0.99, 9.0});
  for (auto& row : fmea.rows) row.component_type = "Component";

  ParetoOptions options;
  options.row_weights = weights;
  const auto front = pareto_front(fmea, catalogue, options);
  const auto oracle = pareto_front_exhaustive(fmea, catalogue, 2'000'000, weights);
  ASSERT_EQ(front.size(), oracle.size());
  for (size_t i = 0; i < front.size(); ++i) {
    EXPECT_NEAR(front[i].spfm, oracle[i].spfm, 1e-12) << "point " << i;
    EXPECT_NEAR(front[i].total_cost_hours, oracle[i].total_cost_hours, 1e-12);
  }
  // The weighted metric only moves when multi-point rows gain coverage: the
  // undeployed point scores 0, full deployment approaches 1.
  EXPECT_NEAR(front.front().spfm, 0.0, 1e-12);
  EXPECT_GT(front.back().spfm, 0.98);

  // Wrong-sized weights are rejected, not silently misaligned.
  ParetoOptions bad;
  bad.row_weights = {1.0};
  EXPECT_THROW(pareto_front(fmea, catalogue, bad), AnalysisError);

  const auto csv = front_to_csv(fmea, front, ParetoMetric::Lfm);
  ASSERT_GE(csv.header.size(), 3u);
  EXPECT_EQ(csv.header[1], "LFM");
}

TEST(FtaLfm, TargetsFollowIso26262) {
  EXPECT_EQ(lfm_target("ASIL-D"), kLfmTargetAsilD);
  EXPECT_EQ(lfm_target("b"), kLfmTargetAsilB);
  EXPECT_EQ(lfm_target("QM"), 0.0);
  EXPECT_TRUE(meets_asil_lfm(0.95, "ASIL-D"));
  EXPECT_FALSE(meets_asil_lfm(0.85, "ASIL-D"));
  EXPECT_EQ(achieved_asil_lfm(0.95), "ASIL-D");
  EXPECT_EQ(achieved_asil_lfm(0.65), "ASIL-B");
  EXPECT_THROW(lfm_target("ASIL-Z"), AnalysisError);
}

// ---------------------------------------------------------------------------
// Pinned outputs
// ---------------------------------------------------------------------------

namespace {

void append_hex(std::string& bytes, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%a;", value);
  bytes += buffer;
}

/// FNV-1a digest of everything one `fta` run emits on `root` at `max_order`:
/// the tree text, the cut-set CSV, every quantification double as %a, the
/// LFM classification against a cold graph FMEA, the synthesis' arena size
/// and its `states` / `state_cache_hits` counter deltas.
std::uint64_t fta_digest(SsamModel& m, ObjectId root, size_t max_order) {
  auto& registry = obs::Registry::global();
  auto& states = registry.counter("decisive_fta_states_total");
  auto& hits = registry.counter("decisive_fta_state_cache_hits_total");
  const auto states0 = states.value();
  const auto hits0 = hits.value();
  const auto tree = fta::synthesize_fault_tree_zbdd(m, root, {.max_order = max_order});
  std::string bytes = tree.to_text();
  bytes += "states " + std::to_string(states.value() - states0) + " hits " +
           std::to_string(hits.value() - hits0) + " nodes " +
           std::to_string(registry.gauge("decisive_fta_zbdd_nodes").value()) + "\n";
  for (const double mission : {10'000.0, 0.5}) {
    bytes += write_csv(fta::cut_sets_csv(tree, mission));
    const auto q = fta::quantify(tree, mission);
    append_hex(bytes, q.exact_probability);
    append_hex(bytes, q.rare_event_bound);
    for (const auto& row : q.importance) {
      bytes += std::to_string(row.component) + " " + row.label + " ";
      for (const double v :
           {row.probability, row.birnbaum, row.fussell_vesely, row.raw, row.rrw}) {
        append_hex(bytes, v);
      }
      bytes += row.indispensable ? "!\n" : "\n";
    }
  }
  const auto fmea = analyze_component(m, root);
  const auto lfm = fta::classify_latent(m, tree, fmea);
  for (const auto& row : lfm.rows) {
    bytes += std::to_string(row.row_index) + " " + std::string(fta::to_string(row.cls)) + " " +
             std::to_string(row.min_cut_order) + " ";
    for (const double v : {row.detected_fit, row.perceived_fit, row.latent_fit}) {
      append_hex(bytes, v);
    }
    bytes += "\n";
  }
  for (const double v : {lfm.single_point_residual_fit, lfm.multi_point_fit, lfm.detected_fit,
                         lfm.perceived_fit, lfm.latent_fit, lfm.denominator_fit, lfm.lfm()}) {
    append_hex(bytes, v);
  }
  return fnv1a64(bytes);
}

/// Two decided states of this subject leave the same free vertices and the
/// same reachability rows but for one member that moves between adjacent
/// rows: state A (Z1 perfect, Z2 failed) reaches t from y, state B (Z1
/// failed, Z2 perfect) from x. Their residual families differ ({Y} against
/// {X, Y}, {T, Y}), and only the row delimiter of the state key tells the
/// two apart. Z1 and Z2 each have an output node fed from the system input,
/// so the BFS variable order decides them first.
ObjectId build_row_split_subject(SsamModel& m) {
  const auto pkg = m.create_component_package("design");
  const ObjectId sys = m.create_component(pkg, "sys");
  const ObjectId in = m.add_io_node(sys, "in", "in");
  const ObjectId out = m.add_io_node(sys, "out", "out");
  const auto unit = [&](const std::string& name, double fit) {
    const ObjectId c = m.create_component(sys, name);
    m.obj(c).set_real("fit", fit);
    m.add_failure_mode(c, "Open", 0.5, "lossOfFunction");
    return c;
  };
  ObjectId early[2];
  ObjectId detour_in[2];
  ObjectId detour_out[2];
  for (int k = 0; k < 2; ++k) {
    const std::string name = "Z" + std::to_string(k + 1);
    const ObjectId z = unit(name, 30.0 + 10.0 * k);
    early[k] = m.add_io_node(z, name + ".early", "out");
    detour_in[k] = m.add_io_node(z, name + ".in", "in");
    detour_out[k] = m.add_io_node(z, name + ".out", "out");
  }
  const ObjectId x = m.add_io_node(unit("X", 11.0), "x", "inout");
  const ObjectId y = m.add_io_node(unit("Y", 13.0), "y", "inout");
  const ObjectId t = m.add_io_node(unit("T", 17.0), "t", "inout");
  for (const auto& [from, to] : std::vector<std::pair<ObjectId, ObjectId>>{
           {in, early[0]}, {in, early[1]}, {in, x}, {in, y},  // the system input
           {early[0], y}, {y, detour_in[0]}, {detour_out[0], t},   // y → Z1 → t
           {early[1], x}, {x, detour_in[1]}, {detour_out[1], t},   // x → Z2 → t
           {x, y}, {y, out}, {t, out}}) {
    m.connect(sys, from, to);
  }
  return sys;
}

struct PinnedSubject {
  const char* name;  ///< "scaled", "brake_chain" or "row_split"
  size_t composites, leaves, width;
  std::uint64_t digest[4];  ///< at max_order 0, 1, 2, 3
};

}  // namespace

TEST(FtaEngine, OutputsArePinnedBitForBit) {
  // Digests recorded before the flat-table rewrite of the ZBDD arena, the
  // decomposer's state keys and the quantifier's memos: every byte the
  // engine emits, and how many states it expanded and reused, must stay put.
  const PinnedSubject subjects[] = {
      {"scaled", 9, 1, 5,
       {0xfddb3113b0a2f55aull, 0x1a5c463972c618e2ull,
        0x42404ef2c8c8f8b8ull, 0x142b42f3a1fe66a0ull}},
      {"scaled", 6, 2, 3,
       {0xbba3098ec702c384ull, 0x1b47f11ff1218df2ull,
        0x2112ccfdd5eaa3a1ull, 0xdb06e7323df1297dull}},
      {"scaled", 4, 3, 4,
       {0xef0d43ff62dacfbdull, 0x562497624b106446ull,
        0x9652d9f209522932ull, 0xcb33f06e12959c56ull}},
      {"scaled", 12, 1, 3,
       {0x38006ddb5bf6c86cull, 0x6617c69b0fb69f0bull,
        0xb91920a78c236b9eull, 0x3d006fbec9c41830ull}},
      {"scaled", 3, 2, 6,
       {0xa874cee0b9a7b950ull, 0xb3e867ff4fa0e4b5ull,
        0xbf5668b9c4dc9296ull, 0x99bae9e102a311bbull}},
      {"scaled", 5, 1, 8,
       {0xa51b9786809ba0beull, 0x7197a42fd25084acull,
        0xcf7571c93514b60dull, 0xa0b7304ad379cb05ull}},
      {"scaled", 40, 32, 1,
       {0x1c9fa57358bebedfull, 0x1c9fa57358bebedfull,
        0x1c9fa57358bebedfull, 0x1c9fa57358bebedfull}},
      {"scaled", 8, 4, 1,
       {0xf6adfdb78d7e66bbull, 0xf6adfdb78d7e66bbull,
        0xf6adfdb78d7e66bbull, 0xf6adfdb78d7e66bbull}},
      {"brake_chain", 0, 0, 0,
       {0x7b747710e8354754ull, 0x7b747710e8354754ull,
        0x7b747710e8354754ull, 0x7b747710e8354754ull}},
      {"row_split", 0, 0, 0,
       {0x114275fbffc8a8eeull, 0x3487d5e5b6477b50ull,
        0x6a2b5559486813aaull, 0xd36fe860c957402bull}},
  };
  std::string recorded;
  bool all_match = true;
  for (const auto& subject : subjects) {
    SyntheticSystem scaled;
    SsamModel brake;
    SsamModel* m = &brake;
    ObjectId root = model::kNullObject;
    if (std::string_view(subject.name) == "brake_chain") {
      model::load_xmi_file(brake.repo(), brake.meta(), DECISIVE_ASSETS_DIR "/brake_chain.ssam");
      root = brake.find_by_name(ssam::cls::Component, "BrakeChain");
    } else if (std::string_view(subject.name) == "row_split") {
      root = build_row_split_subject(brake);
    } else {
      scaled = make_scaled_architecture(subject.composites, subject.leaves, subject.width);
      m = scaled.model.get();
      root = scaled.system;
    }
    char line[160];
    std::snprintf(line, sizeof line, "      {\"%s\", %zu, %zu, %zu,\n       {", subject.name,
                  subject.composites, subject.leaves, subject.width);
    recorded += line;
    for (size_t order = 0; order < 4; ++order) {
      const std::uint64_t digest = fta_digest(*m, root, order);
      all_match = all_match && digest == subject.digest[order];
      static constexpr const char* kAfter[] = {", ", ",\n        ", ", ", "}},\n"};
      std::snprintf(line, sizeof line, "0x%016llxull%s",
                    static_cast<unsigned long long>(digest), kAfter[order]);
      recorded += line;
    }
  }
  EXPECT_TRUE(all_match) << "digests now:\n" << recorded;
}
