// Cross-cutting property tests: invariants that must hold across the
// whole configuration space (index strategies, tolerances, thread counts,
// branching factors) plus failure injection for misbehaving black boxes.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/optimizer.h"
#include "core/sim_runner.h"
#include "core/symbolic.h"
#include "interactive/interactive_session.h"
#include "markov/chain_runner.h"
#include "markov/markov_models.h"
#include "models/cloud_models.h"

namespace jigsaw {
namespace {

// ---------------------------------------------------------------------------
// Index strategies are interchangeable: identical results and identical
// basis-store evolution (candidate sets are supersets of true matches and
// the store is canonical — two mappable bases would have been merged at
// insertion).
// ---------------------------------------------------------------------------

class IndexEquivalenceTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(IndexEquivalenceTest, SweepResultsIdenticalToArrayOracle) {
  BlackBoxSimFunction fn(MakeCapacityModel({}));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{0, 15, 1}}).ok());
  ASSERT_TRUE(space.Add({"p1", RangeDomain{0, 12, 4}}).ok());
  ASSERT_TRUE(space.Add({"p2", RangeDomain{0, 12, 6}}).ok());

  RunConfig oracle_cfg;
  oracle_cfg.num_samples = 300;
  oracle_cfg.index_kind = IndexKind::kArray;
  SimulationRunner oracle(oracle_cfg);
  const auto expected = oracle.RunSweep(fn, space);

  RunConfig cfg = oracle_cfg;
  cfg.index_kind = GetParam();
  SimulationRunner runner(cfg);
  const auto actual = runner.RunSweep(fn, space);

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_DOUBLE_EQ(actual[i].metrics.mean, expected[i].metrics.mean)
        << "point " << i;
    EXPECT_DOUBLE_EQ(actual[i].metrics.stddev, expected[i].metrics.stddev);
    EXPECT_EQ(actual[i].reused, expected[i].reused) << "point " << i;
  }
  EXPECT_EQ(runner.basis_store().size(), oracle.basis_store().size());
}

INSTANTIATE_TEST_SUITE_P(AllIndexKinds, IndexEquivalenceTest,
                         ::testing::Values(IndexKind::kArray,
                                           IndexKind::kNormalization,
                                           IndexKind::kSortedSid),
                         [](const auto& info) {
                           return IndexKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Tolerance sweep: mappings accepted within tolerance, rejected beyond.
// ---------------------------------------------------------------------------

class ToleranceTest : public ::testing::TestWithParam<double> {};

TEST_P(ToleranceTest, PerturbationAcceptedIffWithinTolerance) {
  const double tol = GetParam();
  const std::vector<double> base = {0.5, 1.5, 2.5, 3.5, 4.5, 5.5};
  std::vector<double> mapped;
  for (double x : base) mapped.push_back(2.0 * x + 1.0);

  // Clean map: always found.
  EXPECT_TRUE(FindLinearMapping(Fingerprint(base), Fingerprint(mapped), tol));

  // Perturb one non-pivot entry by 10x the tolerance: must be rejected.
  std::vector<double> bad = mapped;
  bad[4] *= 1.0 + 20.0 * tol;
  EXPECT_FALSE(FindLinearMapping(Fingerprint(base), Fingerprint(bad), tol));

  // Perturb well inside tolerance: must still be accepted.
  std::vector<double> ok = mapped;
  ok[4] *= 1.0 + 0.01 * tol;
  EXPECT_TRUE(FindLinearMapping(Fingerprint(base), Fingerprint(ok), tol));
}

INSTANTIATE_TEST_SUITE_P(Tolerances, ToleranceTest,
                         ::testing::Values(1e-12, 1e-9, 1e-6, 1e-3));

// ---------------------------------------------------------------------------
// Markov branching sweep: the fingerprint instances of the jump runner
// are always stepped honestly, so they agree with the naive runner bit
// for bit at every branching factor.
// ---------------------------------------------------------------------------

class BranchingTest : public ::testing::TestWithParam<double> {};

TEST_P(BranchingTest, FingerprintInstancesExactAtAllBranchings) {
  MarkovBranchConfig mcfg;
  mcfg.branching = GetParam();
  MarkovBranchProcess process(mcfg);
  RunConfig cfg;
  cfg.num_samples = 60;
  cfg.fingerprint_size = 8;
  NaiveChainRunner naive(cfg);
  MarkovJumpRunner jump(cfg);
  const auto a = naive.Run(process, 96);
  const auto b = jump.Run(process, 96);
  for (std::size_t k = 0; k < cfg.fingerprint_size; ++k) {
    EXPECT_DOUBLE_EQ(a.final_states[k], b.final_states[k])
        << "instance " << k << " branching " << GetParam();
  }
  // Work never exceeds the naive runner's by more than the checkpointing
  // overhead bound (each honest step costs m, plus estimator probes).
  EXPECT_LE(b.stats.step_invocations,
            a.stats.step_invocations + 96 * cfg.fingerprint_size);
}

INSTANTIATE_TEST_SUITE_P(Branchings, BranchingTest,
                         ::testing::Values(0.0, 1e-4, 1e-3, 1e-2, 0.05,
                                           0.25));

// ---------------------------------------------------------------------------
// Failure injection: models returning NaN / Inf must not crash, corrupt
// the index, or leak into other points' results.
// ---------------------------------------------------------------------------

SimFunctionPtr PoisonedDemand() {
  auto model = MakeDemandModel({});
  return std::make_shared<CallableSimFunction>(
      "poisoned",
      [model](std::span<const double> p, std::size_t k,
              const SeedVector& seeds) {
        if (p[0] == 13.0) return std::numeric_limits<double>::quiet_NaN();
        if (p[0] == 17.0) return std::numeric_limits<double>::infinity();
        return InvokeSeeded(*model, p, seeds.seed(k));
      });
}

class PoisonTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(PoisonTest, NaNAndInfPointsAreIsolated) {
  auto fn = PoisonedDemand();
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{10, 20, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());

  RunConfig cfg;
  cfg.num_samples = 100;
  cfg.index_kind = GetParam();
  SimulationRunner runner(cfg);
  const auto results = runner.RunSweep(*fn, space);
  ASSERT_EQ(results.size(), 11u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double week = 10.0 + static_cast<double>(i);
    if (week == 13.0) {
      EXPECT_TRUE(std::isnan(results[i].metrics.mean));
      EXPECT_FALSE(results[i].reused);  // NaN never maps
    } else if (week == 17.0) {
      // Welford over all-infinite samples degrades to NaN (inf - inf);
      // either way the poison must stay visible, never a finite number.
      EXPECT_FALSE(std::isfinite(results[i].metrics.mean));
    } else {
      // Healthy points are unaffected by their poisoned neighbors.
      EXPECT_TRUE(std::isfinite(results[i].metrics.mean));
      EXPECT_NEAR(results[i].metrics.mean, week, 2.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexKinds, PoisonTest,
                         ::testing::Values(IndexKind::kArray,
                                           IndexKind::kNormalization,
                                           IndexKind::kSortedSid),
                         [](const auto& info) {
                           return IndexKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Determinism across full configurations.
// ---------------------------------------------------------------------------

TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  BlackBoxSimFunction fn(MakeOverloadModel({}));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{30, 45, 1}}).ok());
  ASSERT_TRUE(space.Add({"p1", SetDomain{{36.0}}}).ok());
  ASSERT_TRUE(space.Add({"p2", SetDomain{{44.0}}}).ok());
  RunConfig cfg;
  cfg.num_samples = 250;
  SimulationRunner r1(cfg);
  SimulationRunner r2(cfg);
  const auto a = r1.RunSweep(fn, space);
  const auto b = r2.RunSweep(fn, space);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metrics.mean, b[i].metrics.mean);
    EXPECT_EQ(a[i].reused, b[i].reused);
    EXPECT_EQ(a[i].basis_id, b[i].basis_id);
  }
}

TEST(DeterminismTest, InteractiveSessionsReplayIdentically) {
  auto fn =
      std::make_shared<BlackBoxSimFunction>(MakeDemandModel({}));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 20, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  InteractiveConfig cfg;
  cfg.run.num_samples = 200;
  cfg.max_samples = 200;

  InteractiveSession s1(fn, space, cfg);
  InteractiveSession s2(fn, space, cfg);
  ASSERT_TRUE(s1.SetFocus(5).ok());
  ASSERT_TRUE(s2.SetFocus(5).ok());
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(s1.Tick(), s2.Tick()) << "tick " << i;
  }
  const auto e1 = s1.EstimateFor(5);
  const auto e2 = s2.EstimateFor(5);
  EXPECT_EQ(e1.mean, e2.mean);
  EXPECT_EQ(e1.support, e2.support);
  EXPECT_EQ(s1.stats().evaluations, s2.stats().evaluations);
}

TEST(DeterminismTest, MasterSeedChangesResultsButNotDecisionsShape) {
  BlackBoxSimFunction fn(MakeDemandModel({}));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 10, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  RunConfig cfg;
  cfg.num_samples = 400;
  SimulationRunner r1(cfg);
  cfg.master_seed ^= 0x1234567;
  SimulationRunner r2(cfg);
  const auto a = r1.RunSweep(fn, space);
  const auto b = r2.RunSweep(fn, space);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].metrics.mean != b[i].metrics.mean) any_difference = true;
    // Both unbiased estimates of the same expectation.
    EXPECT_NEAR(a[i].metrics.mean, b[i].metrics.mean,
                8 * (a[i].metrics.std_error + b[i].metrics.std_error));
  }
  EXPECT_TRUE(any_difference);  // different seeds, different samples
  // Structure (one basis for the whole demand sweep) is seed-independent.
  EXPECT_EQ(r1.basis_store().size(), r2.basis_store().size());
}

// ---------------------------------------------------------------------------
// Optimizer with mixed aggregates and multiple constraints.
// ---------------------------------------------------------------------------

TEST(OptimizerPropertyTest, MultipleConstraintsIntersect) {
  CloudModelConfig mcfg;
  Scenario scenario;
  ASSERT_TRUE(scenario.params.Add({"week", RangeDomain{30, 50, 5}}).ok());
  ASSERT_TRUE(
      scenario.params.Add({"purchase", RangeDomain{20, 44, 4}}).ok());
  auto overload = MakeOverloadModel(mcfg);
  auto capacity = MakeCapacityModel(mcfg);
  scenario.columns.push_back(ScenarioColumn{
      "overload", std::make_shared<CallableSimFunction>(
                      "overload",
                      [overload](std::span<const double> p, std::size_t k,
                                 const SeedVector& seeds) {
                        const std::vector<double> a = {p[0], p[1], p[1]};
                        return InvokeSeeded(*overload, a, seeds.seed(k), 1);
                      })});
  scenario.columns.push_back(ScenarioColumn{
      "capacity", std::make_shared<CallableSimFunction>(
                      "capacity",
                      [capacity](std::span<const double> p, std::size_t k,
                                 const SeedVector& seeds) {
                        const std::vector<double> a = {p[0], p[1], p[1]};
                        return InvokeSeeded(*capacity, a, seeds.seed(k), 2);
                      })});

  RunConfig cfg;
  cfg.num_samples = 300;
  SimulationRunner runner(cfg);
  Optimizer optimizer(&runner);

  OptimizeSpec spec;
  spec.group_params = {"purchase"};
  // Risk bound (MAX over weeks) + average capacity floor (AVG over weeks).
  spec.constraints.push_back(MetricConstraint{
      SweepAgg::kMax, MetricSelector::kExpect, "overload", CmpOp::kLt, 0.6});
  spec.constraints.push_back(MetricConstraint{
      SweepAgg::kAvg, MetricSelector::kExpect, "capacity", CmpOp::kGe,
      50.0});
  spec.objectives.push_back(ObjectiveTerm{"purchase", true});

  auto result = optimizer.Run(scenario, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& r = result.value();
  // Both constraint LHS values are recorded for every group.
  for (const auto& g : r.groups) {
    ASSERT_EQ(g.constraint_lhs.size(), 2u);
    // Feasibility is exactly the conjunction of the two comparisons.
    const bool expected =
        g.constraint_lhs[0] < 0.6 && g.constraint_lhs[1] >= 50.0;
    EXPECT_EQ(g.feasible, expected);
  }
  // A very late purchase violates the capacity floor: not every group is
  // feasible, and the chosen group (if any) satisfies both bounds.
  if (r.found) {
    const auto* best = &r.groups[0];
    for (const auto& g : r.groups) {
      if (g.group_valuation == r.best_valuation) best = &g;
    }
    EXPECT_TRUE(best->feasible);
  }
}

// ---------------------------------------------------------------------------
// Symbolic closure properties.
// ---------------------------------------------------------------------------

TEST(SymbolicPropertyTest, AffineAlgebraClosesOverSameBasis) {
  std::vector<double> basis = {0.3, -1.2, 2.7, 0.9};
  SymbolicVar x(0, &basis, 2.0, -1.0);
  SymbolicVar y(0, &basis, -0.5, 3.0);
  auto sum = x.Add(y, nullptr);
  auto diff = x.Sub(y, nullptr);
  ASSERT_TRUE(sum.ok());
  ASSERT_TRUE(diff.ok());
  for (std::size_t k = 0; k < basis.size(); ++k) {
    EXPECT_NEAR(sum.value().SampleAt(k), x.SampleAt(k) + y.SampleAt(k),
                1e-12);
    EXPECT_NEAR(diff.value().SampleAt(k), x.SampleAt(k) - y.SampleAt(k),
                1e-12);
  }
  // (X + Y) - Y == X, symbolically.
  auto back = sum.value().Sub(y, nullptr);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back.value().alpha(), x.alpha(), 1e-12);
  EXPECT_NEAR(back.value().beta(), x.beta(), 1e-12);
}

TEST(SymbolicPropertyTest, ProbGreaterIsComplementary) {
  std::vector<double> b1 = {1.0, 5.0, 3.0, 7.0, 2.0};
  std::vector<double> b2 = {2.0, 4.0, 4.0, 6.0, 1.0};
  SymbolicVar x(0, &b1, 1.0, 0.0);
  SymbolicVar y(1, &b2, 1.0, 0.0);
  const double pxy = x.ProbGreater(y).value();
  const double pyx = y.ProbGreater(x).value();
  // No ties in this data: probabilities are complementary.
  EXPECT_DOUBLE_EQ(pxy + pyx, 1.0);
}

}  // namespace
}  // namespace jigsaw
