// End-to-end integration tests. The central invariant is the paper's
// Section 6.2 accuracy claim: "outputs of Jigsaw are equivalent to full
// simulation for each possible parameter value" — we run whole scenarios
// twice (fingerprinting on/off) and require matching decisions and
// metrics wherever exact linear mappings hold.

#include <gtest/gtest.h>

#include <cmath>

#include "core/optimizer.h"
#include "core/sim_runner.h"
#include "interactive/auto_prime.h"
#include "interactive/interactive_session.h"
#include "models/cloud_models.h"
#include "sql/chain_process.h"
#include "sql/script_runner.h"

namespace jigsaw {
namespace {

constexpr const char* kFigure1Small = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 24 STEP BY 2;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 16 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 16 STEP BY 8;
DECLARE PARAMETER @feature_release AS SET (12,36);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
)";

RunConfig TestConfig(bool fingerprints) {
  RunConfig cfg;
  cfg.num_samples = 400;
  cfg.fingerprint_size = 10;
  cfg.use_fingerprints = fingerprints;
  return cfg;
}

TEST(IntegrationTest, Figure1JigsawAndNaiveSelectSameOptimum) {
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());

  sql::ScriptRunner fast(&registry, TestConfig(true));
  sql::ScriptRunner slow(&registry, TestConfig(false));
  auto a = fast.Run(kFigure1Small);
  auto b = slow.Run(kFigure1Small);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(a.value().optimize.has_value());
  ASSERT_TRUE(b.value().optimize.has_value());

  const auto& fast_opt = *a.value().optimize;
  const auto& slow_opt = *b.value().optimize;
  EXPECT_EQ(fast_opt.found, slow_opt.found);
  if (fast_opt.found) {
    EXPECT_EQ(fast_opt.best_valuation, slow_opt.best_valuation);
  }
  // Group-level feasibility decisions must agree everywhere.
  ASSERT_EQ(fast_opt.groups.size(), slow_opt.groups.size());
  for (std::size_t g = 0; g < fast_opt.groups.size(); ++g) {
    EXPECT_EQ(fast_opt.groups[g].feasible, slow_opt.groups[g].feasible)
        << "group " << g;
  }
  // And the accelerated run must actually have reused work.
  EXPECT_GT(a.value().runner_stats.points_reused, 0u);
  EXPECT_LT(a.value().runner_stats.blackbox_invocations,
            b.value().runner_stats.blackbox_invocations);
}

TEST(IntegrationTest, DemandSweepMetricsMatchNaivePointwise) {
  // Where a linear mapping exists, reused metrics are *exact* (linearity
  // of expectation), not merely statistically close.
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);

  SimulationRunner fast(TestConfig(true));
  SimulationRunner slow(TestConfig(false));

  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 40, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());

  const auto fast_results = fast.RunSweep(fn, space);
  const auto slow_results = slow.RunSweep(fn, space);
  ASSERT_EQ(fast_results.size(), slow_results.size());
  for (std::size_t i = 0; i < fast_results.size(); ++i) {
    const auto& fm = fast_results[i].metrics;
    const auto& sm = slow_results[i].metrics;
    EXPECT_NEAR(fm.mean, sm.mean, 1e-7 * (1 + std::fabs(sm.mean)))
        << "point " << i;
    EXPECT_NEAR(fm.stddev, sm.stddev, 1e-7 * (1 + sm.stddev)) << i;
    EXPECT_NEAR(fm.min, sm.min, 1e-7 * (1 + std::fabs(sm.min))) << i;
    EXPECT_NEAR(fm.max, sm.max, 1e-7 * (1 + std::fabs(sm.max))) << i;
  }
  // ~40 points served by very few bases.
  EXPECT_LE(fast.basis_store().size(), 4u);
}

TEST(IntegrationTest, CapacitySweepSharesBasesAcrossPurchaseDeltas) {
  // The Capacity insight of Section 6.2: points with the same
  // purchase-to-week deltas share a distribution, no matter when the
  // purchase happened. 'week 10 / purchase 6' must map onto
  // 'week 24 / purchase 20' (both are "4 weeks after one purchase").
  CloudModelConfig mcfg;
  auto model = MakeCapacityModel(mcfg);
  BlackBoxSimFunction fn(model);
  SimulationRunner runner(TestConfig(true));

  const auto r1 =
      runner.RunPoint(fn, std::vector<double>{10.0, 6.0, 50.0});
  const auto r2 =
      runner.RunPoint(fn, std::vector<double>{24.0, 20.0, 64.0});
  EXPECT_TRUE(r2.reused);
  EXPECT_EQ(r2.basis_id, r1.basis_id);
  EXPECT_TRUE(r2.mapping.IsIdentity());
}

TEST(IntegrationTest, SeedReuseDoesNotBiasComparisons) {
  // Section 6.2: "using same set of seeds for different parameter values
  // introduces correlated error terms ... but the Selector only compares,
  // and never combines". Verify the estimator outputs for two parameter
  // values are each individually unbiased against fresh-seed runs.
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);

  RunConfig shared_cfg = TestConfig(true);
  shared_cfg.num_samples = 3000;
  SimulationRunner shared(shared_cfg);
  RunConfig fresh_cfg = shared_cfg;
  fresh_cfg.master_seed = 0x0DDBA11;
  SimulationRunner fresh(fresh_cfg);

  for (double week : {10.0, 30.0}) {
    const std::vector<double> params = {week, 52.0};
    const double a = shared.RunPoint(fn, params).metrics.mean;
    const double b = fresh.RunPoint(fn, params).metrics.mean;
    // Both are Monte Carlo estimates of mean = week.
    EXPECT_NEAR(a, week, 0.25);
    EXPECT_NEAR(b, week, 0.25);
  }
}

TEST(IntegrationTest, ChainScenarioJumpSpeedupPreservesDecision) {
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());
  const char* kChain = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
  FROM @current_week : @current_week - 1 INITIAL VALUE 52;
SELECT CASE WHEN demand > 20 AND @current_week + 4 < @release_week
            THEN @current_week + 4 ELSE @release_week END AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results;
)";
  auto bound = sql::ParseAndBind(kChain, registry);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  RunConfig cfg;
  cfg.num_samples = 500;
  cfg.fingerprint_size = 10;

  ChainRunStats naive_stats, jump_stats;
  auto naive = sql::RunChainScenario(bound.value(), "release_week", 40, cfg,
                                     false, &naive_stats);
  auto jump = sql::RunChainScenario(bound.value(), "release_week", 40, cfg,
                                    true, &jump_stats);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(jump.ok());
  // Release week settles near the crossing (~20) + 4 lead weeks.
  EXPECT_NEAR(naive.value().mean, jump.value().mean, 1.5);
  EXPECT_LT(jump_stats.step_invocations, naive_stats.step_invocations);
}

TEST(IntegrationTest, MonteCarloSweepPrimesInteractiveSession) {
  // MONTECARLO OVER @w -> InteractiveSession: the sweep's per-point
  // summaries prime the session's point states, so every swept point is
  // addressable (with the sweep's full support) from the very first tick.
  // The sweep's world ids are the session's sample ids — same master
  // seed, same scenario column — so ticks validate the imported draws
  // instead of rebinding.
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());
  const char* kScript = R"(
DECLARE PARAMETER @w AS RANGE 10 TO 14 STEP BY 1;
SELECT DemandModel(@w, 52) AS demand INTO r;
MONTECARLO OVER @w;
)";
  RunConfig cfg;
  cfg.num_samples = 80;
  cfg.num_threads = 2;
  cfg.keep_samples = true;
  sql::ScriptRunner runner(&registry, cfg);
  auto outcome = runner.Run(kScript);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const auto& mc = outcome.value().montecarlo;
  ASSERT_TRUE(mc.has_value());
  ASSERT_EQ(mc->points.size(), 5u);

  InteractiveConfig icfg;
  icfg.run = cfg;
  ParameterSpace space = outcome.value().bound.scenario.params;
  InteractiveSession session(outcome.value().bound.scenario.columns[0].fn,
                             space, icfg);
  for (std::size_t point = 0; point < mc->points.size(); ++point) {
    ASSERT_TRUE(
        session.PrimeFromSweep(point,
                               mc->points[point].columns.at("demand"))
            .ok());
    const DisplayEstimate est = session.EstimateFor(point);
    ASSERT_TRUE(est.available) << "point " << point;
    EXPECT_EQ(est.support, 80);
    EXPECT_NEAR(est.mean, mc->points[point].columns.at("demand").mean,
                1e-9);
  }
  // Ticks refine on top: the imported draws are the session's own, so no
  // validation failure ever rebinds a primed point.
  ASSERT_TRUE(session.SetFocus(2).ok());
  session.Run(50);
  EXPECT_EQ(session.stats().rebinds, 0u);
  EXPECT_GE(session.EstimateFor(2).support, 80);
}

TEST(IntegrationTest, MakeSessionFromOutcomeRejectsOffGridSweepPoint) {
  // An explicit OVER list may sweep values off the declared grid; such a
  // point has no session point to prime, so the whole call fails, naming
  // the parameter, and no session is returned.
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());
  const char* kScript = R"(
DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;
SELECT DemandModel(@w, 52) AS demand INTO r;
MONTECARLO OVER @w IN (10, 15);
)";
  RunConfig cfg;
  cfg.num_samples = 40;
  cfg.keep_samples = true;
  sql::ScriptRunner runner(&registry, cfg);
  auto outcome = runner.Run(kScript);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  InteractiveConfig icfg;
  icfg.run = cfg;
  auto session = MakeSessionFromOutcome(outcome.value(), "demand", icfg);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("'@w'"), std::string::npos)
      << session.status().ToString();
  EXPECT_NE(session.status().message().find("15"), std::string::npos)
      << session.status().ToString();
}

}  // namespace
}  // namespace jigsaw
