// Focused tests for behaviours not covered by the per-module suites:
// optimizer degenerate forms, selector-less optimization, graph rendering
// geometry, layered-engine failure paths, chain-scenario output salts,
// and SQL report formatting.

#include <gtest/gtest.h>

#include <cmath>

#include "core/optimizer.h"
#include "core/sim_runner.h"
#include "interactive/ascii_graph.h"
#include "markov/markov_models.h"
#include "models/cloud_models.h"
#include "pdb/layered_engine.h"
#include "sql/script_runner.h"

namespace jigsaw {
namespace {

// ---------------------------------------------------------------------------
// Optimizer degenerate forms
// ---------------------------------------------------------------------------

Scenario TinyScenario() {
  Scenario scenario;
  EXPECT_TRUE(scenario.params.Add({"p", SetDomain{{1.0, 2.0, 3.0}}}).ok());
  auto model = MakeDemandModel({});
  scenario.columns.push_back(ScenarioColumn{
      "d", std::make_shared<CallableSimFunction>(
               "d", [model](std::span<const double> v, std::size_t k,
                            const SeedVector& seeds) {
                 const std::vector<double> args = {v[0] * 10.0, 52.0};
                 return InvokeSeeded(*model, args, seeds.seed(k));
               })});
  return scenario;
}

TEST(OptimizerEdgeTest, NoObjectivesFirstFeasibleWins) {
  Scenario scenario = TinyScenario();
  OptimizeSpec spec;
  spec.group_params = {"p"};
  spec.constraints.push_back(MetricConstraint{
      SweepAgg::kMax, MetricSelector::kExpect, "d", CmpOp::kGt, 5.0});
  // No FOR clause: the selector has no terms and the first feasible group
  // is kept.
  RunConfig cfg;
  cfg.num_samples = 100;
  SimulationRunner runner(cfg);
  Optimizer optimizer(&runner);
  auto result = optimizer.Run(scenario, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().found);
  // p=1 -> demand mean 10 > 5: the first group already qualifies.
  EXPECT_DOUBLE_EQ(result.value().best_valuation[0], 1.0);
}

TEST(OptimizerEdgeTest, AllParamsGrouped_NoSweepDimension) {
  Scenario scenario = TinyScenario();
  OptimizeSpec spec;
  spec.group_params = {"p"};  // the only parameter
  spec.constraints.push_back(MetricConstraint{
      SweepAgg::kAvg, MetricSelector::kExpect, "d", CmpOp::kGe, 0.0});
  spec.objectives.push_back(ObjectiveTerm{"p", false});  // FOR MIN @p
  RunConfig cfg;
  cfg.num_samples = 50;
  SimulationRunner runner(cfg);
  Optimizer optimizer(&runner);
  auto result = optimizer.Run(scenario, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().found);
  EXPECT_DOUBLE_EQ(result.value().best_valuation[0], 1.0);  // minimized
  // Each group evaluated exactly one sweep point (the empty sweep).
  EXPECT_EQ(result.value().points_simulated, 3u);
}

TEST(OptimizerEdgeTest, SumAggregateAccumulatesOverSweep) {
  Scenario scenario;
  ASSERT_TRUE(scenario.params.Add({"g", SetDomain{{1.0}}}).ok());
  ASSERT_TRUE(scenario.params.Add({"s", SetDomain{{1.0, 2.0, 3.0}}}).ok());
  scenario.columns.push_back(ScenarioColumn{
      "x", std::make_shared<CallableSimFunction>(
               "x", [](std::span<const double> v, std::size_t,
                       const SeedVector&) { return v[1]; })});
  OptimizeSpec spec;
  spec.group_params = {"g"};
  spec.constraints.push_back(MetricConstraint{
      SweepAgg::kSum, MetricSelector::kExpect, "x", CmpOp::kGe, 5.9});
  RunConfig cfg;
  cfg.num_samples = 10;
  SimulationRunner runner(cfg);
  Optimizer optimizer(&runner);
  auto result = optimizer.Run(scenario, spec);
  ASSERT_TRUE(result.ok());
  // Sum over sweep = 1+2+3 = 6 >= 5.9.
  EXPECT_TRUE(result.value().found);
  EXPECT_NEAR(result.value().groups[0].constraint_lhs[0], 6.0, 1e-9);
}

// ---------------------------------------------------------------------------
// ASCII graph geometry
// ---------------------------------------------------------------------------

TEST(AsciiGraphGeometryTest, RespectsRequestedDimensions) {
  AsciiSeries s;
  s.label = "line";
  for (int i = 0; i < 50; ++i) {
    s.x.push_back(i);
    s.y.push_back(i);
  }
  AsciiGraphOptions opts;
  opts.width = 40;
  opts.height = 10;
  opts.legend = false;
  const std::string out = RenderAsciiGraph({s}, opts);
  // Plot rows = height, plus two border rows and the x-label row.
  int rows = 0;
  for (char c : out) rows += c == '\n' ? 1 : 0;
  EXPECT_EQ(rows, 10 + 3);
  EXPECT_EQ(out.find("line"), std::string::npos);  // legend disabled
}

TEST(AsciiGraphGeometryTest, MinimumSizeClamped) {
  AsciiSeries s;
  s.label = "dot";
  s.x = {0.0};
  s.y = {1.0};
  AsciiGraphOptions opts;
  opts.width = 1;   // clamped to 8
  opts.height = 1;  // clamped to 4
  const std::string out = RenderAsciiGraph({s}, opts);
  EXPECT_NE(out.find('*'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Layered engine failure paths
// ---------------------------------------------------------------------------

TEST(LayeredEngineEdgeTest, PlanFactoryErrorPropagates) {
  RunConfig cfg;
  cfg.num_samples = 3;
  pdb::LayeredEngine engine(cfg);
  auto r = engine.RunPoint(
      []() -> Result<pdb::PlanNodePtr> {
        return Status::Internal("boom");
      },
      std::vector<double>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(LayeredEngineEdgeTest, MultiRowPlanRejected) {
  RunConfig cfg;
  cfg.num_samples = 1;
  pdb::LayeredEngine engine(cfg);
  auto r = engine.RunPoint(
      []() -> Result<pdb::PlanNodePtr> {
        pdb::Table t(pdb::Schema(
            std::vector<pdb::Column>{{"x", pdb::ValueType::kDouble}}));
        JIGSAW_RETURN_IF_ERROR(t.AddRow({pdb::Value(1.0)}));
        JIGSAW_RETURN_IF_ERROR(t.AddRow({pdb::Value(2.0)}));
        return pdb::MakeOwnedTableScan(std::move(t));
      },
      std::vector<double>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

// ---------------------------------------------------------------------------
// Chain scenario: output salt independence
// ---------------------------------------------------------------------------

TEST(ChainOutputTest, OutputDrawsIndependentOfStepDraws) {
  // The observable extraction at a step must not perturb (or reuse) the
  // transition randomness of that step: output salts differ from step
  // salts.
  MarkovStepProcess process((MarkovStepConfig()));
  SeedVector seeds(99, 4);
  const double release[] = {52.0};
  double out1 = 0.0, out2 = 0.0;
  process.OutputBatch(release, 10, 0, seeds, {&out1, 1});
  process.OutputBatch(release, 10, 0, seeds, {&out2, 1});
  EXPECT_EQ(out1, out2);  // deterministic
  // The observable is the week's demand drawn from the output stream; the
  // same demand drawn from the step's stream differs with overwhelming
  // probability (distinct salts).
  RandomStream output_rng = seeds.StreamFor(0, MarkovOutputSalt(10));
  EXPECT_EQ(out1, process.Demand(10.0, 52.0, output_rng));
  RandomStream step_rng = seeds.StreamFor(0, MarkovStepSalt(10));
  EXPECT_NE(out1, process.Demand(10.0, 52.0, step_rng));
}

// ---------------------------------------------------------------------------
// Script report formatting
// ---------------------------------------------------------------------------

TEST(ReportTest, MentionsReuseAndBases) {
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());
  RunConfig cfg;
  cfg.num_samples = 100;
  sql::ScriptRunner runner(&registry, cfg);
  auto outcome = runner.Run(
      "DECLARE PARAMETER @w AS RANGE 1 TO 20 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "GRAPH OVER @w EXPECT d;");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const std::string report = outcome.value().Report();
  EXPECT_NE(report.find("GRAPH over @w"), std::string::npos);
  EXPECT_NE(report.find("reused"), std::string::npos);
  EXPECT_NE(report.find("basis"), std::string::npos);
}

TEST(ReportTest, OptimizeResultNamesParameters) {
  OptimizeResult r;
  r.found = true;
  r.group_param_names = {"purchase1", "purchase2"};
  r.best_valuation = {36.0, 44.0};
  r.groups.resize(2);
  r.groups[0].feasible = true;
  const std::string s = r.ToString();
  EXPECT_NE(s.find("@purchase1=36"), std::string::npos);
  EXPECT_NE(s.find("@purchase2=44"), std::string::npos);
  EXPECT_NE(s.find("1/2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Estimator reuse statistics surface in PointResult
// ---------------------------------------------------------------------------

TEST(PointResultTest, ReusedPointRecordsMappingAndBasis) {
  BlackBoxSimFunction fn(MakeDemandModel({}));
  RunConfig cfg;
  cfg.num_samples = 120;
  SimulationRunner runner(cfg);
  const auto first = runner.RunPoint(fn, std::vector<double>{5.0, 52.0});
  EXPECT_FALSE(first.reused);
  EXPECT_TRUE(first.mapping.IsIdentity());

  const auto second = runner.RunPoint(fn, std::vector<double>{20.0, 52.0});
  ASSERT_TRUE(second.reused);
  EXPECT_EQ(second.basis_id, first.basis_id);
  // Mapping week 5 (sd = sqrt(0.5)) to week 20 (sd = 2): alpha = 2.
  EXPECT_NEAR(second.mapping.alpha,
              std::sqrt(0.1 * 20.0) / std::sqrt(0.1 * 5.0), 1e-9);
  EXPECT_EQ(runner.basis_store().Get(first.basis_id).reuse_count, 1u);
}

}  // namespace
}  // namespace jigsaw
