// Tests for the Jigsaw query language: lexer, parser (Figure 1 / Figure 5
// syntax), binder (name resolution, call-site assignment, chain
// validation) and the end-to-end script runner.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "boxed_reference.h"
#include "core/fingerprint.h"
#include "grid_test_util.h"
#include "models/cloud_models.h"
#include "pdb/layered_engine.h"
#include "point_loop_reference.h"
#include "random/draw_memo.h"
#include "sql/binder.h"
#include "sql/chain_process.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/script_runner.h"
#include "util/string_util.h"

namespace jigsaw::sql {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesBasicQuery) {
  auto tokens = Lex("SELECT a, @p FROM t;");
  ASSERT_TRUE(tokens.ok());
  const auto& ts = tokens.value();
  ASSERT_EQ(ts.size(), 8u);  // SELECT a , @p FROM t ; <end>
  EXPECT_EQ(ts[0].kind, TokenKind::kIdent);
  EXPECT_EQ(ts[0].text, "SELECT");
  EXPECT_EQ(ts[2].kind, TokenKind::kSymbol);
  EXPECT_EQ(ts[3].kind, TokenKind::kParam);
  EXPECT_EQ(ts[3].text, "p");
  EXPECT_EQ(ts.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Lex("42 2.5 1e3 'hi there'");
  ASSERT_TRUE(tokens.ok());
  const auto& ts = tokens.value();
  EXPECT_DOUBLE_EQ(ts[0].number, 42.0);
  EXPECT_DOUBLE_EQ(ts[1].number, 2.5);
  EXPECT_DOUBLE_EQ(ts[2].number, 1000.0);
  EXPECT_EQ(ts[3].kind, TokenKind::kString);
  EXPECT_EQ(ts[3].text, "hi there");
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Lex("-- DEFINITION --\nSELECT x -- trailing\n");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens.value().size(), 3u);  // SELECT x <end>
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = Lex("a <= b >= c <> d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[1].text, "<=");
  EXPECT_EQ(tokens.value()[3].text, ">=");
  EXPECT_EQ(tokens.value()[5].text, "<>");
  EXPECT_EQ(tokens.value()[7].text, "!=");
}

TEST(LexerTest, TracksLinePositions) {
  auto tokens = Lex("a\nbb\n  c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].line, 1u);
  EXPECT_EQ(tokens.value()[1].line, 2u);
  EXPECT_EQ(tokens.value()[2].line, 3u);
  EXPECT_EQ(tokens.value()[2].column, 3u);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("@ x").ok());       // bare @
  EXPECT_FALSE(Lex("'unclosed").ok());  // unterminated string
  EXPECT_FALSE(Lex("a $ b").ok());      // stray character
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, DeclareRange) {
  auto script = ParseScript(
      "DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script.value().statements.size(), 1u);
  const auto& d = *script.value().statements[0].declare;
  EXPECT_EQ(d.param, "current_week");
  ASSERT_TRUE(d.range.has_value());
  EXPECT_DOUBLE_EQ(d.range->lo, 0);
  EXPECT_DOUBLE_EQ(d.range->hi, 52);
  EXPECT_DOUBLE_EQ(d.range->step, 1);
}

TEST(ParserTest, DeclareSetAndNegativeNumbers) {
  auto script =
      ParseScript("DECLARE PARAMETER @f AS SET (12, -36, 44.5);");
  ASSERT_TRUE(script.ok());
  const auto& d = *script.value().statements[0].declare;
  ASSERT_TRUE(d.set.has_value());
  ASSERT_EQ(d.set->values.size(), 3u);
  EXPECT_DOUBLE_EQ(d.set->values[1], -36.0);
}

TEST(ParserTest, DeclareChainFigure5Syntax) {
  auto script = ParseScript(
      "DECLARE PARAMETER @release_week AS CHAIN release_week "
      "FROM @current_week : @current_week - 1 INITIAL VALUE 52;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const auto& d = *script.value().statements[0].declare;
  ASSERT_TRUE(d.chain.has_value());
  EXPECT_EQ(d.chain->column, "release_week");
  EXPECT_EQ(d.chain->driver_param, "current_week");
  EXPECT_DOUBLE_EQ(d.chain->initial, 52.0);
  EXPECT_EQ(d.chain->source_step->ToString(), "(@current_week - 1)");
}

TEST(ParserTest, Figure1QueryParses) {
  // The batch-mode query of the paper's Figure 1, verbatim modulo model
  // names.
  const char* kQuery = R"(
-- DEFINITION --
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release)
         AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2)
         AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END
         AS overload
INTO results;
-- BATCH MODE --
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
)";
  auto script = ParseScript(kQuery);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script.value().statements.size(), 6u);

  const auto& sel = *script.value().statements[4].select;
  ASSERT_EQ(sel.items.size(), 3u);
  EXPECT_EQ(sel.items[0].alias, "demand");
  EXPECT_EQ(sel.items[2].alias, "overload");
  EXPECT_EQ(sel.into_table, "results");

  const auto& opt = *script.value().statements[5].optimize;
  EXPECT_EQ(opt.select_params.size(), 3u);
  EXPECT_EQ(opt.from_table, "results");
  ASSERT_EQ(opt.constraints.size(), 1u);
  EXPECT_EQ(opt.constraints[0].sweep_agg, "MAX");
  EXPECT_EQ(opt.constraints[0].metric, "EXPECT");
  EXPECT_EQ(opt.constraints[0].column, "overload");
  EXPECT_EQ(opt.constraints[0].cmp, "<");
  EXPECT_DOUBLE_EQ(opt.constraints[0].threshold, 0.01);
  ASSERT_EQ(opt.group_by.size(), 3u);
  ASSERT_EQ(opt.objectives.size(), 2u);
  EXPECT_TRUE(opt.objectives[0].maximize);
  EXPECT_EQ(opt.objectives[0].param, "purchase1");
}

TEST(ParserTest, GraphQueryParses) {
  auto script = ParseScript(
      "DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;"
      "SELECT 1 AS overload, 2 AS capacity, 3 AS demand INTO results;"
      "GRAPH OVER @current_week "
      "EXPECT overload WITH bold red, "
      "EXPECT capacity WITH blue y2, "
      "EXPECT_STDDEV demand WITH orange y2");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const auto& g = *script.value().statements[2].graph;
  EXPECT_EQ(g.x_param, "current_week");
  ASSERT_EQ(g.series.size(), 3u);
  EXPECT_EQ(g.series[0].metric, "EXPECT");
  EXPECT_EQ(g.series[0].column, "overload");
  EXPECT_EQ(g.series[0].style, (std::vector<std::string>{"bold", "red"}));
  EXPECT_EQ(g.series[2].metric, "EXPECT_STDDEV");
}

TEST(ParserTest, SubqueryFromClause) {
  auto script = ParseScript(
      "SELECT ReleaseWeekModel(demand) AS release_week, demand "
      "FROM (SELECT DemandModel(@w, @r) AS demand) INTO results;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const auto& sel = *script.value().statements[0].select;
  ASSERT_NE(sel.from_subquery, nullptr);
  ASSERT_EQ(sel.from_subquery->items.size(), 1u);
  EXPECT_EQ(sel.from_subquery->items[0].alias, "demand");
  // `demand` without AS keeps its own name as alias.
  EXPECT_EQ(sel.items[1].alias, "demand");
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = ParseExpression("1 + 2 * 3 < 10 - 2");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->ToString(), "((1 + (2 * 3)) < (10 - 2))");
  auto e2 = ParseExpression("(1 + 2) * 3");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2.value()->ToString(), "((1 + 2) * 3)");
  auto e3 = ParseExpression("NOT a AND b OR c");
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(e3.value()->ToString(), "((NOT a AND b) OR c)");
  auto e4 = ParseExpression("-x * 2");
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(e4.value()->ToString(), "(-x * 2)");
}

TEST(ParserTest, ErrorsCarryPositions) {
  auto bad = ParseScript("DECLARE PARAMETER current_week AS RANGE 0 TO 5;");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(bad.status().message().find("@parameter"), std::string::npos);
}

TEST(ParserTest, RejectsMalformedStatements) {
  EXPECT_FALSE(ParseScript("SELECT;").ok());
  EXPECT_FALSE(ParseScript("DECLARE PARAMETER @p AS TRIANGLE 1;").ok());
  EXPECT_FALSE(ParseScript("OPTIMIZE SELECT @p FROM t GROUP BY;").ok());
  EXPECT_FALSE(ParseScript("GRAPH OVER @p BOGUS col;").ok());
  EXPECT_FALSE(ParseScript("SELECT CASE END;").ok());
  EXPECT_FALSE(ParseScript("FROB x;").ok());
}

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterCloudModels(&registry_).ok());
  }
  ModelRegistry registry_;
};

constexpr const char* kFigure1 = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 20 STEP BY 2;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 16 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 16 STEP BY 8;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.5
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
)";

TEST_F(BinderTest, BindsFigure1Scenario) {
  auto bound = ParseAndBind(kFigure1, registry_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const auto& b = bound.value();
  EXPECT_EQ(b.scenario.params.num_params(), 4u);
  ASSERT_EQ(b.scenario.columns.size(), 3u);
  EXPECT_EQ(b.scenario.columns[2].name, "overload");
  EXPECT_EQ(b.scenario.into_table, "results");
  ASSERT_TRUE(b.optimize.has_value());
  EXPECT_EQ(b.optimize->group_params.size(), 3u);
  EXPECT_FALSE(b.chain.has_value());

  // The overload column must be evaluable and boolean.
  SeedVector seeds(42, 4);
  const auto v = b.scenario.params.ValuationAt(0);
  const double overload = b.scenario.columns[2].fn->Sample(v, 0, seeds);
  EXPECT_TRUE(overload == 0.0 || overload == 1.0);
}

TEST_F(BinderTest, AliasReferenceCrossColumnIsConsistent) {
  // `overload` recomputes demand and capacity through alias refs; the
  // values must be the same draws the sibling columns produced (same
  // call sites, same world).
  auto bound = ParseAndBind(kFigure1, registry_);
  ASSERT_TRUE(bound.ok());
  const auto& b = bound.value();
  SeedVector seeds(43, 8);
  const auto v = b.scenario.params.ValuationAt(5);
  for (std::size_t k = 0; k < 8; ++k) {
    const double demand = b.scenario.columns[0].fn->Sample(v, k, seeds);
    const double capacity = b.scenario.columns[1].fn->Sample(v, k, seeds);
    const double overload = b.scenario.columns[2].fn->Sample(v, k, seeds);
    EXPECT_DOUBLE_EQ(overload, capacity < demand ? 1.0 : 0.0);
  }
}

TEST_F(BinderTest, BindsFigure5ChainScenario) {
  const char* kFigure5 = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
  FROM @current_week : @current_week - 1 INITIAL VALUE 52;
SELECT CASE WHEN demand > 26 AND @current_week + 4 < @release_week
            THEN @current_week + 4 ELSE @release_week END AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results;
)";
  auto bound = ParseAndBind(kFigure5, registry_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const auto& b = bound.value();
  ASSERT_TRUE(b.chain.has_value());
  EXPECT_EQ(b.chain->chain_param_index, 1u);
  EXPECT_EQ(b.chain->driver_param_index, 0u);
  EXPECT_EQ(b.chain->source_column_index, 0u);
  EXPECT_DOUBLE_EQ(b.chain->initial, 52.0);
  ASSERT_EQ(b.program->inner_names.size(), 1u);
  EXPECT_EQ(b.program->inner_names[0], "demand");
}

TEST_F(BinderTest, ErrorUnknownModel) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT GhostModel(@w) AS g INTO r;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotFound);
}

TEST_F(BinderTest, ErrorWrongArity) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w) AS d INTO r;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("2 argument"),
            std::string::npos);
}

TEST_F(BinderTest, ErrorUndeclaredParameter) {
  auto bound = ParseAndBind("SELECT DemandModel(@w, 52) AS d INTO r;",
                            registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("undeclared"), std::string::npos);
}

TEST_F(BinderTest, ErrorUnresolvedColumn) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT mystery + 1 AS x INTO r;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("unresolved column"),
            std::string::npos);
}

TEST_F(BinderTest, ErrorForwardAliasReference) {
  // Aliases resolve strictly left to right (Figure 1 semantics).
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT later + 1 AS x, 2 AS later INTO r;",
      registry_);
  EXPECT_FALSE(bound.ok());
}

TEST_F(BinderTest, ErrorOptimizeTableMismatch) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 4 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO results;"
      "OPTIMIZE SELECT @w FROM other GROUP BY w FOR MAX @w;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("INTO"), std::string::npos);
}

TEST_F(BinderTest, ErrorChainUnsupportedLag) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "DECLARE PARAMETER @r AS CHAIN d FROM @w : @w - 2 INITIAL VALUE 9;"
      "SELECT DemandModel(@w, @r) AS d INTO results;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kUnimplemented);
}

TEST_F(BinderTest, ErrorNoSelect) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;", registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("no SELECT"), std::string::npos);
}

TEST_F(BinderTest, DeclareParameterRejectionsAreBindErrors) {
  // Every ParameterSpace::Add rejection the parser lets through is a
  // BindError in a script, like every other bind-time rejection, and
  // names the parameter it rejects.
  struct Case {
    std::string declarations;
    std::string param;   ///< the rejected parameter, as the error names it
    std::string reason;  ///< a fragment of Add's message
  };
  const Case cases[] = {
      {"DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 0;", "'@w'",
       "non-positive STEP"},
      {"DECLARE PARAMETER @w AS RANGE 5 TO 0;", "'@w'", "empty RANGE"},
      {"DECLARE PARAMETER @w AS RANGE 0 TO 1e400;", "'@w'", "non-finite"},
      {"DECLARE PARAMETER @w AS RANGE 0 TO 1e30;", "'@w'",
       "spans more than"},
      {"DECLARE PARAMETER @w AS SET (1, 1e400);", "'@w'",
       "non-finite SET value"},
      {"DECLARE PARAMETER @w AS RANGE 0 TO 5;"
       "DECLARE PARAMETER @W AS SET (1, 2);",
       "'@W'", "declared twice"},
      {"DECLARE PARAMETER @a AS RANGE 0 TO 67108863;"
       "DECLARE PARAMETER @b AS RANGE 0 TO 67108863;"
       "DECLARE PARAMETER @c AS RANGE 0 TO 67108863;",
       "'@c'", "overflow"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.declarations);
    auto bound =
        ParseAndBind(c.declarations + "SELECT 1 AS x INTO r;", registry_);
    ASSERT_FALSE(bound.ok());
    EXPECT_EQ(bound.status().code(), StatusCode::kBindError)
        << bound.status().ToString();
    EXPECT_NE(bound.status().message().find(c.param), std::string::npos)
        << bound.status().ToString();
    EXPECT_NE(bound.status().message().find(c.reason), std::string::npos)
        << bound.status().ToString();
  }
}

TEST_F(BinderTest, OptimizeForParameterMustBeGrouped) {
  // @w is declared but swept, not grouped: the Selector ranks groups by
  // their FOR parameters, so it has no @w to rank by.
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 4 STEP BY 1;"
      "DECLARE PARAMETER @p AS SET (1, 2);"
      "SELECT DemandModel(@w, @p) AS d INTO results;"
      "OPTIMIZE SELECT @p FROM results GROUP BY p FOR MAX @w;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kBindError)
      << bound.status().ToString();
  EXPECT_NE(bound.status().message().find("'@w'"), std::string::npos)
      << bound.status().ToString();
  EXPECT_NE(bound.status().message().find("not a GROUP BY parameter"),
            std::string::npos)
      << bound.status().ToString();
}

TEST_F(BinderTest, OptimizeGroupByParameterListedTwice) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 4 STEP BY 1;"
      "DECLARE PARAMETER @p AS SET (1, 2);"
      "SELECT DemandModel(@w, @p) AS d INTO results;"
      "OPTIMIZE SELECT @p FROM results GROUP BY p, P FOR MAX @p;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kBindError)
      << bound.status().ToString();
  EXPECT_NE(bound.status().message().find("'@P' twice"), std::string::npos)
      << bound.status().ToString();
}

TEST_F(BinderTest, OptimizeSelectParameterMustBeDeclared) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 4 STEP BY 1;"
      "DECLARE PARAMETER @p AS SET (1, 2);"
      "SELECT DemandModel(@w, @p) AS d INTO results;"
      "OPTIMIZE SELECT @p, @nosuch FROM results GROUP BY p FOR MAX @p;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kBindError)
      << bound.status().ToString();
  EXPECT_NE(bound.status().message().find("undeclared '@nosuch'"),
            std::string::npos)
      << bound.status().ToString();
}

TEST_F(BinderTest, OptimizeSelectParameterMustBeGrouped) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 4 STEP BY 1;"
      "DECLARE PARAMETER @p AS SET (1, 2);"
      "SELECT DemandModel(@w, @p) AS demand INTO results;"
      "OPTIMIZE SELECT @w FROM results WHERE MAX(EXPECT demand) < 100 "
      "GROUP BY p FOR MAX @p;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kBindError)
      << bound.status().ToString();
  EXPECT_NE(bound.status().message().find(
                "'@w' is not a GROUP BY parameter"),
            std::string::npos)
      << bound.status().ToString();
}

// ---------------------------------------------------------------------------
// ScriptRunner end-to-end
// ---------------------------------------------------------------------------

TEST_F(BinderTest, ScriptRunnerExecutesFigure1Optimize) {
  RunConfig cfg;
  cfg.num_samples = 200;
  cfg.fingerprint_size = 10;
  ScriptRunner runner(&registry_, cfg);
  auto outcome = runner.Run(kFigure1);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const auto& o = outcome.value();
  ASSERT_TRUE(o.optimize.has_value());
  // 3 features x 3 purchase1 x 3 purchase2 = 27 groups.
  EXPECT_EQ(o.optimize->groups.size(), 27u);
  EXPECT_GT(o.runner_stats.points_evaluated, 0u);
  // Fingerprint reuse must have kicked in across the sweep.
  EXPECT_GT(o.runner_stats.points_reused, 0u);
  EXPECT_NE(o.Report().find("points evaluated"), std::string::npos);
}

TEST_F(BinderTest, ScriptRunnerProducesGraphData) {
  const char* kGraph = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 20 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 16 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 16 STEP BY 8;
SELECT DemandModel(@current_week, 52) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity
INTO results;
GRAPH OVER @current_week
  EXPECT demand WITH bold red,
  EXPECT capacity WITH blue y2
)";
  RunConfig cfg;
  cfg.num_samples = 100;
  ScriptRunner runner(&registry_, cfg);
  auto outcome = runner.Run(kGraph, {{"purchase1", 8.0}});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const auto& g = outcome.value().graph;
  ASSERT_TRUE(g.has_value());
  ASSERT_EQ(g->points.size(), 21u);
  ASSERT_EQ(g->points[0].y.size(), 2u);
  // Demand at week 20 ~ 20; capacity starts at the base of 40 cores.
  EXPECT_NEAR(g->points[20].y[0], 20.0, 2.0);
  EXPECT_GE(g->points[0].y[1], 39.0);
}

TEST_F(BinderTest, ScriptRunnerRejectsOverrideOfUnknownParam) {
  const char* kGraph =
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "GRAPH OVER @w EXPECT d;";
  RunConfig cfg;
  cfg.num_samples = 50;
  ScriptRunner runner(&registry_, cfg);
  EXPECT_FALSE(runner.Run(kGraph, {{"ghost", 1.0}}).ok());
}

// ---------------------------------------------------------------------------
// OPTIMIZE on the grid: at every (threads, batch) point, what an OPTIMIZE
// decides and what it costs, against values recorded from the Optimizer's
// per-point loop (one RunPoint per sweep point and constraint), which
// preceded its request batches.
// ---------------------------------------------------------------------------

/// The found flag, the bits of the best valuation and of each group's
/// constraint left-hand sides (group major), each group's feasibility
/// ('1' or '0'), RunnerStats {evaluated, reused, invocations}, the basis
/// count and BasisStoreStats {lookups, hits, misses, candidates tested,
/// false positives}.
struct OptimizeSummary {
  bool found = false;
  std::vector<std::uint64_t> best_valuation;
  std::vector<std::uint64_t> constraint_lhs;
  std::string feasible;
  std::array<std::uint64_t, 3> runner_stats{};
  std::uint64_t bases = 0;
  std::array<std::uint64_t, 5> store_stats{};

  bool operator==(const OptimizeSummary&) const = default;
};

/// Prints a summary as the initializer that records it.
void PrintTo(const OptimizeSummary& s, std::ostream* os) {
  const auto list = [os](const auto& xs, bool hex) {
    *os << "{";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) *os << ", ";
      if (hex) {
        *os << "0x" << std::hex << std::uppercase << xs[i] << std::dec
            << "ULL";
      } else {
        *os << xs[i];
      }
    }
    *os << "}";
  };
  *os << "{" << (s.found ? "true" : "false") << ",\n ";
  list(s.best_valuation, true);
  *os << ",\n ";
  list(s.constraint_lhs, true);
  *os << ",\n \"" << s.feasible << "\",\n ";
  list(s.runner_stats, false);
  *os << ", " << s.bases << ", ";
  list(s.store_stats, false);
  *os << "}";
}

OptimizeSummary Summarize(const OptimizeResult& result,
                          const SimulationRunner& runner) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  OptimizeSummary s;
  s.found = result.found;
  for (double v : result.best_valuation) s.best_valuation.push_back(bits(v));
  for (const GroupEvaluation& g : result.groups) {
    for (double lhs : g.constraint_lhs) s.constraint_lhs.push_back(bits(lhs));
    s.feasible += g.feasible ? '1' : '0';
  }
  const RunnerStats& rs = runner.stats();
  s.runner_stats = {rs.points_evaluated, rs.points_reused,
                    rs.blackbox_invocations};
  s.bases = runner.basis_store().size();
  const BasisStoreStats& bs = runner.basis_store().stats();
  s.store_stats = {bs.lookups, bs.hits, bs.misses, bs.candidates_tested,
                   bs.false_positive_candidates};
  return s;
}

class OptimizerGridTest : public BinderTest {
 protected:
  /// Binds `script` and runs its OPTIMIZE (n = 200, m = 10, seed 1) at
  /// every grid point, expecting `want` at each.
  void ExpectGrid(const std::string& script, bool use_fingerprints,
                  const OptimizeSummary& want) {
    auto bound = ParseAndBind(script, registry_);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    const BoundScript& b = bound.value();
    ASSERT_TRUE(b.optimize.has_value());
    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      RunConfig cfg;
      cfg.num_samples = 200;
      cfg.fingerprint_size = 10;
      cfg.master_seed = 1;
      cfg.use_fingerprints = use_fingerprints;
      cfg.num_threads = threads;
      cfg.batch_size = batch;
      SimulationRunner runner(cfg);
      auto result = Optimizer(&runner).Run(b.scenario, *b.optimize);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Summarize(result.value(), runner), want);
    });
  }

  static std::string CorpusScript(const std::string& name) {
    std::ifstream in(std::string(JIGSAW_SQL_CORPUS_DIR) + "/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }
};

// Figure 1 at test scale: 18 groups of 13 weeks, one constraint. No week
// up to 24 overloads, so every group's left-hand side is 0 and the stats
// and the basis store carry the rest.
TEST_F(OptimizerGridTest, Figure1SmallNaive) {
  const std::string script = CorpusScript("figure1_small.sql");
  ASSERT_FALSE(script.empty());
  ExpectGrid(script, /*use_fingerprints=*/false,
             {true,
              {0x4028000000000000ULL, 0x4030000000000000ULL,
               0x4030000000000000ULL},
              std::vector<std::uint64_t>(18, 0x0ULL),
              "111111111111111111",
              {234, 0, 46800},
              0,
              {0, 0, 0, 0, 0}});
}

TEST_F(OptimizerGridTest, Figure1SmallFingerprints) {
  const std::string script = CorpusScript("figure1_small.sql");
  ASSERT_FALSE(script.empty());
  ExpectGrid(script, /*use_fingerprints=*/true,
             {true,
              {0x4028000000000000ULL, 0x4030000000000000ULL,
               0x4030000000000000ULL},
              std::vector<std::uint64_t>(18, 0x0ULL),
              "111111111111111111",
              {234, 233, 2530},
              1,
              {234, 233, 1, 233, 0}});
}

// Two constraints read demand, so each sweep point's second demand
// request repeats its first: when the first misses, the second maps a
// basis whose metrics the same batch has yet to compute.
TEST_F(OptimizerGridTest, TwoConstraintsOnOneColumn) {
  ExpectGrid(R"(
DECLARE PARAMETER @week AS RANGE 0 TO 40 STEP BY 4;
DECLARE PARAMETER @purchase AS SET (8, 20, 32);
SELECT DemandModel(@week, @purchase) AS demand,
       CapacityModel(@week, @purchase, 36) AS capacity
INTO results;
OPTIMIZE SELECT @purchase FROM results
WHERE MAX(EXPECT demand) < 45 AND AVG(P95 demand) < 25
  AND AVG(EXPECT capacity) > 46
GROUP BY purchase
FOR MAX @purchase
)",
             /*use_fingerprints=*/true,
             {true,
              {0x4034000000000000ULL},
              {0x40474E956919A044ULL, 0x4039C8C65ECB428CULL,
               0x404B40D0860D0860ULL, 0x404618045C833CA2ULL,
               0x4037AA8D20FD4EF1ULL, 0x4048CC736EC736ECULL,
               0x4044E0E4E360A20EULL, 0x4036753D43207543ULL,
               0x4046581657816578ULL},
              "010",
              {99, 96, 1560},
              3,
              {99, 96, 3, 96, 0}});
}

// Each group's sweep is one request longer than the Optimizer's request
// window, so it runs as two batches. Capacity stays one constant basis
// until the purchases land, so each group's last week is a new basis that
// only the second batch reaches.
TEST_F(OptimizerGridTest, SweepOneRequestLongerThanAWindow) {
  static_assert(Optimizer::kRequestWindow + 1 == 4097);
  ExpectGrid(R"(
DECLARE PARAMETER @week AS RANGE 0 TO 4096 STEP BY 1;
DECLARE PARAMETER @p1 AS SET (4094, 4095);
SELECT CapacityModel(@week, @p1, 4095) AS capacity INTO results;
OPTIMIZE SELECT @p1 FROM results
WHERE SUM(EXPECT capacity) > 163900
GROUP BY p1
FOR MIN @p1
)",
             /*use_fingerprints=*/true,
             {true,
              {0x40AFFC0000000000ULL},
              {0x410402031EB851EBULL, 0x410401AB47AE147BULL},
              "10",
              {8194, 8190, 82700},
              4,
              {8194, 8190, 4, 8190, 0}});
}

// ---------------------------------------------------------------------------
// Draw memo: a runner draws each (model, site, draw key)'s fingerprint once
// ---------------------------------------------------------------------------

class DrawMemoTest : public OptimizerGridTest {
 protected:
  static std::uint64_t Bits(double x) {
    return std::bit_cast<std::uint64_t>(x);
  }

  static std::vector<std::uint64_t> BitsOf(std::span<const double> p) {
    std::vector<std::uint64_t> bits;
    for (double x : p) bits.push_back(Bits(x));
    return bits;
  }

  static std::vector<std::uint64_t> DrawKey(const BlackBox& model,
                                            std::span<const double> p) {
    std::vector<std::uint64_t> key;
    model.AppendDrawKey(p, &key);
    return key;
  }

  static RunConfig Config(std::size_t n, std::size_t batch) {
    RunConfig cfg;
    cfg.num_samples = n;
    cfg.fingerprint_size = 10;
    cfg.master_seed = 1;
    cfg.batch_size = batch;
    return cfg;
  }

  static BoundScript Bind(const std::string& script,
                          const ModelRegistry& registry) {
    auto bound = ParseAndBind(script, registry);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return bound.ok() ? std::move(bound).value() : BoundScript{};
  }

  BlackBoxPtr Model(const std::string& name) const {
    return registry_.Lookup(name).value();
  }

  /// The memo holds `model`'s m draws at `p` and `site`, and they are
  /// EvalBatch's over the runner's seeds [0, m), bit for bit.
  static void ExpectEntry(const SimulationRunner& runner,
                          const BlackBoxPtr& model, std::uint64_t site,
                          std::span<const double> p) {
    const std::size_t m = runner.config().fingerprint_size;
    std::vector<double> stored(m), drawn(m);
    ASSERT_TRUE(runner.draw_memo().Lookup(model.get(), site,
                                          DrawKey(*model, p), stored))
        << model->name() << " at site " << site;
    model->EvalBatch(p, runner.seeds().span(0, m), site, drawn);
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_EQ(Bits(stored[k]), Bits(drawn[k])) << "draw " << k;
    }
  }

  /// `fn`'s fingerprint at `p`, drawn without a memo.
  static std::vector<std::uint64_t> PlainFingerprint(
      const SimFunction& fn, std::span<const double> p,
      const RunConfig& cfg) {
    const SeedVector seeds(cfg.master_seed, cfg.num_samples);
    return BitsOf(
        ComputeFingerprint(fn, p, seeds, cfg.fingerprint_size).values());
  }
};

TEST_F(DrawMemoTest, StagedEntriesJoinAtCommitOnceEach) {
  DrawMemo memo(3);
  auto model = std::make_shared<int>(0);
  const std::weak_ptr<int> alive = model;
  const std::uint64_t key[] = {7, 9};
  const double draws[] = {1.5, -0.0, 2.25};
  std::vector<double> out(3);
  memo.Stage(model, 4, key, draws);
  memo.Stage(model, 4, key, draws);
  memo.Stage(model, 5, key, draws);
  EXPECT_FALSE(memo.Lookup(model.get(), 4, key, out));
  memo.Commit();
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.bytes(), 2 * (3 + 2 + 3) * sizeof(std::uint64_t));
  ASSERT_TRUE(memo.Lookup(model.get(), 4, key, out));
  EXPECT_EQ(BitsOf(out), BitsOf(draws));
  EXPECT_TRUE(memo.Lookup(model.get(), 5, key, out));
  EXPECT_FALSE(memo.Lookup(model.get(), 6, key, out));
  EXPECT_FALSE(memo.Lookup(model.get(), 4, std::span(key, 1), out));
  // An entry pins its model: no other model can take its address.
  model.reset();
  EXPECT_FALSE(alive.expired());
}

TEST_F(DrawMemoTest, EntriesEqualEvalBatchBitForBit) {
  const BoundScript b = Bind(R"(
DECLARE PARAMETER @w AS RANGE 0 TO 12 STEP BY 1;
DECLARE PARAMETER @f AS SET (4, 8);
DECLARE PARAMETER @p AS SET (0, 4);
SELECT DemandModel(@w, @f) AS demand,
       CapacityModel(@w, @p, 6) AS capacity
INTO results;
)",
                             registry_);
  ASSERT_EQ(b.scenario.columns.size(), 2u);
  // The capacity column runs both calls; sites number them in text order.
  const SimFunction& capacity = *b.scenario.columns[1].fn;
  const BlackBoxPtr demand_model = Model("DemandModel");
  const BlackBoxPtr capacity_model = Model("CapacityModel");
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    RunConfig cfg = Config(40, batch);
    cfg.num_threads = threads;
    SimulationRunner runner(cfg);
    runner.RunSweep(capacity, b.scenario.params);
    std::set<std::pair<std::uint64_t, std::vector<std::uint64_t>>> keys;
    for (std::size_t i = 0; i < b.scenario.params.NumPoints(); ++i) {
      const std::vector<double> v = b.scenario.params.ValuationAt(i);
      const double demand_args[] = {v[0], v[1]};
      const double capacity_args[] = {v[0], v[2], 6.0};
      ExpectEntry(runner, demand_model, 1, demand_args);
      ExpectEntry(runner, capacity_model, 2, capacity_args);
      keys.emplace(1, DrawKey(*demand_model, demand_args));
      keys.emplace(2, DrawKey(*capacity_model, capacity_args));
    }
    EXPECT_EQ(runner.draw_memo().size(), keys.size());
  });
}

// Capacity's point is (w - p1, w - p2), and Demand's ignores a release at
// or after the week, so such points share one entry and one fingerprint.
TEST_F(DrawMemoTest, PreparedPointsShareEntries) {
  const RunConfig cfg = Config(50, 64);
  {
    const BoundScript b = Bind(R"(
DECLARE PARAMETER @w AS RANGE 0 TO 20 STEP BY 1;
DECLARE PARAMETER @p1 AS RANGE 0 TO 20 STEP BY 1;
DECLARE PARAMETER @p2 AS RANGE 0 TO 20 STEP BY 1;
SELECT CapacityModel(@w, @p1, @p2) AS capacity INTO results;
)",
                               registry_);
    const SimFunction& fn = *b.scenario.columns[0].fn;
    const double a[] = {10, 3, 7};
    const double c[] = {14, 7, 11};
    EXPECT_EQ(DrawKey(*Model("CapacityModel"), a),
              DrawKey(*Model("CapacityModel"), c));
    SimulationRunner runner(cfg);
    const PointRequest requests[] = {{&fn, a}, {&fn, c}};
    const std::vector<PointResult> results = runner.RunPoints(requests);
    EXPECT_EQ(runner.draw_memo().size(), 1u);
    EXPECT_TRUE(results[1].reused);
    EXPECT_EQ(PlainFingerprint(fn, a, cfg), PlainFingerprint(fn, c, cfg));
  }
  {
    const BoundScript b = Bind(R"(
DECLARE PARAMETER @w AS RANGE 0 TO 20 STEP BY 1;
DECLARE PARAMETER @f AS RANGE 0 TO 60 STEP BY 1;
SELECT DemandModel(@w, @f) AS demand INTO results;
)",
                               registry_);
    const SimFunction& fn = *b.scenario.columns[0].fn;
    const double at[] = {10, 10};
    const double soon[] = {10, 12};
    const double late[] = {10, 40};
    const double before[] = {10, 8};
    SimulationRunner runner(cfg);
    const PointRequest requests[] = {{&fn, at}, {&fn, soon}, {&fn, late}};
    runner.RunPoints(requests);
    EXPECT_EQ(runner.draw_memo().size(), 1u);
    EXPECT_EQ(PlainFingerprint(fn, at, cfg), PlainFingerprint(fn, late, cfg));
    EXPECT_EQ(PlainFingerprint(fn, soon, cfg),
              PlainFingerprint(fn, late, cfg));
    // A release before the week prepares another point.
    runner.RunPoint(fn, before);
    EXPECT_EQ(runner.draw_memo().size(), 2u);
    EXPECT_NE(PlainFingerprint(fn, before, cfg),
              PlainFingerprint(fn, late, cfg));
  }
}

TEST_F(DrawMemoTest, UnpreparedModelsKeyByTheirParams) {
  CloudModelConfig small;
  small.num_users = 40;
  const BlackBoxPtr users = MakeUserSelectionModel(small);
  const BlackBoxPtr noise = std::make_shared<CallableBlackBox>(
      "Noise", std::vector<std::string>{"a", "b"},
      [](std::span<const double> p, RandomStream& rng) {
        return p[0] + p[1] * rng.Gaussian();
      });
  // The roster is not made of doubles, so UserSelection's key is its
  // params: Prepare never runs to make it.
  const double week[] = {7.0};
  const double ab[] = {1.5, -0.0};
  EXPECT_EQ(DrawKey(*users, week), BitsOf(week));
  EXPECT_EQ(DrawKey(*noise, ab), BitsOf(ab));

  ModelRegistry registry;
  ASSERT_TRUE(registry.Register(users).ok());
  ASSERT_TRUE(registry.Register(noise).ok());
  const BoundScript b = Bind(R"(
DECLARE PARAMETER @w AS RANGE 0 TO 8 STEP BY 2;
SELECT UserSelectionModel(@w) AS load, Noise(@w, 2) AS x INTO results;
)",
                             registry);
  SimulationRunner runner(Config(30, 7));
  runner.RunSweep(*b.scenario.columns[1].fn, b.scenario.params);
  for (std::size_t i = 0; i < b.scenario.params.NumPoints(); ++i) {
    const double week = b.scenario.params.ValuationAt(i)[0];
    const double user_args[] = {week};
    const double noise_args[] = {week, 2.0};
    ExpectEntry(runner, users, 1, user_args);
    ExpectEntry(runner, noise, 2, noise_args);
  }
  EXPECT_EQ(runner.draw_memo().size(), 10u);
}

// Only a fingerprint (samples [0, m) of a runner's own seeds) reads or
// fills the memo.
TEST_F(DrawMemoTest, TailsNaiveRunsMonteCarloAndChainsInsertNothing) {
  const std::string scenario = R"(
DECLARE PARAMETER @w AS RANGE 1 TO 5 STEP BY 1;
SELECT DemandModel(@w, 52) AS demand INTO results;
)";
  const BoundScript b = Bind(scenario, registry_);
  const SimFunction& demand = *b.scenario.columns[0].fn;
  // batch_size = m: every tail chunk is m samples long too.
  RunConfig cfg = Config(30, 10);
  for (const bool fingerprints : {true, false}) {
    SCOPED_TRACE(fingerprints ? "fingerprints" : "naive");
    cfg.use_fingerprints = fingerprints;
    SimulationRunner runner(cfg);
    test::PointLoopReference reference(cfg);
    const auto got = runner.RunSweep(demand, b.scenario.params);
    const auto want = reference.RunSweep(demand, b.scenario.params);
    test::ExpectMatchesPointLoop(got, runner, want, reference);
    EXPECT_EQ(runner.draw_memo().size(), fingerprints ? 5u : 0u);
    EXPECT_EQ(runner.seeds().draw_memo() != nullptr, fingerprints);
  }

  // MONTECARLO and chains draw from seed vectors of their own, and a copy
  // of a runner's seeds carries no memo.
  cfg.use_fingerprints = true;
  SimulationRunner runner(cfg);
  runner.RunSweep(demand, b.scenario.params);
  const SeedVector copy = runner.seeds();
  SeedVector assigned(cfg.master_seed, 1);
  assigned = runner.seeds();
  EXPECT_EQ(copy.draw_memo(), nullptr);
  EXPECT_EQ(assigned.draw_memo(), nullptr);
  EXPECT_EQ(pdb::LayeredEngine(cfg).seeds().draw_memo(), nullptr);
  EXPECT_EQ(NaiveChainRunner(cfg).seeds().draw_memo(), nullptr);
  EXPECT_EQ(MarkovJumpRunner(cfg).seeds().draw_memo(), nullptr);
  ScriptRunner script_runner(&registry_, cfg);
  ASSERT_TRUE(script_runner.Run(scenario + "MONTECARLO;").ok());
  const BoundScript chain = Bind(R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
  FROM @current_week : @current_week - 1 INITIAL VALUE 52;
SELECT CASE WHEN demand > 26 AND @current_week + 4 < @release_week
            THEN @current_week + 4 ELSE @release_week END AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results;
)",
                                 registry_);
  for (const bool jump : {false, true}) {
    ASSERT_TRUE(RunChainScenario(chain, "demand", 12, cfg, jump).ok());
  }
  EXPECT_EQ(runner.draw_memo().size(), 5u);
}

// Two scripts bound against registries whose CapacityModel differs only
// in what Draw reads from its config: the same names, sites and draw keys,
// but other model objects. One runner runs them in turn, the first
// script's models gone before the second's are made.
TEST_F(DrawMemoTest, OneRunnerKeepsTwoScriptsDrawsApart) {
  const std::string script = R"(
DECLARE PARAMETER @w AS RANGE 0 TO 12 STEP BY 1;
DECLARE PARAMETER @p AS SET (2, 6);
SELECT CapacityModel(@w, @p, @p) AS capacity INTO results;
)";
  const RunConfig cfg = Config(40, 64);
  SimulationRunner runner(cfg);
  std::size_t first_entries = 0;
  {
    ModelRegistry first;
    ASSERT_TRUE(RegisterCloudModels(&first).ok());
    const BoundScript b = Bind(script, first);
    runner.RunSweep(*b.scenario.columns[0].fn, b.scenario.params);
    first_entries = runner.draw_memo().size();
    ASSERT_GT(first_entries, 0u);
  }
  CloudModelConfig bigger;
  bigger.base_capacity = 100.0;
  ModelRegistry second;
  ASSERT_TRUE(RegisterCloudModels(&second, bigger).ok());
  const BoundScript b = Bind(script, second);
  const SimFunction& fn = *b.scenario.columns[0].fn;
  runner.RunSweep(fn, b.scenario.params);
  EXPECT_EQ(runner.draw_memo().size(), 2 * first_entries);
  const std::size_t m = cfg.fingerprint_size;
  for (std::size_t i = 0; i < b.scenario.params.NumPoints(); ++i) {
    const std::vector<double> v = b.scenario.params.ValuationAt(i);
    SCOPED_TRACE(::testing::Message() << "point " << i);
    EXPECT_EQ(BitsOf(ComputeFingerprint(fn, v, runner.seeds(), m).values()),
              PlainFingerprint(fn, v, cfg));
  }
}

TEST_F(DrawMemoTest, BudgetBoundsTheMemoAndNoResult) {
  struct BudgetOverride {
    explicit BudgetOverride(std::size_t bytes) {
      internal::g_draw_memo_budget_override = bytes;
    }
    ~BudgetOverride() { internal::g_draw_memo_budget_override = 0; }
  };
  const BoundScript b = Bind(CorpusScript("figure1_small.sql"), registry_);
  ASSERT_TRUE(b.optimize.has_value());
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    RunConfig cfg = Config(200, batch);
    cfg.num_threads = threads;
    SimulationRunner unbounded(cfg);
    auto want = Optimizer(&unbounded).Run(b.scenario, *b.optimize);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const std::size_t full = unbounded.draw_memo().size();
    for (const std::size_t budget : {std::size_t{1}, std::size_t{1024}}) {
      SCOPED_TRACE(::testing::Message() << "budget " << budget);
      const BudgetOverride override_budget(budget);
      SimulationRunner bounded(cfg);
      auto got = Optimizer(&bounded).Run(b.scenario, *b.optimize);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Summarize(got.value(), bounded),
                Summarize(want.value(), unbounded));
      const std::size_t size = bounded.draw_memo().size();
      EXPECT_LE(bounded.draw_memo().bytes(), budget);
      EXPECT_LT(size, full);
      EXPECT_EQ(size > 0, budget > 1);
      // A full memo stays as it is.
      ASSERT_TRUE(Optimizer(&bounded).Run(b.scenario, *b.optimize).ok());
      EXPECT_EQ(bounded.draw_memo().size(), size);
    }
  });
}

// ---------------------------------------------------------------------------
// MONTECARLO statement (possible-worlds execution from SQL)
// ---------------------------------------------------------------------------

TEST(ParserTest, MonteCarloStatementParses) {
  auto script = ParseScript(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_NE(script.value().statements[2].montecarlo, nullptr);
  EXPECT_FALSE(script.value().statements[2].montecarlo->layered);

  auto layered = ParseScript("MONTECARLO USING LAYERED;");
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();
  EXPECT_TRUE(layered.value().statements[0].montecarlo->layered);

  auto direct = ParseScript("MONTECARLO USING DIRECT;");
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(direct.value().statements[0].montecarlo->layered);

  EXPECT_FALSE(ParseScript("MONTECARLO USING GHOST;").ok());
}

TEST_F(BinderTest, RejectsMultipleMonteCarloStatements) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO; MONTECARLO USING LAYERED;",
      registry_);
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("multiple MONTECARLO"),
            std::string::npos);
}

constexpr const char* kMonteCarloScript =
    "DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;"
    "SELECT DemandModel(@w, 52) AS demand,"
    "       2 * demand AS doubled INTO r;"
    "MONTECARLO;";

TEST_F(BinderTest, ScriptRunnerExecutesMonteCarlo) {
  RunConfig cfg;
  cfg.num_samples = 300;
  ScriptRunner runner(&registry_, cfg);
  auto outcome = runner.Run(kMonteCarloScript);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const auto& mc = outcome.value().montecarlo;
  ASSERT_TRUE(mc.has_value());
  EXPECT_FALSE(mc->layered);
  EXPECT_EQ(mc->worlds, 300u);
  ASSERT_EQ(mc->columns.size(), 2u);
  const auto& demand = mc->columns.at("demand");
  EXPECT_EQ(demand.count, 300);
  // Valuation fixes @w at the first domain value (10).
  EXPECT_NEAR(demand.mean, 10.0, 0.5);
  EXPECT_NEAR(mc->columns.at("doubled").mean, 2.0 * demand.mean, 1e-12);
  EXPECT_NE(outcome.value().Report().find("MONTECARLO"), std::string::npos);

  // Overrides pin the valuation like they do for GRAPH sweeps.
  auto overridden = runner.Run(kMonteCarloScript, {{"w", 30.0}});
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_NEAR(overridden.value().montecarlo->columns.at("demand").mean,
              30.0, 1.0);
}

TEST_F(BinderTest, MonteCarloLayeredAgreesWithDirect) {
  RunConfig cfg;
  cfg.num_samples = 200;
  ScriptRunner runner(&registry_, cfg);
  auto direct = runner.Run(kMonteCarloScript);
  auto layered = runner.Run(
      "DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;"
      "SELECT DemandModel(@w, 52) AS demand,"
      "       2 * demand AS doubled INTO r;"
      "MONTECARLO USING LAYERED;");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();
  EXPECT_TRUE(layered.value().montecarlo->layered);
  // Identical seeds and plans; the layered path only adds the CSV
  // round-trip, so the means agree to text precision.
  EXPECT_NEAR(direct.value().montecarlo->columns.at("demand").mean,
              layered.value().montecarlo->columns.at("demand").mean, 1e-9);
}

TEST_F(BinderTest, MonteCarloThreadedIsBitIdenticalToSerial) {
  auto run = [&](std::size_t threads, std::size_t batch) {
    RunConfig cfg;
    cfg.num_samples = 200;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    ScriptRunner runner(&registry_, cfg);
    auto outcome = runner.Run(kMonteCarloScript);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return std::move(outcome).value();
  };
  const auto reference = run(1, 64);
  test::ForEachParallelGridPoint([&](std::size_t threads,
                                     std::size_t batch) {
    const auto parallel = run(threads, batch);
    ASSERT_TRUE(parallel.montecarlo.has_value());
    EXPECT_EQ(parallel.montecarlo->num_threads, threads);
    for (const auto& [name, m] : reference.montecarlo->columns) {
      const auto& p = parallel.montecarlo->columns.at(name);
      EXPECT_EQ(m.mean, p.mean) << name;
      EXPECT_EQ(m.stddev, p.stddev) << name;
      EXPECT_EQ(m.p50, p.p50) << name;
      EXPECT_EQ(m.p95, p.p95) << name;
      EXPECT_EQ(m.min, p.min) << name;
      EXPECT_EQ(m.max, p.max) << name;
    }
  });
}

// ---------------------------------------------------------------------------
// Compiled expressions: the BatchProgram path must be bit-identical to
// the interpreter at every batch_size x num_threads grid point, and must
// fall back (visibly) when an expression has no batch form.
// ---------------------------------------------------------------------------

class CompiledExprTest : public BinderTest {
 protected:
  void SetUp() override {
    BinderTest::SetUp();
    // Bernoulli helper: sample-dependent 0/1 so error paths (division by
    // zero, NULL columns) trigger on some worlds but not world 0.
    registry_.RegisterOrReplace(std::make_shared<CallableBlackBox>(
        "CoinFlip", std::vector<std::string>{"p"},
        [](std::span<const double> params, RandomStream& rng) {
          return rng.NextDouble() < params[0] ? 1.0 : 0.0;
        }));
  }

  Result<ScriptOutcome> RunScript(const std::string& text, bool compiled,
                                  std::size_t threads, std::size_t batch,
                                  std::size_t samples = 200) {
    RunConfig cfg;
    cfg.num_samples = samples;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    ScriptRunner runner(&registry_, cfg);
    return RunPath(runner, text, compiled);
  }

  /// Runs `text` on the binder's plan (compiled where it could be) or on
  /// its interpreted twin: the same plan with UseInterpretedExpressions
  /// applied before RunBound.
  Result<ScriptOutcome> RunPath(
      ScriptRunner& runner, const std::string& text, bool compiled,
      const std::vector<std::pair<std::string, double>>& overrides = {}) {
    JIGSAW_ASSIGN_OR_RETURN(BoundScript bound, ParseAndBind(text, registry_));
    if (!compiled) UseInterpretedExpressions(bound);
    return runner.RunBound(std::move(bound), overrides);
  }

  /// The independent oracle of a row-program MONTECARLO at `valuation`:
  /// each world realized as the one-row table of the interpreter's
  /// RowProgram::EvalAllColumns, folded serially by test::BoxedFoldWorlds
  /// over `cfg`'s seed vector.
  static Result<std::map<std::string, OutputMetrics>> BoxedRowProgramFold(
      const RowProgram& program, std::span<const double> valuation,
      const RunConfig& cfg) {
    std::vector<pdb::Column> cols;
    for (const auto& name : program.outer_names) {
      cols.push_back({name, pdb::ValueType::kDouble});
    }
    const pdb::Schema schema(std::move(cols));
    const SeedVector seeds(cfg.master_seed, cfg.num_samples);
    return test::BoxedFoldWorlds(
        schema, program.outer_names, cfg.num_samples, seeds, cfg,
        [&](std::size_t world) -> Result<pdb::Table> {
          JIGSAW_ASSIGN_OR_RETURN(
              std::vector<double> values,
              program.EvalAllColumns(valuation, world, seeds));
          pdb::Row row(values.begin(), values.end());
          pdb::Table table(schema);
          table.AppendRowUnchecked(std::move(row));
          return table;
        });
  }

  static void ExpectSameMetrics(
      const std::map<std::string, OutputMetrics>& expected,
      const std::map<std::string, OutputMetrics>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (const auto& [name, m] : expected) {
      const auto& a = actual.at(name);
      EXPECT_EQ(m.count, a.count) << name;
      EXPECT_EQ(m.mean, a.mean) << name;
      EXPECT_EQ(m.stddev, a.stddev) << name;
      EXPECT_EQ(m.std_error, a.std_error) << name;
      EXPECT_EQ(m.p50, a.p50) << name;
      EXPECT_EQ(m.p95, a.p95) << name;
      EXPECT_EQ(m.min, a.min) << name;
      EXPECT_EQ(m.max, a.max) << name;
    }
  }
};

constexpr const char* kCompiledMonteCarloScript = R"(
DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;
SELECT DemandModel(@w, 52) AS demand,
       CapacityModel(@w, 8, 8) AS capacity,
       CASE WHEN capacity < demand AND @w > 0 THEN 1 ELSE 0 END AS overload,
       (demand + 1) / (capacity + 1) AS ratio
INTO r;
MONTECARLO;
)";

TEST_F(CompiledExprTest, MonteCarloBitIdenticalToInterpreterAcrossGrid) {
  auto reference = RunScript(kCompiledMonteCarloScript, /*compiled=*/false,
                             /*threads=*/1, /*batch=*/64);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference.value().bound.program->compiled());
  // Both paths share one fold, so the interpreted run is itself checked
  // against the boxed oracle.
  RunConfig oracle_cfg;
  oracle_cfg.num_samples = 200;
  auto oracle = BoxedRowProgramFold(
      *reference.value().bound.program,
      reference.value().montecarlo->base_valuation, oracle_cfg);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExpectSameMetrics(oracle.value(), reference.value().montecarlo->columns);
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    auto compiled = RunScript(kCompiledMonteCarloScript, /*compiled=*/true,
                              threads, batch);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ASSERT_TRUE(compiled.value().bound.program->compiled())
        << compiled.value().bound.program->batch_fallback_reason;
    ExpectSameMetrics(reference.value().montecarlo->columns,
                      compiled.value().montecarlo->columns);
  });
}

TEST_F(CompiledExprTest, LayeredMonteCarloBitIdenticalToInterpreter) {
  const std::string script =
      std::string(kCompiledMonteCarloScript).substr(0, std::string(
          kCompiledMonteCarloScript).rfind("MONTECARLO;")) +
      "MONTECARLO USING LAYERED;";
  auto interpreted = RunScript(script, /*compiled=*/false, 2, 7);
  auto compiled = RunScript(script, /*compiled=*/true, 2, 7);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExpectSameMetrics(interpreted.value().montecarlo->columns,
                    compiled.value().montecarlo->columns);
}

TEST_F(CompiledExprTest, ChainBitIdenticalToInterpreterAcrossBatches) {
  const char* kFigure5 = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
  FROM @current_week : @current_week - 1 INITIAL VALUE 52;
SELECT CASE WHEN demand > 26 AND @current_week + 4 < @release_week
            THEN @current_week + 4 ELSE @release_week END AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results;
)";
  auto bound = ParseAndBind(kFigure5, registry_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_TRUE(bound.value().program->compiled())
      << bound.value().program->batch_fallback_reason;

  BoundScript interpreted = bound.value();
  UseInterpretedExpressions(interpreted);

  // Each path's batch hooks, which the chain runners call, match the
  // interpreter's walk of the row program, one instance at a time, with
  // the chain parameter set: the source column under the step salt, the
  // output column (demand) under the output salt.
  const BoundChain& chain = *interpreted.chain;
  const std::vector<double> base = interpreted.scenario.params.ValuationAt(0);
  const test::ChainHookOracle interpreter_walk =
      [&](test::ChainHook hook, double state, std::int64_t /*anchor_step*/,
          std::int64_t step, std::size_t k, const SeedVector& seeds) {
        std::vector<double> params = base;
        params[chain.driver_param_index] = static_cast<double>(step);
        params[chain.chain_param_index] = state;
        const bool output = hook == test::ChainHook::kOutput;
        auto v = interpreted.program->EvalColumn(
            output ? 1 : chain.source_column_index, params, k, seeds,
            output ? MarkovOutputSalt(step) : MarkovStepSalt(step));
        EXPECT_TRUE(v.ok()) << v.status().ToString();
        return v.ok() ? v.value() : 0.0;
      };
  for (const BoundScript* path : {&bound.value(), &interpreted}) {
    SCOPED_TRACE(testing::Message()
                 << "compiled=" << path->program->compiled());
    test::ExpectChainHooksMatchOracle(
        ScenarioChainProcess(path->program, *path->chain, base,
                             /*output_column=*/1),
        interpreter_walk);
  }

  for (bool use_jump : {false, true}) {
    RunConfig ref_cfg;
    ref_cfg.num_samples = 150;
    ref_cfg.fingerprint_size = 10;
    ChainRunStats ref_stats;
    auto reference = RunChainScenario(interpreted, "demand", 30, ref_cfg,
                                      use_jump, &ref_stats);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    for (std::size_t batch : test::GridBatchSizes()) {
      SCOPED_TRACE(testing::Message()
                   << "jump=" << use_jump << " batch=" << batch);
      RunConfig cfg = ref_cfg;
      cfg.batch_size = batch;
      ChainRunStats stats;
      auto compiled =
          RunChainScenario(bound.value(), "demand", 30, cfg, use_jump,
                           &stats);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      EXPECT_EQ(reference.value().mean, compiled.value().mean);
      EXPECT_EQ(reference.value().stddev, compiled.value().stddev);
      EXPECT_EQ(reference.value().p50, compiled.value().p50);
      EXPECT_EQ(reference.value().p95, compiled.value().p95);
      EXPECT_EQ(reference.value().min, compiled.value().min);
      EXPECT_EQ(reference.value().max, compiled.value().max);
      EXPECT_EQ(ref_stats.step_invocations, stats.step_invocations);
      EXPECT_EQ(ref_stats.estimator_invocations,
                stats.estimator_invocations);
      EXPECT_EQ(ref_stats.mismatches, stats.mismatches);
    }
  }
}

TEST_F(CompiledExprTest, CompiledSampleBatchMatchesScalarSample) {
  // The core engine's fingerprint/tail/sweep phases ride
  // ColumnSimFunction::SampleBatch; every span must reproduce the scalar
  // interpreter walk bit-for-bit, including cross-column alias draws.
  auto bound = ParseAndBind(kFigure1, registry_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_TRUE(bound.value().program->compiled());
  // The interpreted copy walks the interpreter per sample inside the same
  // SampleBatch call.
  BoundScript interpreted = bound.value();
  UseInterpretedExpressions(interpreted);
  ASSERT_FALSE(interpreted.program->compiled());
  const std::size_t kSamples = 40;
  SeedVector seeds(0x5EED, kSamples);
  const auto valuation = bound.value().scenario.params.ValuationAt(3);
  for (const BoundScript* path : {&bound.value(), &interpreted}) {
    SCOPED_TRACE(testing::Message()
                 << "compiled=" << path->program->compiled());
    for (const auto& col : path->scenario.columns) {
      for (std::size_t batch : test::GridBatchSizes()) {
        std::vector<double> got(kSamples);
        for (std::size_t begin = 0; begin < kSamples; begin += batch) {
          const std::size_t n = std::min(batch, kSamples - begin);
          col.fn->SampleBatch(valuation, begin, seeds,
                              std::span<double>(got.data() + begin, n));
        }
        for (std::size_t k = 0; k < kSamples; ++k) {
          EXPECT_EQ(got[k], col.fn->Sample(valuation, k, seeds))
              << col.name << " batch " << batch << " sample " << k;
        }
      }
    }
  }
}

TEST_F(CompiledExprTest, DivisionByZeroParityWithInterpreter) {
  // CoinFlip lands 0 on some world > 0 (world 0 and the bind probe pass
  // at p = 0.97), so both paths must fail with the interpreter's
  // division-by-zero error.
  const char* script = "SELECT 1 / CoinFlip(0.97) AS q INTO r; MONTECARLO;";
  auto interpreted = RunScript(script, /*compiled=*/false, 1, 64, 400);
  auto compiled = RunScript(script, /*compiled=*/true, 1, 64, 400);
  EXPECT_EQ(interpreted.status(), compiled.status());
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("division by zero"),
            std::string::npos);
  // The grid must agree on the reported error too (lowest failing world).
  test::ForEachParallelGridPoint([&](std::size_t threads,
                                     std::size_t batch) {
    auto parallel = RunScript(script, /*compiled=*/true, threads, batch,
                              400);
    EXPECT_EQ(interpreted.status(), parallel.status());
  });
}

TEST_F(CompiledExprTest, ShortCircuitGuardsErroringOperandsLikeInterpreter) {
  // has == 0 lanes short-circuit the AND before 1/has runs; both paths
  // must succeed and agree bit-for-bit.
  const char* script =
      "SELECT CoinFlip(0.5) AS has,"
      "       CASE WHEN has > 0 AND 1 / has > 0 THEN 1 ELSE 0 END AS safe "
      "INTO r; MONTECARLO;";
  auto interpreted = RunScript(script, /*compiled=*/false, 1, 64);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  auto compiled = RunScript(script, /*compiled=*/true, 2, 7);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_TRUE(compiled.value().bound.program->compiled());
  ExpectSameMetrics(interpreted.value().montecarlo->columns,
                    compiled.value().montecarlo->columns);
  // Sanity: both coin faces actually occurred.
  EXPECT_GT(compiled.value().montecarlo->columns.at("has").mean, 0.0);
  EXPECT_LT(compiled.value().montecarlo->columns.at("has").mean, 1.0);
}

TEST_F(CompiledExprTest, CaseWithoutElseParityWithInterpreter) {
  // Worlds whose WHEN misses produce NULL -> "not numeric", exactly as
  // interpreted (the bind probe passes because world-0-probe flips 1).
  const char* script =
      "SELECT CASE WHEN CoinFlip(0.9) > 0 THEN 1 END AS maybe "
      "INTO r; MONTECARLO;";
  auto interpreted = RunScript(script, /*compiled=*/false, 1, 64, 400);
  auto compiled = RunScript(script, /*compiled=*/true, 1, 64, 400);
  EXPECT_EQ(interpreted.status(), compiled.status());
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("'maybe' is not numeric"),
            std::string::npos);
}

TEST_F(CompiledExprTest, UncompilableScriptFallsBackWithVisibleReason) {
  // String comparisons are interpreter-only; the script must still run,
  // and the de-optimization must be queryable from the outcome report.
  const char* script =
      "SELECT CASE WHEN 'a' = 'b' THEN 1 ELSE 2 END AS x INTO r;"
      "MONTECARLO;";
  auto outcome = RunScript(script, /*compiled=*/true, 1, 64);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const auto& program = *outcome.value().bound.program;
  EXPECT_FALSE(program.compiled());
  EXPECT_NE(program.batch_fallback_reason.find("string literal"),
            std::string::npos);
  EXPECT_NE(outcome.value().Report().find("expressions: interpreted"),
            std::string::npos);
  EXPECT_NE(outcome.value().Report().find("fallback:"), std::string::npos);
  EXPECT_EQ(outcome.value().montecarlo->columns.at("x").mean, 2.0);

  // Compiled scripts advertise the fast path instead.
  auto compiled = RunScript(kCompiledMonteCarloScript, true, 1, 64);
  ASSERT_TRUE(compiled.ok());
  EXPECT_NE(compiled.value().Report().find("expressions: compiled"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// MONTECARLO OVER @p: the two-axis (points x worlds) sweep must be
// bit-identical — values, draws, errors, per-point metrics — to N
// standalone MONTECARLO statements at the same valuations, across the
// full points x batch x threads grid, on both engines, compiled and
// interpreted.
// ---------------------------------------------------------------------------

TEST(ParserTest, MonteCarloOverParses) {
  auto list = ParseScript("MONTECARLO OVER @w IN (10, 20, 30);");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  const auto& over = list.value().statements[0].montecarlo->over;
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over->param, "w");
  ASSERT_TRUE(over->values.has_value());
  EXPECT_EQ(over->values->values, (std::vector<double>{10, 20, 30}));

  auto range = ParseScript("MONTECARLO OVER @w IN 0 TO 52 STEP BY 4;");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  const auto& rover = range.value().statements[0].montecarlo->over;
  ASSERT_TRUE(rover.has_value() && rover->range.has_value());
  EXPECT_DOUBLE_EQ(rover->range->lo, 0);
  EXPECT_DOUBLE_EQ(rover->range->hi, 52);
  EXPECT_DOUBLE_EQ(rover->range->step, 4);

  auto bare = ParseScript("MONTECARLO OVER @w USING LAYERED;");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_TRUE(bare.value().statements[0].montecarlo->layered);
  ASSERT_TRUE(bare.value().statements[0].montecarlo->over.has_value());
  EXPECT_FALSE(bare.value().statements[0].montecarlo->over->values);
  EXPECT_FALSE(bare.value().statements[0].montecarlo->over->range);

  EXPECT_FALSE(ParseScript("MONTECARLO OVER w;").ok());        // not a @param
  EXPECT_FALSE(ParseScript("MONTECARLO OVER @w IN ();").ok()); // empty list
  EXPECT_FALSE(ParseScript("MONTECARLO OVER @w IN 1 TO;").ok());
}

class MonteCarloSweepTest : public CompiledExprTest {
 protected:
  Result<ScriptOutcome> RunSweepScript(
      const std::string& text, bool compiled, std::size_t threads,
      std::size_t batch, std::size_t samples,
      const std::vector<std::pair<std::string, double>>& overrides = {}) {
    RunConfig cfg;
    cfg.num_samples = samples;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    // Retain raw samples so the grid checks draw-level identity, not just
    // summary statistics.
    cfg.keep_samples = true;
    ScriptRunner runner(&registry_, cfg);
    return RunPath(runner, text, compiled, overrides);
  }

  /// Metric equality plus bitwise draw equality (keep_samples runs).
  static void ExpectSameMetricsAndDraws(
      const std::map<std::string, OutputMetrics>& expected,
      const std::map<std::string, OutputMetrics>& actual) {
    ExpectSameMetrics(expected, actual);
    for (const auto& [name, m] : expected) {
      EXPECT_EQ(m.samples, actual.at(name).samples) << name;
    }
  }

  static std::string Engine(bool layered) {
    return layered ? " USING LAYERED;" : ";";
  }

  /// 9 candidate values for @w; sweeps take the first `npoints`.
  static std::vector<double> PointValues(std::size_t npoints) {
    std::vector<double> out;
    for (std::size_t i = 0; i < npoints; ++i) {
      out.push_back(10.0 + 10.0 * static_cast<double>(i));
    }
    return out;
  }

  static std::string SweepScript(std::size_t npoints, bool layered) {
    std::string in;
    for (double v : PointValues(npoints)) {
      in += (in.empty() ? "" : ", ") + std::to_string(v);
    }
    return std::string(kSweepScenario) + "MONTECARLO OVER @w IN (" + in +
           ")" + Engine(layered);
  }

  static constexpr const char* kSweepScenario =
      "DECLARE PARAMETER @w AS RANGE 10 TO 90 STEP BY 10;"
      "SELECT DemandModel(@w, 52) AS demand,"
      "       2 * demand + @w AS adjusted INTO r;";
};

TEST_F(MonteCarloSweepTest, BitIdenticalToStandaloneAcrossGrid) {
  const std::size_t kWorlds = 50;
  const std::string standalone_script =
      std::string(kSweepScenario) + "MONTECARLO";
  for (bool layered : {false, true}) {
    for (bool compiled : {true, false}) {
      SCOPED_TRACE(testing::Message() << "layered=" << layered
                                      << " compiled=" << compiled);
      // One standalone MONTECARLO per candidate value: the reference the
      // sweep must reproduce bit-for-bit. Standalone runs are themselves
      // grid-invariant (MonteCarloThreadedIsBitIdenticalToSerial), so one
      // serial run per value suffices.
      std::vector<std::map<std::string, OutputMetrics>> standalone;
      for (double v : PointValues(9)) {
        auto ref = RunSweepScript(standalone_script + Engine(layered),
                                  compiled, 1, 64, kWorlds, {{"w", v}});
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        if (!layered) {
          // Compiled and interpreted share one direct fold, so the
          // reference itself must match the boxed oracle.
          RunConfig oracle_cfg;
          oracle_cfg.num_samples = kWorlds;
          oracle_cfg.keep_samples = true;
          auto oracle = BoxedRowProgramFold(
              *ref.value().bound.program,
              ref.value().montecarlo->base_valuation, oracle_cfg);
          ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
          ExpectSameMetricsAndDraws(oracle.value(),
                                    ref.value().montecarlo->columns);
        }
        standalone.push_back(std::move(ref.value().montecarlo->columns));
      }

      for (std::size_t npoints : {1u, 3u, 9u}) {
        const std::string script = SweepScript(npoints, layered);
        test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
          SCOPED_TRACE(testing::Message() << "points=" << npoints);
          auto outcome = RunSweepScript(script, compiled, threads, batch,
                                        kWorlds);
          ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
          const auto& mc = outcome.value().montecarlo;
          ASSERT_TRUE(mc.has_value());
          EXPECT_EQ(mc->layered, layered);
          EXPECT_EQ(mc->sweep_param, "w");
          EXPECT_EQ(mc->worlds, kWorlds);
          ASSERT_EQ(mc->points.size(), npoints);
          EXPECT_EQ(outcome.value().bound.program->compiled(), compiled);
          for (std::size_t k = 0; k < npoints; ++k) {
            SCOPED_TRACE(testing::Message() << "point " << k);
            EXPECT_EQ(mc->points[k].value, PointValues(9)[k]);
            ExpectSameMetricsAndDraws(standalone[k], mc->points[k].columns);
          }
        });
      }
    }
  }
}

TEST_F(MonteCarloSweepTest, BareOverAndRangeFormsExpandPoints) {
  // Bare OVER @w sweeps the declared domain; the IN range form expands
  // like DECLARE RANGE. Both reduce to the explicit-list semantics.
  const std::string scenario =
      "DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;"
      "SELECT DemandModel(@w, 52) AS demand INTO r;";
  auto bare = RunSweepScript(scenario + "MONTECARLO OVER @w;", true, 2, 7,
                             40);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  ASSERT_EQ(bare.value().montecarlo->points.size(), 3u);
  EXPECT_EQ(bare.value().montecarlo->points[0].value, 10.0);
  EXPECT_EQ(bare.value().montecarlo->points[2].value, 30.0);

  auto range = RunSweepScript(
      scenario + "MONTECARLO OVER @w IN 10 TO 30 STEP BY 20;", true, 2, 7,
      40);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_EQ(range.value().montecarlo->points.size(), 2u);
  EXPECT_EQ(range.value().montecarlo->points[0].value, 10.0);
  EXPECT_EQ(range.value().montecarlo->points[1].value, 30.0);
  // Same point, same draws: range point 0 == bare point 0 bit-for-bit.
  ExpectSameMetricsAndDraws(bare.value().montecarlo->points[0].columns,
                            range.value().montecarlo->points[0].columns);
}

TEST_F(MonteCarloSweepTest, OverridesStillPinNonSweptParameters) {
  const std::string scenario =
      "DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;"
      "DECLARE PARAMETER @f AS SET (36, 52);"
      "SELECT DemandModel(@w, @f) AS demand INTO r;";
  auto sweep = RunSweepScript(scenario + "MONTECARLO OVER @w IN (20, 30);",
                              true, 2, 7, 40, {{"f", 52.0}});
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  auto standalone = RunSweepScript(scenario + "MONTECARLO;", true, 1, 64, 40,
                                   {{"f", 52.0}, {"w", 30.0}});
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
  ExpectSameMetricsAndDraws(standalone.value().montecarlo->columns,
                            sweep.value().montecarlo->points[1].columns);
}

TEST_F(MonteCarloSweepTest, BindErrors) {
  // Unbound sweep parameter.
  auto unbound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @ghost IN (1, 2);",
      registry_);
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), StatusCode::kBindError);
  EXPECT_NE(unbound.status().message().find("undeclared '@ghost'"),
            std::string::npos);

  // Empty point lists: a backwards range, and a CHAIN parameter's
  // (non-enumerable) domain.
  auto empty = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w IN 30 TO 10;",
      registry_);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kBindError);
  EXPECT_NE(empty.status().message().find("empty RANGE"), std::string::npos);

  auto chain = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 9 STEP BY 1;"
      "DECLARE PARAMETER @r AS CHAIN r FROM @w : @w - 1 INITIAL VALUE 1;"
      "SELECT @r + 0 AS r, DemandModel(@w, @r) AS demand INTO results;"
      "MONTECARLO OVER @r;",
      registry_);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kBindError);
  EXPECT_NE(chain.status().message().find("names a CHAIN parameter"),
            std::string::npos);

  auto bad_step = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w IN 0 TO 5 STEP BY -1;",
      registry_);
  ASSERT_FALSE(bad_step.ok());
  EXPECT_NE(bad_step.status().message().find("non-positive STEP"),
            std::string::npos);

  // Range materialization is guarded: an overflowing literal (inf after
  // strtod) must not spin the expansion loop forever, and a finite but
  // absurd span must not OOM the binder.
  auto inf = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w IN 0 TO 1e400;",
      registry_);
  ASSERT_FALSE(inf.ok());
  EXPECT_NE(inf.status().message().find("non-finite RANGE bounds"),
            std::string::npos);

  auto huge = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w IN 0 TO 1e18;",
      registry_);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("spans more than 999999 values"),
            std::string::npos);

  // The cap is 999,999 points: one more is a bind error.
  auto at_cap = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w IN 1 TO 999999;",
      registry_);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().montecarlo->over->points.size(), 999999u);
  auto past_cap = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w IN 1 TO 1000000;",
      registry_);
  ASSERT_FALSE(past_cap.ok());
  EXPECT_EQ(past_cap.status().code(), StatusCode::kBindError);

  // A degenerate range where lo + step rounds back to lo must terminate
  // (index-stepped expansion) and bind to the single point.
  auto degenerate = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w IN 1e16 TO 1e16;",
      registry_);
  ASSERT_TRUE(degenerate.ok()) << degenerate.status().ToString();
  ASSERT_TRUE(degenerate.value().montecarlo->over.has_value());
  EXPECT_EQ(degenerate.value().montecarlo->over->points,
            (std::vector<double>{1e16}));

  // Non-finite literals are rejected in every sweep form, not just the
  // range bounds.
  auto inf_list = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w IN (1, 1e400);",
      registry_);
  ASSERT_FALSE(inf_list.ok());
  EXPECT_NE(inf_list.status().message().find("non-finite SET value"),
            std::string::npos);

  // The point cap applies to the bare OVER form too: a large declared
  // domain that DECLARE accepts must still be rejected as a sweep.
  auto bare_huge = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 2000000 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;"
      "MONTECARLO OVER @w;",
      registry_);
  ASSERT_FALSE(bare_huge.ok());
  EXPECT_NE(
      bare_huge.status().message().find("spans more than 999999 values"),
      std::string::npos);
}

TEST_F(MonteCarloSweepTest, ChainParameterHoldsItsInitialValue) {
  // MONTECARLO over the Figure 5 scenario reads @release_week at its
  // INITIAL VALUE, as the bind probe and RunChainScenario do: every draw
  // matches the same scenario with @release_week declared as SET (52),
  // standalone and at every point of an OVER @current_week sweep.
  const std::string select =
      "SELECT CASE WHEN demand > 26 AND @current_week + 4 < @release_week"
      "            THEN @current_week + 4 ELSE @release_week END"
      "         AS release_week, demand "
      "FROM (SELECT DemandModel(@current_week, @release_week) AS demand) "
      "INTO results;";
  const std::string week =
      "DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;";
  const std::string chain =
      week +
      "DECLARE PARAMETER @release_week AS CHAIN release_week"
      "  FROM @current_week : @current_week - 1 INITIAL VALUE 52;" +
      select;
  const std::string pinned =
      week + "DECLARE PARAMETER @release_week AS SET (52);" + select;

  for (const std::string statement :
       {"MONTECARLO;", "MONTECARLO OVER @current_week IN (0, 20, 40);"}) {
    SCOPED_TRACE(statement);
    auto got = RunSweepScript(chain + statement, true, 2, 7, 200);
    auto want = RunSweepScript(pinned + statement, true, 2, 7, 200);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const MonteCarloOutcome& mc = *got.value().montecarlo;
    EXPECT_EQ(mc.base_valuation, (std::vector<double>{0, 52}));
    if (mc.points.empty()) {
      EXPECT_EQ(mc.columns.at("release_week").max, 52.0);
      ExpectSameMetricsAndDraws(want.value().montecarlo->columns,
                                mc.columns);
      continue;
    }
    ASSERT_EQ(mc.points.size(), 3u);
    for (std::size_t k = 0; k < mc.points.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "point " << k);
      EXPECT_GE(mc.points[k].columns.at("release_week").min,
                mc.points[k].value + 4);
      ExpectSameMetricsAndDraws(want.value().montecarlo->points[k].columns,
                                mc.points[k].columns);
    }
  }
}

TEST_F(MonteCarloSweepTest, PointErrorNamesPointIdenticallySerialParallel) {
  // CoinFlip(1) never lands 0, CoinFlip(0.5) does: point 0 succeeds and
  // point 1 fails with the interpreter's division-by-zero error, prefixed
  // with the failing point — identically at every grid cell, on both
  // expression paths, and matching the standalone statement's error at
  // that valuation.
  const std::string scenario =
      "DECLARE PARAMETER @p AS SET (1, 0.5);"
      "SELECT 1 / CoinFlip(@p) AS q INTO r;";
  const std::string script = scenario + "MONTECARLO OVER @p IN (1, 0.5);";

  auto standalone = RunSweepScript(scenario + "MONTECARLO;", false, 1, 64, 400,
                                   {{"p", 0.5}});
  ASSERT_FALSE(standalone.ok());

  auto serial = RunSweepScript(script, false, 1, 64, 400);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(serial.status().message().find("sweep point 1"),
            std::string::npos)
      << serial.status().ToString();
  EXPECT_NE(serial.status().message().find("division by zero"),
            std::string::npos);
  // The sweep's error is the standalone error plus the point coordinate.
  EXPECT_NE(serial.status().message().find(standalone.status().message()),
            std::string::npos);

  for (bool compiled : {false, true}) {
    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      SCOPED_TRACE(testing::Message() << "compiled=" << compiled);
      auto outcome = RunSweepScript(script, compiled, threads, batch, 400);
      EXPECT_EQ(serial.status(), outcome.status());
    });
  }

  // The layered engine reports the same point coordinate.
  auto layered = RunSweepScript(
      scenario + "MONTECARLO OVER @p IN (1, 0.5) USING LAYERED;", false,
      2, 7, 400);
  ASSERT_FALSE(layered.ok());
  EXPECT_NE(layered.status().message().find("sweep point 1"),
            std::string::npos);
}

TEST_F(MonteCarloSweepTest, WorldZeroTypeFlipNamesPoint) {
  // At @p = 1 the CASE always hits; at @p = 0.9 some world > 0 produces
  // NULL, flipping the column away from world 0's numeric layout. The
  // error must name the failing point, identically serial and parallel.
  const std::string script =
      "DECLARE PARAMETER @p AS SET (1, 0.9);"
      "SELECT CASE WHEN CoinFlip(@p) > 0 THEN 1 END AS maybe INTO r;"
      "MONTECARLO OVER @p IN (1, 0.9);";
  auto serial = RunSweepScript(script, false, 1, 64, 400);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(serial.status().message().find("sweep point 1"),
            std::string::npos)
      << serial.status().ToString();
  EXPECT_NE(serial.status().message().find("'maybe' is not numeric"),
            std::string::npos);
  for (bool compiled : {false, true}) {
    auto parallel = RunSweepScript(script, compiled, 8, 7, 400);
    EXPECT_EQ(serial.status(), parallel.status())
        << "compiled=" << compiled;
  }
}

TEST_F(MonteCarloSweepTest, ReportListsPointsDeltasAndFallback) {
  auto compiled = RunSweepScript(SweepScript(3, false), true, 2, 7, 50);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::string report = compiled.value().Report();
  EXPECT_NE(report.find("MONTECARLO OVER @w"), std::string::npos);
  EXPECT_NE(report.find("3 points x 50 worlds"), std::string::npos);
  EXPECT_NE(report.find("@w = 10"), std::string::npos);
  EXPECT_NE(report.find("@w = 30"), std::string::npos);
  // Point-vs-point deltas appear from the second point on.
  EXPECT_NE(report.find("dmean"), std::string::npos);
  EXPECT_NE(report.find("expressions: compiled"), std::string::npos);

  // An uncompilable sweep still runs per point, and the de-optimization
  // reason is surfaced in the same report.
  auto fallback = RunSweepScript(
      "DECLARE PARAMETER @w AS SET (1, 2);"
      "SELECT @w + 0 AS w2,"
      "       CASE WHEN 'a' = 'b' THEN 1 ELSE 2 END AS x INTO r;"
      "MONTECARLO OVER @w IN (1, 2);",
      true, 2, 7, 30);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_FALSE(fallback.value().bound.program->compiled());
  const std::string freport = fallback.value().Report();
  EXPECT_NE(freport.find("expressions: interpreted"), std::string::npos);
  EXPECT_NE(freport.find("fallback:"), std::string::npos);
  EXPECT_NE(freport.find("@w = 2"), std::string::npos);
  EXPECT_EQ(fallback.value().montecarlo->points[1].columns.at("x").mean,
            2.0);
}

// ---------------------------------------------------------------------------
// Chain scenario execution (Figure 5 on the Markov executor)
// ---------------------------------------------------------------------------

TEST_F(BinderTest, ChainScenarioNaiveVsJumpAgree) {
  const char* kFigure5 = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
  FROM @current_week : @current_week - 1 INITIAL VALUE 52;
SELECT CASE WHEN demand > 26 AND @current_week + 4 < @release_week
            THEN @current_week + 4 ELSE @release_week END AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results;
)";
  auto bound = ParseAndBind(kFigure5, registry_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  RunConfig cfg;
  cfg.num_samples = 300;
  cfg.fingerprint_size = 10;

  ChainRunStats naive_stats, jump_stats;
  auto naive = RunChainScenario(bound.value(), "demand", 45, cfg,
                                /*use_jump=*/false, &naive_stats);
  auto jump = RunChainScenario(bound.value(), "demand", 45, cfg,
                               /*use_jump=*/true, &jump_stats);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(jump.ok()) << jump.status().ToString();

  // Demand at week 45 after an (almost certain) pull-in near week 26:
  // mean ~ 45 + 0.2*(45-30) = 48.
  EXPECT_NEAR(naive.value().mean, jump.value().mean,
              4 * naive.value().std_error + 4 * jump.value().std_error + 0.5);
  // The jump runner must do far fewer honest transitions than n*target.
  EXPECT_EQ(naive_stats.step_invocations, 300u * 45u);
  EXPECT_LT(jump_stats.step_invocations + jump_stats.estimator_invocations,
            naive_stats.step_invocations / 2);
}

TEST_F(BinderTest, ChainScenarioUnknownOutputColumn) {
  const char* kFigure5 = R"(
DECLARE PARAMETER @w AS RANGE 0 TO 9 STEP BY 1;
DECLARE PARAMETER @r AS CHAIN r FROM @w : @w - 1 INITIAL VALUE 1;
SELECT @r + 0 AS r, DemandModel(@w, @r) AS demand INTO results;
)";
  auto bound = ParseAndBind(kFigure5, registry_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  RunConfig cfg;
  cfg.num_samples = 20;
  EXPECT_EQ(RunChainScenario(bound.value(), "ghost", 5, cfg, true)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(BinderTest, NonChainScenarioRejectedByChainRunner) {
  auto bound = ParseAndBind(
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;"
      "SELECT DemandModel(@w, 52) AS d INTO r;",
      registry_);
  ASSERT_TRUE(bound.ok());
  RunConfig cfg;
  EXPECT_EQ(
      RunChainScenario(bound.value(), "d", 5, cfg, true).status().code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// MONTECARLO FROM ... JOIN: the uncertain-join surface end to end —
// parse shape, bind-time error shapes, and bit-identity of the engine /
// storage / algorithm / sweep combinations.
// ---------------------------------------------------------------------------

TEST(JoinSqlParseTest, ParsesJoinClauseWithAliasesAndArgs) {
  auto script = ParseScript(
      "MONTECARLO FROM users(20, 0.8, 5.0, 2.0) AS u "
      "JOIN items(30) AS i ON u.user_id = i.item_id USING LAYERED;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const auto& mc = *script.value().statements[0].montecarlo;
  ASSERT_TRUE(mc.join.has_value());
  EXPECT_TRUE(mc.layered);
  EXPECT_EQ(mc.join->left.table, "users");
  ASSERT_EQ(mc.join->left.args.size(), 4u);
  EXPECT_DOUBLE_EQ(mc.join->left.args[1], 0.8);
  EXPECT_EQ(mc.join->left.alias, "u");
  EXPECT_EQ(mc.join->right.table, "items");
  ASSERT_EQ(mc.join->right.args.size(), 1u);
  EXPECT_EQ(mc.join->right.alias, "i");
  EXPECT_EQ(mc.join->on_left_alias, "u");
  EXPECT_EQ(mc.join->on_left_column, "user_id");
  EXPECT_EQ(mc.join->on_right_alias, "i");
  EXPECT_EQ(mc.join->on_right_column, "item_id");
}

TEST(JoinSqlParseTest, AliasDefaultsToTableNameAndOnSidesMaySwap) {
  auto script = ParseScript(
      "MONTECARLO FROM users(8, 0.8, 5.0, 2.0) JOIN items(9) "
      "ON items.item_id = users.user_id OVER @w IN (1, 2);");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const auto& mc = *script.value().statements[0].montecarlo;
  ASSERT_TRUE(mc.join.has_value());
  EXPECT_EQ(mc.join->left.alias, "users");
  EXPECT_EQ(mc.join->right.alias, "items");
  EXPECT_EQ(mc.join->on_left_alias, "items");
  EXPECT_EQ(mc.join->on_right_alias, "users");
  ASSERT_TRUE(mc.over.has_value());
}

TEST(JoinSqlParseTest, MalformedJoinClausesRejected) {
  // Missing ON clause.
  EXPECT_FALSE(
      ParseScript("MONTECARLO FROM users(1) JOIN items(1);").ok());
  // Unqualified ON column.
  EXPECT_FALSE(
      ParseScript(
          "MONTECARLO FROM users(1) JOIN items(1) ON user_id = item_id;")
          .ok());
  // Missing JOIN keyword.
  EXPECT_FALSE(ParseScript("MONTECARLO FROM users(1);").ok());
}

class JoinSqlTest : public BinderTest {
 protected:
  // The scenario SELECT is mandatory for every script (binder pass 2)
  // but a joined MONTECARLO never consults the row program.
  static constexpr const char* kJoinScript = R"(
SELECT 1 AS one INTO r;
MONTECARLO FROM users(20, 0.8, 5.0, 2.0) AS u JOIN items(30) AS i
           ON u.user_id = i.item_id%s;
)";

  static std::string Script(const std::string& suffix) {
    return jigsaw::StrFormat(kJoinScript, suffix.c_str());
  }

  Result<ScriptOutcome> RunJoin(const std::string& text, std::size_t threads,
                                std::size_t batch,
                                std::size_t samples = 12) {
    RunConfig cfg;
    cfg.num_samples = samples;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    ScriptRunner runner(&registry_, cfg);
    return runner.Run(text);
  }

  /// The serial boxed nested-loop fold (boxed_reference.h) of the bound
  /// join, over every numeric joined column — what a 12-world statement
  /// under the default seed must report.
  Result<std::map<std::string, OutputMetrics>> BoxedReference(
      const std::string& text) {
    JIGSAW_ASSIGN_OR_RETURN(BoundScript bound, ParseAndBind(text, registry_));
    const MonteCarloJoinSpec& join = *bound.montecarlo->join;
    std::vector<std::string> columns;
    for (const auto& col : join.resolved.output.columns()) {
      if (col.type != pdb::ValueType::kString) columns.push_back(col.name);
    }
    const RunConfig cfg;
    const SeedVector seeds(cfg.master_seed, 12);
    return test::BoxedFoldJoinedVGColumns(*join.left, *join.right, join.keys,
                                          columns, 12, seeds, cfg);
  }

  static void ExpectSameMetrics(
      const std::map<std::string, OutputMetrics>& expected,
      const std::map<std::string, OutputMetrics>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (const auto& [name, m] : expected) {
      ASSERT_TRUE(actual.count(name)) << name;
      const auto& a = actual.at(name);
      EXPECT_EQ(m.count, a.count) << name;
      EXPECT_EQ(m.mean, a.mean) << name;
      EXPECT_EQ(m.stddev, a.stddev) << name;
      EXPECT_EQ(m.std_error, a.std_error) << name;
      EXPECT_EQ(m.p50, a.p50) << name;
      EXPECT_EQ(m.p95, a.p95) << name;
      EXPECT_EQ(m.min, a.min) << name;
      EXPECT_EQ(m.max, a.max) << name;
    }
  }

  void ExpectBindError(const std::string& script,
                       const std::string& message_fragment) {
    auto bound = ParseAndBind(script, registry_);
    ASSERT_FALSE(bound.ok()) << script;
    EXPECT_EQ(bound.status().code(), StatusCode::kBindError) << script;
    EXPECT_NE(bound.status().message().find(message_fragment),
              std::string::npos)
        << bound.status().message();
  }
};

TEST_F(JoinSqlTest, SummarizesEveryNumericJoinedColumn) {
  auto outcome = RunJoin(Script(""), 1, 64);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const auto& mc = *outcome.value().montecarlo;
  EXPECT_EQ(mc.join, "users AS u JOIN items AS i ON u.user_id = i.item_id");
  // All numeric columns of (users x items), schema order; the string
  // 'region' has no distribution summary.
  ASSERT_EQ(mc.columns.size(), 7u);
  for (const char* name : {"user_id", "signup_week", "requirement",
                           "item_id", "demand", "cost", "in_stock"}) {
    EXPECT_TRUE(mc.columns.count(name)) << name;
  }
  EXPECT_FALSE(mc.columns.count("region"));
  EXPECT_GT(mc.columns.at("requirement").count, 0);
  EXPECT_NE(outcome.value().Report().find(
                "MONTECARLO join: users AS u JOIN items AS i"),
            std::string::npos);
}

TEST_F(JoinSqlTest, EnginesBitIdenticalToBoxedAcrossGrid) {
  // Reference: the serial boxed nested-loop fold of the bound join.
  auto reference = BoxedReference(Script(""));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference.value().size(), 7u);
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    for (const char* engine : {"", " USING DIRECT", " USING LAYERED"}) {
      SCOPED_TRACE(::testing::Message()
                   << "engine=" << (engine[0] ? engine : " default"));
      auto got = RunJoin(Script(engine), threads, batch);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value().montecarlo->layered,
                std::string(engine) == " USING LAYERED");
      ExpectSameMetrics(reference.value(), got.value().montecarlo->columns);
    }
  });
}

TEST_F(JoinSqlTest, SweepPointsBitIdenticalToStandalone) {
  // The join ignores script parameters, so every OVER point must carry
  // exactly the standalone statement's summaries.
  const std::string sweep_script =
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;" +
      Script(" OVER @w IN (1, 3, 5)");
  const std::string standalone_script =
      "DECLARE PARAMETER @w AS RANGE 0 TO 5 STEP BY 1;" + Script("");
  auto standalone = RunJoin(standalone_script, 2, 7);
  auto sweep = RunJoin(sweep_script, 2, 7);
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  const auto& mc = *sweep.value().montecarlo;
  EXPECT_EQ(mc.sweep_param, "w");
  ASSERT_EQ(mc.points.size(), 3u);
  EXPECT_DOUBLE_EQ(mc.points[1].value, 3.0);
  for (const auto& point : mc.points) {
    ExpectSameMetrics(standalone.value().montecarlo->columns, point.columns);
  }
}

TEST_F(JoinSqlTest, FewerWorldsThanFingerprintSize) {
  // A MONTECARLO statement never samples fingerprints, so 8 worlds under
  // the default m = 10 run; OPTIMIZE does, and returns a typed error.
  auto join = RunJoin(Script(""), 2, 64, /*samples=*/8);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value().montecarlo->worlds, 8u);
  EXPECT_GT(join.value().montecarlo->columns.at("requirement").count, 0);

  RunConfig cfg;
  cfg.num_samples = 8;
  ASSERT_EQ(cfg.fingerprint_size, 10u);
  ScriptRunner runner(&registry_, cfg);
  auto optimize = runner.Run(kFigure1);
  ASSERT_FALSE(optimize.ok());
  EXPECT_EQ(optimize.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(optimize.status().message().find("fingerprint size"),
            std::string::npos)
      << optimize.status().message();
}

TEST_F(JoinSqlTest, BindErrorShapes) {
  // Unknown VG table in the catalog.
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM ghosts(3) AS g JOIN items(3) AS i "
      "ON g.x = i.item_id;",
      "unknown VG table 'ghosts'");
  // Wrong constructor arity.
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM users(20) AS u JOIN items(3) AS i "
      "ON u.user_id = i.item_id;",
      "VG table 'users' takes");
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM users(20, 0.8, 5.0, 2.0) AS u JOIN items() AS i "
      "ON u.user_id = i.item_id;",
      "VG table 'items' takes");
  // ON references an alias neither side declared.
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM users(20, 0.8, 5.0, 2.0) AS u JOIN items(3) AS i "
      "ON ghost.user_id = i.item_id;",
      "ON references unknown alias 'ghost'");
  // Both ON sides name the same table.
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM users(20, 0.8, 5.0, 2.0) AS u JOIN items(3) AS i "
      "ON u.user_id = u.signup_week;",
      "name the same side");
  // Unknown key column (pdb resolver text, bind-time code).
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM users(20, 0.8, 5.0, 2.0) AS u JOIN items(3) AS i "
      "ON u.nope = i.item_id;",
      "no column named 'nope'");
  // Type-mismatched keys.
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM users(20, 0.8, 5.0, 2.0) AS u JOIN items(3) AS i "
      "ON u.user_id = i.region;",
      "have mismatched types");
  // Self-join duplicates every output name.
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM users(5, 0.8, 5.0, 2.0) AS a "
      "JOIN users(5, 0.8, 5.0, 2.0) AS b ON a.user_id = b.user_id;",
      "duplicate column");
  // Two sides sharing one alias can never be disambiguated.
  ExpectBindError(
      "SELECT 1 AS one INTO r;"
      "MONTECARLO FROM users(5, 0.8, 5.0, 2.0) AS t JOIN items(3) AS t "
      "ON t.user_id = t.item_id;",
      "share the alias 't'");
}

TEST_F(JoinSqlTest, CountArgumentsMustBeIntegersInIntRange) {
  // num_users, sim_depth and num_rows are ints: anything that is not a
  // finite integer in [1, INT_MAX] is a BindError naming the table and
  // the argument, never a cast out of range or a silent truncation.
  const auto script = [](const std::string& users, const std::string& items) {
    return "SELECT 1 AS one INTO r; MONTECARLO FROM users(" + users +
           ") AS u JOIN items(" + items + ") AS i ON u.user_id = i.item_id;";
  };
  ExpectBindError(script("3e9, 0.8, 5.0, 2.0", "4"),
                  "VG table 'users' needs num_users to be an integer in "
                  "[1, 2147483647], got 3e+09");
  ExpectBindError(script("1e400, 0.8, 5.0, 2.0", "4"),
                  "VG table 'users' needs num_users to be an integer in "
                  "[1, 2147483647], got inf");
  ExpectBindError(script("2.5, 0.8, 5.0, 2.0", "4"),
                  "VG table 'users' needs num_users to be an integer in "
                  "[1, 2147483647], got 2.5");
  ExpectBindError(script("20, 0.8, 5.0, 2.0, -3", "4"),
                  "VG table 'users' needs sim_depth to be an integer in "
                  "[1, 2147483647], got -3");
  ExpectBindError(script("20, 0.8, 5.0, 2.0", "1e400"),
                  "VG table 'items' needs num_rows to be an integer in "
                  "[1, 2147483647], got inf");
  ExpectBindError(script("20, 0.8, 5.0, 2.0", "4.7"),
                  "VG table 'items' needs num_rows to be an integer in "
                  "[1, 2147483647], got 4.7");
  ExpectBindError(script("20, 0.8, 5.0, 2.0", "0"),
                  "VG table 'items' needs num_rows to be an integer in "
                  "[1, 2147483647], got 0");
  // The bounds themselves bind. Binding stays O(1) in the user count:
  // the users table derives its population on its first realization.
  EXPECT_TRUE(ParseAndBind(script("1, 0.8, 5.0, 2.0, 1", "1"), registry_).ok());
  EXPECT_TRUE(
      ParseAndBind(script("20, 0.8, 5.0, 2.0", "2147483647"), registry_).ok());
  EXPECT_TRUE(ParseAndBind(script("2147483647, 0.8, 5.0, 2.0, 2147483647",
                                  "1"),
                           registry_)
                  .ok());
}

TEST_F(JoinSqlTest, DistributionArgumentsMustBeFiniteAndInRange) {
  // Every distribution argument must be finite, arrival_rate > 0 and the
  // lognormal sigmas (spread, demand_sigma) >= 0; anything else is a
  // BindError naming the table and the argument, not a fold of NaN and
  // infinite draws.
  const auto script = [](const std::string& users, const std::string& items) {
    return "SELECT 1 AS one INTO r; MONTECARLO FROM users(" + users +
           ") AS u JOIN items(" + items + ") AS i ON u.user_id = i.item_id;";
  };
  ExpectBindError(script("8, 0.8, 5.0, 2.0", "8, 1e400, -0.5, -3"),
                  "VG table 'items' needs demand_mu to be finite, got inf");
  ExpectBindError(script("8, 1e400, 5.0, 2.0", "8"),
                  "VG table 'users' needs arrival_rate to be finite and > 0, "
                  "got inf");
  ExpectBindError(script("8, 0, 5.0, 2.0", "8"),
                  "VG table 'users' needs arrival_rate to be finite and > 0, "
                  "got 0");
  ExpectBindError(script("8, -0.8, 5.0, 2.0", "8"),
                  "VG table 'users' needs arrival_rate to be finite and > 0, "
                  "got -0.8");
  ExpectBindError(script("8, 0.8, -1e400, 2.0", "8"),
                  "VG table 'users' needs base_demand to be finite, got -inf");
  ExpectBindError(script("8, 0.8, 5.0, 1e400", "8"),
                  "VG table 'users' needs spread to be finite and >= 0, "
                  "got inf");
  ExpectBindError(script("8, 0.8, 5.0, -1e-300", "8"),
                  "VG table 'users' needs spread to be finite and >= 0, "
                  "got -1e-300");
  ExpectBindError(script("8, 0.8, 5.0, 2.0", "8, 1.0, -0.5"),
                  "VG table 'items' needs demand_sigma to be finite and >= 0, "
                  "got -0.5");
  ExpectBindError(script("8, 0.8, 5.0, 2.0", "8, 1.0, 1e400"),
                  "VG table 'items' needs demand_sigma to be finite and >= 0, "
                  "got inf");
  ExpectBindError(script("8, 0.8, 5.0, 2.0", "8, 1.0, 0.5, -1e400"),
                  "VG table 'items' needs cost_base to be finite, got -inf");
  // The other side of each limit binds: the smallest positive rate, zero
  // sigmas, and finite extremes for the unbounded arguments.
  EXPECT_TRUE(ParseAndBind(script("8, 5e-324, -1.7976931348623157e308, 0",
                                  "8, 1.7976931348623157e308, 0, -1e300"),
                           registry_)
                  .ok());
  EXPECT_TRUE(ParseAndBind(script("8, 1.7976931348623157e308, 5.0, -0",
                                  "8, -1e300, -0, 3"),
                           registry_)
                  .ok());
}

}  // namespace
}  // namespace jigsaw::sql
