// Tests for the mini-MCDB substrate: typed values, tables, expression
// evaluation (including stochastic model calls), Volcano operators, VG
// tables with the world cache, the possible-worlds folds and the layered
// engine.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include <span>

#include "boxed_reference.h"
#include "grid_test_util.h"
#include "models/cloud_models.h"
#include "pdb/batch_program.h"
#include "pdb/expr.h"
#include "pdb/layered_engine.h"
#include "pdb/monte_carlo.h"
#include "pdb/operators.h"
#include "pdb/table.h"
#include "pdb/value.h"
#include "pdb/vg_table.h"

namespace jigsaw::pdb {
namespace {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(std::int64_t{4}).type(), ValueType::kInt);
  EXPECT_EQ(Value(1.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value(std::string("x")).type(), ValueType::kString);
  EXPECT_EQ(Value(std::int64_t{4}).AsInt(), 4);
  EXPECT_DOUBLE_EQ(Value(std::int64_t{4}).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(Value(true).AsDouble(), 1.0);
  EXPECT_TRUE(Value(std::int64_t{1}).AsBool());
  EXPECT_FALSE(Value(0.0).AsBool());
}

TEST(ValueTest, ArithmeticPromotion) {
  const Value i4(std::int64_t{4});
  const Value i3(std::int64_t{3});
  const Value d2(2.0);
  auto sum = Add(i4, i3);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum.value().type(), ValueType::kInt);
  EXPECT_EQ(sum.value().AsInt(), 7);
  auto mixed = Multiply(i4, d2);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed.value().type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(mixed.value().AsDouble(), 8.0);
  // Division always produces double.
  auto div = Divide(i4, i3);
  ASSERT_TRUE(div.ok());
  EXPECT_EQ(div.value().type(), ValueType::kDouble);
}

TEST(ValueTest, NullPropagatesThroughArithmetic) {
  auto v = Add(Value::Null(), Value(1.0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value().is_null());
}

TEST(ValueTest, DivisionByZeroIsError) {
  EXPECT_EQ(Divide(Value(1.0), Value(0.0)).status().code(),
            StatusCode::kExecutionError);
}

TEST(ValueTest, NonNumericArithmeticIsError) {
  EXPECT_FALSE(Add(Value(std::string("a")), Value(1.0)).ok());
}

TEST(ValueTest, CompareOrdersNumericsAndStrings) {
  EXPECT_LT(Value::Compare(Value(1.0), Value(std::int64_t{2})), 0);
  EXPECT_EQ(Value::Compare(Value(2.0), Value(std::int64_t{2})), 0);
  EXPECT_GT(Value::Compare(Value(std::string("b")),
                           Value(std::string("a"))),
            0);
  EXPECT_LT(Value::Compare(Value::Null(), Value(0.0)), 0);
}

TEST(ValueTest, ParseRoundTrip) {
  auto i = Value::Parse("42", ValueType::kInt);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i.value().AsInt(), 42);
  auto d = Value::Parse("2.5", ValueType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value().AsDouble(), 2.5);
  auto b = Value::Parse("TRUE", ValueType::kBool);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.value().AsBool());
  EXPECT_FALSE(Value::Parse("zz", ValueType::kInt).ok());
  EXPECT_FALSE(Value::Parse("maybe", ValueType::kBool).ok());
}

// ---------------------------------------------------------------------------
// Table / Schema / CSV interop
// ---------------------------------------------------------------------------

/// AddRow for rows a test knows to be schema-conformant.
void MustAddRow(Table& t, Row row) {
  const Status s = t.AddRow(std::move(row));
  ASSERT_TRUE(s.ok()) << s.ToString();
}

Table MakeToyTable() {
  Schema schema(std::vector<Column>{{"id", ValueType::kInt},
                                    {"score", ValueType::kDouble}});
  Table t(schema);
  for (int i = 0; i < 5; ++i) {
    MustAddRow(t, {Value(std::int64_t{i}), Value(i * 1.5)});
  }
  return t;
}

TEST(TableTest, AddRowValidatesArityAndTypes) {
  Schema schema(std::vector<Column>{{"id", ValueType::kInt},
                                    {"label", ValueType::kString}});
  Table t(schema);

  // Arity mismatch is rejected, not silently accepted.
  Status arity = t.AddRow({Value(std::int64_t{1})});
  EXPECT_EQ(arity.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(arity.message().find("arity"), std::string::npos);

  // A numeric value cannot land in a string-declared column.
  Status type = t.AddRow({Value(std::int64_t{1}), Value(2.5)});
  EXPECT_EQ(type.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(type.message().find("label"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 0u);

  // The numeric family is interchangeable (Value::AsDouble coercion) and
  // nulls always fit.
  EXPECT_TRUE(t.AddRow({Value(1.0), Value(std::string("ok"))}).ok());
  EXPECT_TRUE(t.AddRow({Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 2u);

  // A string cannot land in a numeric-declared column.
  Schema num(std::vector<Column>{{"x", ValueType::kDouble}});
  Table tn(num);
  EXPECT_FALSE(tn.AddRow({Value(std::string("oops"))}).ok());
}

TEST(TableTest, SchemaLookupCaseInsensitive) {
  const Table t = MakeToyTable();
  auto idx = t.schema().IndexOf("SCORE");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1u);
  EXPECT_FALSE(t.schema().IndexOf("ghost").ok());
}

TEST(TableTest, NumericColumnExtraction) {
  const Table t = MakeToyTable();
  auto col = t.NumericColumn("score");
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(col.value().size(), 5u);
  EXPECT_DOUBLE_EQ(col.value()[2], 3.0);
}

TEST(TableTest, CsvRoundTripPreservesValues) {
  const Table t = MakeToyTable();
  const std::string csv = t.ToCsv();
  auto parsed = Table::FromCsv(csv, t.schema());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().num_rows(), t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_TRUE(parsed.value().row(r)[0] == t.row(r)[0]);
    EXPECT_TRUE(parsed.value().row(r)[1] == t.row(r)[1]);
  }
}

TEST(TableTest, CsvArityMismatchIsError) {
  const Table t = MakeToyTable();
  EXPECT_FALSE(Table::FromCsv("id,score\n1\n", t.schema()).ok());
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

TEST(ExprTest, ArithmeticAndComparison) {
  EvalContext ctx;
  auto e = MakeBinary(BinaryOp::kAdd, MakeLiteral(Value(2.0)),
                      MakeBinary(BinaryOp::kMul, MakeLiteral(Value(3.0)),
                                 MakeLiteral(Value(4.0))));
  auto v = e->Eval(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.value().AsDouble(), 14.0);

  auto cmp = MakeBinary(BinaryOp::kLt, MakeLiteral(Value(1.0)),
                        MakeLiteral(Value(2.0)));
  EXPECT_TRUE(cmp->Eval(ctx).value().AsBool());
}

TEST(ExprTest, ToStringRendersEveryOperator) {
  const std::pair<BinaryOp, const char*> ops[] = {
      {BinaryOp::kAdd, "+"},  {BinaryOp::kSub, "-"},  {BinaryOp::kMul, "*"},
      {BinaryOp::kDiv, "/"},  {BinaryOp::kLt, "<"},   {BinaryOp::kLe, "<="},
      {BinaryOp::kGt, ">"},   {BinaryOp::kGe, ">="},  {BinaryOp::kEq, "="},
      {BinaryOp::kNe, "<>"},  {BinaryOp::kAnd, "AND"}, {BinaryOp::kOr, "OR"}};
  for (const auto& [op, name] : ops) {
    EXPECT_EQ(MakeBinary(op, MakeColumnRef(0, "a"), MakeParamRef(0, "p"))
                  ->ToString(),
              std::string("(a ") + name + " @p)");
  }
  EXPECT_EQ(MakeNot(MakeLiteral(Value(true)))->ToString(), "NOT true");
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  branches.emplace_back(MakeAliasRef(0, "x"), MakeLiteral(Value(1.0)));
  EXPECT_EQ(MakeCase(std::move(branches), MakeLiteral(Value(2.5)))->ToString(),
            "CASE WHEN x THEN 1 ELSE 2.5 END");
}

TEST(ExprTest, LogicShortCircuits) {
  EvalContext ctx;
  // false AND <error> must not evaluate the error side.
  auto err = MakeBinary(BinaryOp::kDiv, MakeLiteral(Value(1.0)),
                        MakeLiteral(Value(0.0)));
  auto e = MakeBinary(BinaryOp::kAnd, MakeLiteral(Value(false)), err);
  auto v = e->Eval(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.value().AsBool());
  auto e2 = MakeBinary(BinaryOp::kOr, MakeLiteral(Value(true)), err);
  EXPECT_TRUE(e2->Eval(ctx).value().AsBool());
}

TEST(ExprTest, CaseSelectsFirstMatchingBranch) {
  EvalContext ctx;
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  branches.emplace_back(MakeLiteral(Value(false)), MakeLiteral(Value(1.0)));
  branches.emplace_back(MakeLiteral(Value(true)), MakeLiteral(Value(2.0)));
  auto e = MakeCase(std::move(branches), MakeLiteral(Value(3.0)));
  EXPECT_DOUBLE_EQ(e->Eval(ctx).value().AsDouble(), 2.0);

  std::vector<std::pair<ExprPtr, ExprPtr>> none;
  none.emplace_back(MakeLiteral(Value(false)), MakeLiteral(Value(1.0)));
  auto e2 = MakeCase(std::move(none), MakeLiteral(Value(9.0)));
  EXPECT_DOUBLE_EQ(e2->Eval(ctx).value().AsDouble(), 9.0);

  std::vector<std::pair<ExprPtr, ExprPtr>> noelse;
  noelse.emplace_back(MakeLiteral(Value(false)), MakeLiteral(Value(1.0)));
  auto e3 = MakeCase(std::move(noelse), nullptr);
  EXPECT_TRUE(e3->Eval(ctx).value().is_null());
}

TEST(ExprTest, ColumnAliasAndParamRefs) {
  Row row = {Value(10.0), Value(20.0)};
  std::vector<Value> aliases = {Value(7.0)};
  std::vector<double> params = {3.5};
  EvalContext ctx;
  ctx.row = &row;
  ctx.aliases = &aliases;
  ctx.params = params;
  EXPECT_DOUBLE_EQ(
      MakeColumnRef(1, "b")->Eval(ctx).value().AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(
      MakeAliasRef(0, "a")->Eval(ctx).value().AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(
      MakeParamRef(0, "p")->Eval(ctx).value().AsDouble(), 3.5);
  // Out-of-context references are execution errors, not crashes.
  EXPECT_FALSE(MakeColumnRef(5, "x")->Eval(ctx).ok());
  EXPECT_FALSE(MakeAliasRef(5, "x")->Eval(ctx).ok());
  EXPECT_FALSE(MakeParamRef(5, "x")->Eval(ctx).ok());
}

TEST(ExprTest, ModelCallIsSeededAndCallSiteSeparated) {
  CloudModelConfig cfg;
  auto model = MakeDemandModel(cfg);
  SeedVector seeds(9, 10);
  EvalContext ctx;
  ctx.seeds = &seeds;
  ctx.sample_id = 0;

  auto call1 = MakeModelCall(
      model, {MakeLiteral(Value(10.0)), MakeLiteral(Value(52.0))}, 1);
  auto call1b = MakeModelCall(
      model, {MakeLiteral(Value(10.0)), MakeLiteral(Value(52.0))}, 1);
  auto call2 = MakeModelCall(
      model, {MakeLiteral(Value(10.0)), MakeLiteral(Value(52.0))}, 2);

  const double a = call1->Eval(ctx).value().AsDouble();
  const double b = call1b->Eval(ctx).value().AsDouble();
  const double c = call2->Eval(ctx).value().AsDouble();
  EXPECT_EQ(a, b);  // same call site, same world -> identical draw
  EXPECT_NE(a, c);  // different call site -> independent stream

  ctx.sample_id = 1;
  EXPECT_NE(call1->Eval(ctx).value().AsDouble(), a);  // new world
  ctx.sample_id = 0;
  ctx.stream_salt = 1234;
  EXPECT_NE(call1->Eval(ctx).value().AsDouble(), a);  // salted (chain step)
}

TEST(ExprTest, ModelCallWithoutSeedsIsError) {
  CloudModelConfig cfg;
  auto model = MakeDemandModel(cfg);
  EvalContext ctx;  // no seeds
  auto call = MakeModelCall(
      model, {MakeLiteral(Value(1.0)), MakeLiteral(Value(2.0))}, 1);
  EXPECT_EQ(call->Eval(ctx).status().code(), StatusCode::kExecutionError);
}

// ---------------------------------------------------------------------------
// BatchProgram: compiled expressions must be bit-identical to Expr::Eval
// ---------------------------------------------------------------------------

/// Scalar reference: RowProgram::EvalColumn semantics over raw Expr
/// lists (inner row first, then outer aliases 0..j, numeric check on j).
Result<double> RefEvalColumn(const std::vector<ExprPtr>& inner,
                             const std::vector<ExprPtr>& outer,
                             const std::vector<std::string>& names,
                             std::size_t j, std::span<const double> params,
                             std::size_t sample, const SeedVector& seeds,
                             std::uint64_t salt) {
  EvalContext ctx;
  ctx.params = params;
  ctx.sample_id = sample;
  ctx.seeds = &seeds;
  ctx.stream_salt = salt;
  Row inner_row;
  if (!inner.empty()) {
    std::vector<Value> inner_aliases;
    EvalContext inner_ctx = ctx;
    inner_ctx.aliases = &inner_aliases;
    for (const auto& e : inner) {
      JIGSAW_ASSIGN_OR_RETURN(Value v, e->Eval(inner_ctx));
      inner_aliases.push_back(std::move(v));
    }
    inner_row = std::move(inner_aliases);
    ctx.row = &inner_row;
  }
  std::vector<Value> aliases;
  ctx.aliases = &aliases;
  for (std::size_t i = 0; i <= j; ++i) {
    JIGSAW_ASSIGN_OR_RETURN(Value v, outer[i]->Eval(ctx));
    aliases.push_back(std::move(v));
  }
  if (!aliases[j].IsNumeric()) {
    return Status::ExecutionError("column '" + names[j] +
                                  "' is not numeric");
  }
  return aliases[j].AsDouble();
}

BlackBoxPtr MakeNoisyModel() {
  return std::make_shared<CallableBlackBox>(
      "Noisy", std::vector<std::string>{"base"},
      [](std::span<const double> params, RandomStream& rng) {
        return params[0] + rng.NextDouble();
      });
}

TEST(BatchProgramTest, BitIdenticalToInterpreterAcrossBatchGrid) {
  // Mixed shape: broadcast loads, arithmetic, comparisons, CASE with
  // ELSE, AND/OR, and two stochastic call sites (one with lane-uniform
  // args, one fed by another model call).
  auto model = MakeNoisyModel();
  std::vector<ExprPtr> inner = {
      MakeModelCall(model, {MakeLiteral(Value(10.0))}, /*call_site=*/1)};
  std::vector<ExprPtr> outer;
  std::vector<std::string> names = {"demand", "capacity", "overload"};
  outer.push_back(MakeColumnRef(0, "demand"));
  outer.push_back(MakeBinary(
      BinaryOp::kAdd, MakeParamRef(0, "p"),
      MakeModelCall(model, {MakeAliasRef(0, "demand")}, /*call_site=*/2)));
  outer.push_back(MakeCase(
      {{MakeBinary(BinaryOp::kAnd,
                   MakeBinary(BinaryOp::kLt, MakeAliasRef(1, "capacity"),
                              MakeAliasRef(0, "demand")),
                   MakeBinary(BinaryOp::kGt, MakeParamRef(0, "p"),
                              MakeLiteral(Value(0.0)))),
        MakeLiteral(Value(1.0))}},
      MakeLiteral(Value(0.0))));

  auto compiled = CompileBatchProgram(inner, outer, names);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const BatchProgram& program = *compiled.value();

  const std::size_t kSamples = 64;
  SeedVector seeds(0xFEED, kSamples);
  const std::vector<double> params = {2.5};
  for (std::uint64_t salt : {std::uint64_t{0}, std::uint64_t{77}}) {
    for (std::size_t batch : test::GridBatchSizes()) {
      SCOPED_TRACE(testing::Message() << "salt=" << salt
                                      << " batch=" << batch);
      for (std::size_t j = 0; j < outer.size(); ++j) {
        std::vector<double> got(kSamples);
        BatchScratch scratch;
        for (std::size_t begin = 0; begin < kSamples; begin += batch) {
          const std::size_t n = std::min(batch, kSamples - begin);
          BatchProgram::Context ctx;
          ctx.params = params;
          ctx.sample_begin = begin;
          ctx.seeds = &seeds;
          ctx.stream_salt = salt;
          ASSERT_TRUE(program
                          .RunColumn(j, ctx, n,
                                     std::span<double>(got.data() + begin, n),
                                     scratch)
                          .ok());
        }
        for (std::size_t k = 0; k < kSamples; ++k) {
          auto ref =
              RefEvalColumn(inner, outer, names, j, params, k, seeds, salt);
          ASSERT_TRUE(ref.ok());
          EXPECT_EQ(got[k], ref.value()) << "column " << j << " sample " << k;
        }
      }
    }
  }
}

TEST(BatchProgramTest, DivisionByZeroReportsLowestLaneError) {
  // q = 100 / @d with @d fed per lane; lanes 2 and 5 divide by zero, so
  // the batch must fail with exactly the error the serial interpreter
  // hits first (lane 2's).
  std::vector<ExprPtr> outer = {MakeBinary(
      BinaryOp::kDiv, MakeLiteral(Value(100.0)), MakeParamRef(0, "d"))};
  std::vector<std::string> names = {"q"};
  auto compiled = CompileBatchProgram({}, outer, names);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  SeedVector seeds(1, 8);
  const std::vector<double> lanes = {1, 2, 0, 4, 5, 0, 7, 8};
  BatchProgram::LaneParam lane_param{0, lanes};
  BatchProgram::Context ctx;
  ctx.params = std::vector<double>{1.0};
  ctx.lane_params = std::span<const BatchProgram::LaneParam>(&lane_param, 1);
  ctx.seeds = &seeds;
  BatchScratch scratch;
  std::vector<double> out(8);
  Status s = compiled.value()->RunColumn(0, ctx, 8, out, scratch);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kExecutionError);
  EXPECT_EQ(s.message(), "division by zero");

  // The clean prefix of lanes must still be computable alone.
  Status ok2 = compiled.value()->RunColumn(0, ctx, 2, out, scratch);
  EXPECT_TRUE(ok2.ok()) << ok2.ToString();
  EXPECT_EQ(out[0], 100.0);
  EXPECT_EQ(out[1], 50.0);
}

TEST(BatchProgramTest, LogicalOpsShortCircuitErroringRightOperand) {
  // (d > 0) AND (10 / d > 1): lanes with d == 0 short-circuit to false;
  // the division must not run (let alone raise) there. Matching OR form
  // checks the complementary mask.
  auto guard = MakeBinary(BinaryOp::kGt, MakeParamRef(0, "d"),
                          MakeLiteral(Value(0.0)));
  auto risky = MakeBinary(
      BinaryOp::kGt,
      MakeBinary(BinaryOp::kDiv, MakeLiteral(Value(10.0)),
                 MakeParamRef(0, "d")),
      MakeLiteral(Value(1.0)));
  std::vector<ExprPtr> outer = {
      MakeBinary(BinaryOp::kAnd, guard, risky),
      MakeBinary(BinaryOp::kOr, MakeNot(guard), risky)};
  std::vector<std::string> names = {"and_col", "or_col"};
  auto compiled = CompileBatchProgram({}, outer, names);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  SeedVector seeds(1, 8);
  const std::vector<double> lanes = {4, 0, 20, 0, 5, 0, 0, 2};
  BatchProgram::LaneParam lane_param{0, lanes};
  BatchProgram::Context ctx;
  ctx.params = std::vector<double>{1.0};
  ctx.lane_params = std::span<const BatchProgram::LaneParam>(&lane_param, 1);
  ctx.seeds = &seeds;
  BatchScratch scratch;
  for (std::size_t j = 0; j < outer.size(); ++j) {
    std::vector<double> got(8);
    Status s = compiled.value()->RunColumn(j, ctx, 8, got, scratch);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (std::size_t k = 0; k < 8; ++k) {
      const std::vector<double> params = {lanes[k]};
      auto ref = RefEvalColumn({}, outer, names, j, params, k, seeds, 0);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(got[k], ref.value()) << "column " << j << " lane " << k;
    }
  }
}

TEST(BatchProgramTest, CaseWithoutElseMatchesInterpreterNullSemantics) {
  // CASE WHEN d > 0 THEN d END: lanes failing the WHEN produce NULL; as
  // an output column that is the interpreter's "not numeric" error, and
  // as an intermediate alias it must flow through untouched arithmetic.
  std::vector<ExprPtr> outer = {
      MakeCase({{MakeBinary(BinaryOp::kGt, MakeParamRef(0, "d"),
                            MakeLiteral(Value(0.0))),
                 MakeParamRef(0, "d")}},
               nullptr),
      MakeBinary(BinaryOp::kAdd, MakeAliasRef(0, "maybe"),
                 MakeLiteral(Value(1.0))),
      MakeLiteral(Value(7.0))};
  std::vector<std::string> names = {"maybe", "shifted", "ok"};
  auto compiled = CompileBatchProgram({}, outer, names);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  SeedVector seeds(1, 4);
  BatchProgram::Context ctx;
  ctx.seeds = &seeds;
  BatchScratch scratch;
  std::vector<double> got(4);

  {  // All lanes match: both output columns are clean and identical.
    const std::vector<double> lanes = {1, 2, 3, 4};
    BatchProgram::LaneParam lane_param{0, lanes};
    ctx.lane_params =
        std::span<const BatchProgram::LaneParam>(&lane_param, 1);
    ctx.params = std::vector<double>{1.0};
    for (std::size_t j : {0u, 1u}) {
      Status s = compiled.value()->RunColumn(j, ctx, 4, got, scratch);
      ASSERT_TRUE(s.ok()) << s.ToString();
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(got[k], lanes[k] + (j == 1 ? 1.0 : 0.0));
      }
    }
  }
  {  // A NULL lane: the same error (and message) the interpreter gives.
    const std::vector<double> lanes = {1, -2, 3, 4};
    BatchProgram::LaneParam lane_param{0, lanes};
    ctx.lane_params =
        std::span<const BatchProgram::LaneParam>(&lane_param, 1);
    for (std::size_t j : {0u, 1u}) {
      Status s = compiled.value()->RunColumn(j, ctx, 4, got, scratch);
      const std::vector<double> params = {lanes[1]};
      auto ref = RefEvalColumn({}, outer, names, j, params, 1, seeds, 0);
      ASSERT_FALSE(s.ok());
      ASSERT_FALSE(ref.ok());
      EXPECT_EQ(s.message(), ref.status().message());
    }
    // Column "ok" never touches the NULL register: RunColumn must skip
    // the intermediate columns' numeric checks like EvalColumn does.
    Status s = compiled.value()->RunColumn(2, ctx, 4, got, scratch);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(got[1], 7.0);
    // RunAll, by contrast, checks every column in order.
    std::vector<double> c0(4), c1(4), c2(4);
    std::vector<double*> cols = {c0.data(), c1.data(), c2.data()};
    Status all = compiled.value()->RunAll(ctx, 4, cols, scratch);
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.message(), "column 'maybe' is not numeric");
  }
}

TEST(BatchProgramTest, ModelCallStreamsMatchInterpreterPerSaltAndSite) {
  // Two lexical call sites over the same model must draw independent
  // streams, and a nonzero stream salt must re-derive them exactly as
  // ModelCallExpr does; nested calls force the per-lane dispatch path.
  auto model = MakeNoisyModel();
  std::vector<ExprPtr> outer = {
      MakeBinary(BinaryOp::kSub,
                 MakeModelCall(model, {MakeLiteral(Value(5.0))}, 11),
                 MakeModelCall(model, {MakeLiteral(Value(5.0))}, 12)),
      MakeModelCall(model,
                    {MakeModelCall(model, {MakeLiteral(Value(1.0))}, 13)},
                    14)};
  std::vector<std::string> names = {"diff", "nested"};
  auto compiled = CompileBatchProgram({}, outer, names);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  const std::size_t kSamples = 32;
  SeedVector seeds(0xABCD, kSamples);
  BatchScratch scratch;
  for (std::uint64_t salt : {std::uint64_t{0}, std::uint64_t{0x5A17}}) {
    for (std::size_t j = 0; j < outer.size(); ++j) {
      BatchProgram::Context ctx;
      ctx.seeds = &seeds;
      ctx.stream_salt = salt;
      std::vector<double> got(kSamples);
      Status s = compiled.value()->RunColumn(j, ctx, kSamples, got, scratch);
      ASSERT_TRUE(s.ok()) << s.ToString();
      for (std::size_t k = 0; k < kSamples; ++k) {
        auto ref = RefEvalColumn({}, outer, names, j, {}, k, seeds, salt);
        ASSERT_TRUE(ref.ok());
        EXPECT_EQ(got[k], ref.value())
            << "salt " << salt << " column " << j << " sample " << k;
      }
    }
  }
}

TEST(BatchProgramTest, ModelArgErrorPrecedenceMatchesInterpreter) {
  // F(NULL-able, erroring) must report the interpreter's first failure:
  // argument i is numeric-checked before argument i+1 ever evaluates, so
  // a NULL first argument wins over a division by zero in the second.
  auto two_arg = std::make_shared<CallableBlackBox>(
      "F", std::vector<std::string>{"a", "b"},
      [](std::span<const double> params, RandomStream&) {
        return params[0] + params[1];
      });
  std::vector<ExprPtr> outer = {MakeModelCall(
      two_arg,
      {MakeCase({{MakeBinary(BinaryOp::kLt, MakeParamRef(0, "p"),
                             MakeLiteral(Value(0.0))),
                  MakeLiteral(Value(1.0))}},
                nullptr),
       MakeBinary(BinaryOp::kDiv, MakeLiteral(Value(1.0)),
                  MakeParamRef(0, "p"))},
      /*call_site=*/1)};
  std::vector<std::string> names = {"x"};
  auto compiled = CompileBatchProgram({}, outer, names);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  SeedVector seeds(1, 4);
  // p = 0: first argument is NULL *and* the second divides by zero.
  const std::vector<double> lanes = {-1, 0, -2, -3};
  BatchProgram::LaneParam lane_param{0, lanes};
  BatchProgram::Context ctx;
  ctx.params = std::vector<double>{1.0};
  ctx.lane_params = std::span<const BatchProgram::LaneParam>(&lane_param, 1);
  ctx.seeds = &seeds;
  BatchScratch scratch;
  std::vector<double> got(4);
  Status s = compiled.value()->RunColumn(0, ctx, 4, got, scratch);
  auto ref = RefEvalColumn({}, outer, names, 0, {{0.0}}, 1, seeds, 0);
  ASSERT_FALSE(s.ok());
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(s.message(), ref.status().message());
  EXPECT_EQ(s.message(), "non-numeric argument to F");

  // Without seeds the interpreter fails before evaluating any argument;
  // the compiled program must prefer that error over the div-by-zero.
  BatchProgram::Context no_seeds = ctx;
  no_seeds.seeds = nullptr;
  Status s2 = compiled.value()->RunColumn(0, no_seeds, 4, got, scratch);
  ASSERT_FALSE(s2.ok());
  EXPECT_EQ(s2.message(),
            "stochastic expression evaluated without a seed vector");
}

TEST(BatchProgramTest, ModelCallWithoutSeedsMatchesInterpreterError) {
  auto model = MakeNoisyModel();
  std::vector<ExprPtr> outer = {
      MakeModelCall(model, {MakeLiteral(Value(1.0))}, 1)};
  std::vector<std::string> names = {"x"};
  auto compiled = CompileBatchProgram({}, outer, names);
  ASSERT_TRUE(compiled.ok());
  BatchProgram::Context ctx;  // no seeds
  BatchScratch scratch;
  std::vector<double> got(4);
  Status s = compiled.value()->RunColumn(0, ctx, 4, got, scratch);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "stochastic expression evaluated without a seed vector");
}

TEST(BatchProgramTest, UncompilableExpressionsReportReasons) {
  // String literals have no numeric batch form; the reason must say so.
  std::vector<ExprPtr> with_string = {
      MakeCase({{MakeBinary(BinaryOp::kEq, MakeLiteral(Value(std::string("a"))),
                            MakeLiteral(Value(std::string("b")))),
                 MakeLiteral(Value(1.0))}},
               MakeLiteral(Value(2.0)))};
  std::vector<std::string> names = {"x"};
  auto r1 = CompileBatchProgram({}, with_string, names);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("string literal"), std::string::npos);

  // INT literals carry 64-bit integer arithmetic the double VM cannot
  // reproduce bit-for-bit.
  std::vector<ExprPtr> with_int = {MakeBinary(
      BinaryOp::kAdd, MakeLiteral(Value(std::int64_t{1})),
      MakeLiteral(Value(std::int64_t{2})))};
  auto r2 = CompileBatchProgram({}, with_int, names);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("INT literal"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

TEST(OperatorTest, ScanFilterProject) {
  const Table t = MakeToyTable();
  EvalContext ctx;
  auto plan = MakeProject(
      MakeFilter(MakeTableScan(&t),
                 MakeBinary(BinaryOp::kGe, MakeColumnRef(1, "score"),
                            MakeLiteral(Value(3.0)))),
      {MakeColumnRef(0, "id"),
       MakeBinary(BinaryOp::kMul, MakeColumnRef(1, "score"),
                  MakeLiteral(Value(2.0)))},
      {"id", "double_score"});
  auto result = ExecuteToTable(*plan, ctx);
  ASSERT_TRUE(result.ok());
  // Rows with score >= 3: ids 2,3,4.
  ASSERT_EQ(result.value().num_rows(), 3u);
  EXPECT_DOUBLE_EQ(result.value().row(0)[1].AsDouble(), 6.0);
}

TEST(OperatorTest, ProjectAliasesVisibleToLaterItems) {
  EvalContext ctx;
  auto plan = MakeProject(
      MakeDualScan(),
      {MakeLiteral(Value(5.0)),
       MakeBinary(BinaryOp::kAdd, MakeAliasRef(0, "a"),
                  MakeLiteral(Value(1.0)))},
      {"a", "b"});
  auto result = ExecuteToTable(*plan, ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result.value().row(0)[1].AsDouble(), 6.0);
}

Table MakeEmpTable() {
  Schema schema(std::vector<Column>{{"name", ValueType::kString},
                                    {"dept_id", ValueType::kInt}});
  Table t(schema);
  MustAddRow(t, {Value(std::string("ada")), Value(std::int64_t{0})});
  MustAddRow(t, {Value(std::string("bob")), Value(std::int64_t{1})});
  MustAddRow(t, {Value(std::string("cyd")), Value(std::int64_t{0})});
  MustAddRow(t,
             {Value(std::string("dee")), Value(std::int64_t{9})});  // dangling
  return t;
}

TEST(OperatorTest, HashAggregateGroupsAndFolds) {
  const Table emp = MakeEmpTable();
  EvalContext ctx;
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "n"});
  auto plan = MakeHashAggregate(MakeTableScan(&emp),
                                {MakeColumnRef(1, "dept_id")}, {"dept_id"},
                                std::move(aggs));
  auto result = ExecuteToTable(*plan, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 3u);  // depts 0,1,9
  std::int64_t total = 0;
  for (const auto& r : result.value().rows()) total += r[1].AsInt();
  EXPECT_EQ(total, 4);
}

TEST(OperatorTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  Table empty(Schema(std::vector<Column>{{"x", ValueType::kDouble}}));
  EvalContext ctx;
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, MakeColumnRef(0, "x"), "s"});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "n"});
  auto plan = MakeHashAggregate(MakeTableScan(&empty), {}, {}, std::move(aggs));
  auto result = ExecuteToTable(*plan, ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result.value().row(0)[0].AsDouble(), 0.0);
  EXPECT_EQ(result.value().row(0)[1].AsInt(), 0);
}

TEST(OperatorTest, AggregateKinds) {
  const Table t = MakeToyTable();  // scores 0, 1.5, 3, 4.5, 6
  EvalContext ctx;
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, MakeColumnRef(1, "score"), "sum"});
  aggs.push_back(AggSpec{AggKind::kAvg, MakeColumnRef(1, "score"), "avg"});
  aggs.push_back(AggSpec{AggKind::kMin, MakeColumnRef(1, "score"), "min"});
  aggs.push_back(AggSpec{AggKind::kMax, MakeColumnRef(1, "score"), "max"});
  auto plan = MakeHashAggregate(MakeTableScan(&t), {}, {}, std::move(aggs));
  auto result = ExecuteToTable(*plan, ctx);
  ASSERT_TRUE(result.ok());
  const Row& r = result.value().row(0);
  EXPECT_DOUBLE_EQ(r[0].AsDouble(), 15.0);
  EXPECT_DOUBLE_EQ(r[1].AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(r[2].AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(r[3].AsDouble(), 6.0);
}

// ---------------------------------------------------------------------------
// VG tables & world cache
// ---------------------------------------------------------------------------

TEST(VGTableTest, GenerateIsDeterministicPerWorld) {
  auto users = MakeUsersVGTable(100, 0.05, 0.05, 0.3);
  SeedVector seeds(77, 10);
  auto w0a = users->Generate(0, seeds);
  auto w0b = users->Generate(0, seeds);
  auto w1 = users->Generate(1, seeds);
  ASSERT_TRUE(w0a.ok());
  ASSERT_TRUE(w0b.ok());
  ASSERT_TRUE(w1.ok());
  ASSERT_EQ(w0a.value().num_rows(), 100u);
  // Same world identical; different world differs in requirements but not
  // in population data.
  bool requirement_differs = false;
  for (std::size_t r = 0; r < 100; ++r) {
    EXPECT_TRUE(w0a.value().row(r)[2] == w0b.value().row(r)[2]);
    EXPECT_TRUE(w0a.value().row(r)[1] == w1.value().row(r)[1]);  // signup
    if (!(w0a.value().row(r)[2] == w1.value().row(r)[2])) {
      requirement_differs = true;
    }
  }
  EXPECT_TRUE(requirement_differs);
}

TEST(WorldCacheTest, GeneratesOncePerWorld) {
  auto users = MakeUsersVGTable(50, 0.05, 0.05, 0.3);
  SeedVector seeds(78, 10);
  WorldCache cache;
  auto a = cache.GetOrGenerateColumnar(*users, 3, seeds);
  auto b = cache.GetOrGenerateColumnar(*users, 3, seeds);
  auto c = cache.GetOrGenerateColumnar(*users, 4, seeds);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a.value(), b.value());  // same pointer: cached
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(cache.generation_count(), 2u);
}

// ---------------------------------------------------------------------------
// Monte Carlo over per-world plans (FoldWorlds)
// ---------------------------------------------------------------------------

using PlanFactory = std::function<Result<PlanNodePtr>()>;

/// Executes a fresh plan from `make_plan` in world `world`.
Result<Table> RunPlanInWorld(const PlanFactory& make_plan,
                             std::span<const double> params,
                             const SeedVector& seeds, std::size_t world) {
  JIGSAW_ASSIGN_OR_RETURN(PlanNodePtr plan, make_plan());
  EvalContext ctx;
  ctx.params = params;
  ctx.sample_id = world;
  ctx.seeds = &seeds;
  return ExecuteToTable(*plan, ctx);
}

/// Runs `make_plan` once per world under `params` and folds the worlds
/// through FoldWorlds, with the seed vector and (num_threads > 1) the
/// private pool a direct statement builds from `cfg`.
Result<std::map<std::string, OutputMetrics>> RunPlanWorlds(
    const RunConfig& cfg, const PlanFactory& make_plan,
    std::span<const double> params) {
  const SeedVector seeds(cfg.master_seed, cfg.num_samples);
  std::unique_ptr<ThreadPool> pool;
  if (cfg.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(cfg.num_threads);
  }
  return FoldWorlds(cfg.num_samples, cfg, pool.get(), [&](std::size_t world) {
    return RunPlanInWorld(make_plan, params, seeds, world);
  });
}

TEST(MonteCarloTest, EstimatesStochasticScalarQuery) {
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  RunConfig cfg;
  cfg.num_samples = 2000;

  auto factory = [&]() -> Result<PlanNodePtr> {
    return MakeProject(
        MakeDualScan(),
        {MakeModelCall(model,
                       {MakeParamRef(0, "week"), MakeLiteral(Value(52.0))},
                       1)},
        {"demand"});
  };
  const std::vector<double> params = {25.0};
  auto result = RunPlanWorlds(cfg, factory, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& demand = result.value().at("demand");
  EXPECT_EQ(demand.count, 2000);
  EXPECT_NEAR(demand.mean, 25.0, 0.3);
  EXPECT_NEAR(demand.stddev, std::sqrt(0.1 * 25.0), 0.2);
}

TEST(MonteCarloTest, MultiRowResultIsError) {
  const Table t = MakeToyTable();
  RunConfig cfg;
  cfg.num_samples = 2;
  auto factory = [&]() -> Result<PlanNodePtr> { return MakeTableScan(&t); };
  EXPECT_EQ(RunPlanWorlds(cfg, factory, {}).status().code(),
            StatusCode::kExecutionError);
}

// ---------------------------------------------------------------------------
// Parallel Monte Carlo (possible-worlds fan-out)
// ---------------------------------------------------------------------------

void ExpectMetricsBitIdentical(const OutputMetrics& a,
                               const OutputMetrics& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  ASSERT_EQ(a.histogram.has_value(), b.histogram.has_value());
  if (a.histogram) {
    EXPECT_TRUE(*a.histogram == *b.histogram);
  }
  EXPECT_EQ(a.samples, b.samples);
}

void ExpectResultsBitIdentical(const std::map<std::string, OutputMetrics>& a,
                               const std::map<std::string, OutputMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, metrics] : a) {
    ASSERT_TRUE(b.count(name)) << name;
    ExpectMetricsBitIdentical(metrics, b.at(name));
  }
}

PlanFactory TwoColumnFactory(const BlackBoxPtr& demand,
                             const BlackBoxPtr& capacity) {
  return [=]() -> Result<PlanNodePtr> {
    return MakeProject(
        MakeDualScan(),
        {MakeModelCall(demand,
                       {MakeParamRef(0, "week"), MakeLiteral(Value(52.0))},
                       1),
         MakeModelCall(capacity,
                       {MakeParamRef(0, "week"), MakeLiteral(Value(12.0)),
                        MakeLiteral(Value(30.0))},
                       2)},
        {"demand", "capacity"});
  };
}

TEST(MonteCarloParallelTest, BitIdenticalAcrossThreadsAndBatches) {
  CloudModelConfig mcfg;
  auto demand = MakeDemandModel(mcfg);
  auto capacity = MakeCapacityModel(mcfg);
  const std::vector<double> params = {25.0};
  const PlanFactory factory = TwoColumnFactory(demand, capacity);

  // The oracle: the boxed serial fold, one plan per world.
  RunConfig base;
  base.num_samples = 200;
  base.keep_samples = true;
  const SeedVector seeds(base.master_seed, base.num_samples);
  const PlanNodePtr probe = factory().value();
  const std::vector<std::string> names = {"demand", "capacity"};
  auto reference = test::BoxedFoldWorlds(
      probe->schema(), names, base.num_samples, seeds, base,
      [&](std::size_t world) {
        return RunPlanInWorld(factory, params, seeds, world);
      });
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    RunConfig cfg = base;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    auto result = RunPlanWorlds(cfg, factory, params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectResultsBitIdentical(reference.value(), result.value());
  });
}

TEST(MonteCarloParallelTest, SharedWorldCacheIsDeterministic) {
  auto users = MakeUsersVGTable(80, 0.05, 0.05, 0.3);
  const std::vector<double> params = {15.0};

  auto run = [&](std::size_t threads, std::size_t batch) {
    RunConfig cfg;
    cfg.num_samples = 60;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    // Every world's task hits the shared cache concurrently; the cache
    // must hand back identical realizations and count one generation per
    // world regardless of schedule.
    auto cache = std::make_shared<WorldCache>();
    auto factory = [users, cache]() -> Result<PlanNodePtr> {
      std::vector<AggSpec> aggs;
      aggs.push_back(
          AggSpec{AggKind::kSum, MakeColumnRef(2, "requirement"), "total"});
      return MakeHashAggregate(
          MakeFilter(MakeCachedVGScan(users, cache.get()),
                     MakeBinary(BinaryOp::kLe,
                                MakeColumnRef(1, "signup_week"),
                                MakeParamRef(0, "week"))),
          {}, {}, std::move(aggs));
    };
    auto result = RunPlanWorlds(cfg, factory, params);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(cache->generation_count(), 60u);
    return std::move(result).value();
  };

  const auto reference = run(1, 64);
  test::ForEachParallelGridPoint([&](std::size_t threads,
                                     std::size_t batch) {
    ExpectResultsBitIdentical(reference, run(threads, batch));
  });
}

/// Emits one row whose single column's value (and type) is produced from
/// the world id — the knob the type-locking regression tests need.
class WorldValueNode final : public PlanNode {
 public:
  explicit WorldValueNode(std::function<Value(std::size_t)> fn)
      : fn_(std::move(fn)),
        schema_(std::vector<Column>{{"x", ValueType::kDouble}}) {}

  const Schema& schema() const override { return schema_; }

  Status Open(EvalContext& ctx) override {
    world_ = ctx.sample_id;
    done_ = false;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (done_) return false;
    done_ = true;
    *out = Row{fn_(world_)};
    return true;
  }

  void Close() override {}

 private:
  std::function<Value(std::size_t)> fn_;
  Schema schema_;
  std::size_t world_ = 0;
  bool done_ = true;
};

TEST(MonteCarloParallelTest, ColumnTypeFlipIsErrorNotSilentSkew) {
  // Numeric in world 0, string from world 5 on: before the locking fix
  // the later worlds were silently dropped from the column's statistics.
  auto factory = []() -> Result<PlanNodePtr> {
    return PlanNodePtr(std::make_unique<WorldValueNode>(
        [](std::size_t world) {
          return world < 5 ? Value(1.0 + static_cast<double>(world))
                           : Value(std::string("oops"));
        }));
  };
  for (std::size_t threads : {1u, 4u}) {
    RunConfig cfg;
    cfg.num_samples = 40;
    cfg.num_threads = threads;
    cfg.batch_size = 7;
    auto result = RunPlanWorlds(cfg, factory, {});
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
    // The reported world is the serial run's: the first flipped one.
    EXPECT_NE(result.status().message().find("world 5"), std::string::npos)
        << result.status().message();
  }
}

TEST(MonteCarloParallelTest, NonNumericColumnIsExcludedNotEmpty) {
  // A column that is non-numeric in every world has no distribution;
  // before the fix it produced a zero-sample Finalize() summary.
  CloudModelConfig mcfg;
  auto demand = MakeDemandModel(mcfg);
  auto factory = [&]() -> Result<PlanNodePtr> {
    return MakeProject(
        MakeDualScan(),
        {MakeLiteral(Value(std::string("label"))),
         MakeModelCall(demand,
                       {MakeParamRef(0, "week"), MakeLiteral(Value(52.0))},
                       1)},
        {"tag", "demand"});
  };
  RunConfig cfg;
  cfg.num_samples = 20;
  const std::vector<double> params = {10.0};
  auto result = RunPlanWorlds(cfg, factory, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().count("tag"), 0u);
  ASSERT_EQ(result.value().count("demand"), 1u);
  EXPECT_EQ(result.value().at("demand").count, 20);
}

TEST(MonteCarloParallelTest, NaNSamplesAreCountedNotUndefinedBehavior) {
  // NaN in odd worlds: the histogram must drop (and count) them instead
  // of feeding floor(NaN) to an integer cast. Runs under ASan/UBSan in
  // CI, which is what catches the pre-fix cast.
  auto factory = []() -> Result<PlanNodePtr> {
    return PlanNodePtr(std::make_unique<WorldValueNode>(
        [](std::size_t world) {
          return world % 2 == 1
                     ? Value(std::numeric_limits<double>::quiet_NaN())
                     : Value(1.0);
        }));
  };
  RunConfig cfg;
  cfg.num_samples = 40;
  cfg.num_threads = 2;
  cfg.batch_size = 7;
  auto result = RunPlanWorlds(cfg, factory, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& x = result.value().at("x");
  EXPECT_EQ(x.count, 40);
  EXPECT_DOUBLE_EQ(x.p50, 1.0);  // quantiles are over the finite mass
  ASSERT_TRUE(x.histogram.has_value());
  EXPECT_EQ(x.histogram->total_count(), 20);
  EXPECT_EQ(x.histogram->dropped_count(), 20);
}

// ---------------------------------------------------------------------------
// Two-axis sweeps (MONTECARLO OVER): FoldPointWorldSpans must reproduce
// N one-point folds bit-for-bit at every points x batch x threads grid
// cell, and name both coordinates on error.
// ---------------------------------------------------------------------------

TEST(MonteCarloSweepTest, SpanSweepBitIdenticalToPerPointFolds) {
  const std::vector<std::string> names = {"a", "b"};
  // Deterministic point- and world-dependent cell values.
  auto cell_value = [](std::size_t point, std::size_t world,
                       std::size_t slot) {
    return static_cast<double>(point * 1000 + world * 2 + slot) * 1.25;
  };
  auto run_span = [&](std::size_t point, std::size_t begin,
                      std::size_t count, std::span<double* const> columns) {
    for (std::size_t slot = 0; slot < columns.size(); ++slot) {
      for (std::size_t i = 0; i < count; ++i) {
        columns[slot][i] = cell_value(point, begin + i, slot);
      }
    }
    return Status::OK();
  };

  const std::size_t kWorlds = 83;  // not a multiple of any grid batch
  for (std::size_t npoints : {1u, 3u, 9u}) {
    // Reference: one serial one-point fold per point.
    RunConfig ref_cfg;
    ref_cfg.batch_size = 64;
    ref_cfg.keep_samples = true;
    std::vector<std::map<std::string, OutputMetrics>> expected;
    for (std::size_t point = 0; point < npoints; ++point) {
      auto standalone = FoldPointWorldSpans(
          names, 1, kWorlds, ref_cfg, nullptr,
          [&](std::size_t, std::size_t begin, std::size_t count,
              std::span<double* const> columns) {
            return run_span(point, begin, count, columns);
          });
      ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
      expected.push_back(std::move(standalone).value()[0]);
    }

    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      SCOPED_TRACE(testing::Message() << "points=" << npoints);
      RunConfig cfg;
      cfg.batch_size = batch;
      cfg.keep_samples = true;
      ThreadPool pool(threads);
      auto sweep =
          FoldPointWorldSpans(names, npoints, kWorlds, cfg,
                              threads > 1 ? &pool : nullptr, run_span);
      ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
      ASSERT_EQ(sweep.value().size(), npoints);
      for (std::size_t point = 0; point < npoints; ++point) {
        SCOPED_TRACE(testing::Message() << "point " << point);
        ASSERT_EQ(sweep.value()[point].size(), names.size());
        for (const auto& [name, metrics] : expected[point]) {
          ExpectMetricsBitIdentical(metrics,
                                    sweep.value()[point].at(name));
        }
      }
    });
  }
}

TEST(MonteCarloSweepTest, WindowedStagingIsBitIdenticalAndOrdersErrors) {
  // Shrink the staging budget until every window holds exactly one
  // point: the streamed fold must reproduce the whole-grid results and
  // still surface the serial loop's error, including across windows.
  internal::g_fold_staged_budget_override = 1;  // floor: 1 point/window

  const std::vector<std::string> names = {"x"};
  auto run_span = [](std::size_t point, std::size_t begin,
                     std::size_t count, std::span<double* const> columns) {
    for (std::size_t i = 0; i < count; ++i) {
      columns[0][i] = static_cast<double>(point * 100 + begin + i);
    }
    return Status::OK();
  };
  RunConfig cfg;
  cfg.batch_size = 7;
  ThreadPool pool(2);
  auto windowed = FoldPointWorldSpans(names, 5, 20, cfg, &pool, run_span);
  internal::g_fold_staged_budget_override = 0;
  auto whole = FoldPointWorldSpans(names, 5, 20, cfg, &pool, run_span);
  ASSERT_TRUE(windowed.ok()) << windowed.status().ToString();
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(windowed.value().size(), 5u);
  for (std::size_t point = 0; point < 5; ++point) {
    SCOPED_TRACE(testing::Message() << "point " << point);
    ExpectMetricsBitIdentical(whole.value()[point].at("x"),
                              windowed.value()[point].at("x"));
  }

  // An error in a late window (point 3, world 12) is surfaced with the
  // same coordinates as the unwindowed run, serial and parallel.
  auto failing = [](std::size_t point, std::size_t begin, std::size_t count,
                    std::span<double* const> columns) {
    for (std::size_t i = 0; i < count; ++i) {
      if (point == 3 && begin + i >= 12) {
        return Status::ExecutionError("world 12 exploded");
      }
      columns[0][i] = 1.0;
    }
    return Status::OK();
  };
  internal::g_fold_staged_budget_override = 1;
  auto serial = FoldPointWorldSpans(names, 5, 20, cfg, nullptr, failing);
  auto parallel = FoldPointWorldSpans(names, 5, 20, cfg, &pool, failing);
  internal::g_fold_staged_budget_override = 0;
  auto reference = FoldPointWorldSpans(names, 5, 20, cfg, nullptr, failing);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status(), parallel.status());
  EXPECT_EQ(serial.status(), reference.status());
  EXPECT_NE(serial.status().message().find("sweep point 3"),
            std::string::npos);
}

TEST(MonteCarloSweepTest, EmptySweepAxes) {
  RunConfig cfg;
  cfg.batch_size = 7;
  ThreadPool pool(2);
  const std::vector<std::string> names = {"x"};
  auto no_cell = [](std::size_t, std::size_t, std::size_t,
                    std::span<double* const>) {
    return Status::Internal("no cell may run");
  };
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto no_worlds = FoldPointWorldSpans(names, 3, 0, cfg, p, no_cell);
    ASSERT_TRUE(no_worlds.ok()) << no_worlds.status().ToString();
    ASSERT_EQ(no_worlds.value().size(), 3u);
    for (const auto& point : no_worlds.value()) {
      EXPECT_TRUE(point.empty());
    }

    auto no_points = FoldPointWorldSpans(names, 0, 40, cfg, p, no_cell);
    ASSERT_TRUE(no_points.ok()) << no_points.status().ToString();
    EXPECT_TRUE(no_points.value().empty());

    // The plan fold runs no world at all, not even the layout lock.
    auto plan_fold =
        FoldWorlds(0, cfg, p, [](std::size_t) -> Result<Table> {
          return Status::Internal("no world may run");
        });
    ASSERT_TRUE(plan_fold.ok()) << plan_fold.status().ToString();
    EXPECT_TRUE(plan_fold.value().empty());
  }
}

TEST(MonteCarloSweepTest, TypeFlipErrorNamesPointAndWorld) {
  // Point 1's column is not numeric in its very first world, the error
  // a row program reports for a type flip, while every other cell
  // succeeds. The failing point is named, and the surfaced error is
  // identical at every grid cell: the serial run's.
  auto flip0 = [](std::size_t point, std::size_t begin, std::size_t count,
                  std::span<double* const> columns) {
    for (std::size_t i = 0; i < count; ++i) {
      if (point == 1 && begin + i == 0) {
        return Status::ExecutionError("column 'x' is not numeric");
      }
      columns[0][i] = static_cast<double>(point * 100 + begin + i);
    }
    return Status::OK();
  };
  const std::vector<std::string> names = {"x"};
  Status serial;
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    RunConfig cfg;
    cfg.batch_size = batch;
    ThreadPool pool(threads);
    auto result = FoldPointWorldSpans(names, 3, 20, cfg,
                                      threads > 1 ? &pool : nullptr, flip0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
    EXPECT_NE(result.status().message().find("sweep point 1"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("'x' is not numeric"),
              std::string::npos)
        << result.status().ToString();
    if (serial.ok()) serial = result.status();  // first grid cell is serial
    EXPECT_EQ(serial, result.status());
  });
}

TEST(LayeredEngineTest, AgreesWithDirectPlanFold) {
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  RunConfig cfg;
  cfg.num_samples = 500;
  LayeredEngine layered(cfg);

  auto factory = [&]() -> Result<PlanNodePtr> {
    return MakeProject(
        MakeDualScan(),
        {MakeModelCall(model,
                       {MakeParamRef(0, "week"), MakeLiteral(Value(52.0))},
                       1)},
        {"demand"});
  };
  const std::vector<double> params = {16.0};
  auto a = layered.RunPoint(factory, params);
  auto b = RunPlanWorlds(cfg, factory, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical seeds and plans: close up to CSV text round-trip precision.
  EXPECT_NEAR(a.value().columns.at("demand").mean,
              b.value().at("demand").mean, 1e-9);
  EXPECT_EQ(layered.stats().plans_built, 500u);
  EXPECT_EQ(layered.stats().rows_serialized, 500u);
}

TEST(LayeredEngineTest, WorldCacheAmortizesAcrossPoints) {
  auto users = MakeUsersVGTable(200, 0.05, 0.05, 0.3);
  RunConfig cfg;
  cfg.num_samples = 20;
  LayeredEngine layered(cfg);

  auto factory = [&]() -> Result<PlanNodePtr> {
    std::vector<AggSpec> aggs;
    aggs.push_back(
        AggSpec{AggKind::kSum, MakeColumnRef(2, "requirement"), "total"});
    return MakeHashAggregate(
        MakeFilter(MakeCachedVGScan(users, &layered.world_cache()),
                   MakeBinary(BinaryOp::kLe, MakeColumnRef(1, "signup_week"),
                              MakeParamRef(0, "week"))),
        {}, {}, std::move(aggs));
  };

  std::vector<std::vector<double>> weeks;
  for (double week = 10; week <= 19; ++week) weeks.push_back({week});
  auto results = layered.RunSweep(factory, weeks);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), 10u);
  // 10 points x 20 worlds = 200 queries, but only 20 world generations.
  EXPECT_EQ(layered.world_cache().generation_count(), 20u);
  // Totals grow with the active population.
  EXPECT_GT(results.value().back().columns.at("total").mean,
            results.value().front().columns.at("total").mean);
}

}  // namespace
}  // namespace jigsaw::pdb
