// Tests for the columnar possible-worlds storage: ColumnChunk /
// ColumnarTable primitives, VG generation straight into column spans,
// the WorldCache, the layered engine's cached VG scan and SQL scripts
// end to end — every surface bit-identical to its boxed or interpreted
// reference (boxed_reference.h, UseInterpretedExpressions) over the
// shared acceptance grid. The tuple-level folds are pinned by join_test
// (FoldJoinedVGColumns) and pdb_test (the row-program folds).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "boxed_reference.h"
#include "grid_test_util.h"
#include "models/black_box.h"
#include "models/cloud_models.h"
#include "pdb/columnar.h"
#include "pdb/layered_engine.h"
#include "pdb/monte_carlo.h"
#include "pdb/table.h"
#include "pdb/vg_table.h"
#include "random/random_stream.h"
#include "sql/binder.h"
#include "sql/script_runner.h"
#include "util/thread_pool.h"

namespace jigsaw::pdb {
namespace {

// ---------------------------------------------------------------------------
// ColumnChunk / ColumnarTable primitives
// ---------------------------------------------------------------------------

Schema MakeMixedSchema() {
  return Schema(std::vector<Column>{{"id", ValueType::kInt},
                                    {"score", ValueType::kDouble},
                                    {"ok", ValueType::kBool},
                                    {"tag", ValueType::kString}});
}

TEST(ColumnChunkTest, TypedAppendsAndBoxing) {
  ColumnChunk c(ValueType::kDouble);
  c.AppendDouble(1.5);
  c.AppendNull();
  c.AppendDouble(-2.0);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.BoxValue(0), Value(1.5));
  EXPECT_TRUE(c.BoxValue(1).is_null());
  EXPECT_EQ(c.BoxValue(2), Value(-2.0));
  // Null slots still occupy a dense lane so spans stay addressable.
  EXPECT_EQ(c.Doubles().size(), 3u);
}

TEST(ColumnChunkTest, DictionaryCodesStrings) {
  ColumnChunk c(ValueType::kString);
  c.AppendString("north");
  c.AppendString("south");
  c.AppendString("north");
  c.AppendString("north");
  ASSERT_EQ(c.size(), 4u);
  // Codes are insertion-ordered and repeated values share one entry.
  ASSERT_EQ(c.Dictionary().size(), 2u);
  EXPECT_EQ(c.Dictionary()[0], "north");
  EXPECT_EQ(c.Dictionary()[1], "south");
  const auto codes = c.StringCodes();
  EXPECT_EQ(codes[0], 0u);
  EXPECT_EQ(codes[1], 1u);
  EXPECT_EQ(codes[2], 0u);
  EXPECT_EQ(codes[3], 0u);
  EXPECT_EQ(c.BoxValue(2), Value(std::string("north")));
}

TEST(ColumnChunkTest, AppendValueIsStrictlyTyped) {
  ColumnChunk c(ValueType::kInt);
  EXPECT_TRUE(c.AppendValue(Value(std::int64_t{7})).ok());
  EXPECT_TRUE(c.AppendValue(Value::Null()).ok());
  // The columnar store never coerces: a double into an int column would
  // silently truncate and break the boxed round trip.
  EXPECT_FALSE(c.AppendValue(Value(1.5)).ok());
  EXPECT_FALSE(c.AppendValue(Value(std::string("x"))).ok());
  EXPECT_EQ(c.size(), 2u);
}

TEST(ColumnChunkTest, BulkSpansFeedTheChunk) {
  ColumnChunk c(ValueType::kDouble);
  auto span = c.AppendDoubleSpan(4);
  for (std::size_t i = 0; i < span.size(); ++i) {
    span[i] = static_cast<double>(i) * 0.5;
  }
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.Doubles()[3], 1.5);
}

TEST(ColumnChunkTest, BoolAndCodeSpansMatchPerRowAppends) {
  // The bulk-filled chunks must be indistinguishable from per-row
  // appends: same bytes, same dictionary, same boxed views.
  ColumnChunk bulk_bools(ValueType::kBool);
  ColumnChunk slow_bools(ValueType::kBool);
  auto bools = bulk_bools.AppendBoolSpan(8);
  for (std::size_t i = 0; i < 8; ++i) {
    bools[i] = i % 3 == 0 ? 1 : 0;
    slow_bools.AppendBool(i % 3 == 0);
  }
  EXPECT_TRUE(bulk_bools.SameContent(slow_bools));

  ColumnChunk bulk_strs(ValueType::kString);
  ColumnChunk slow_strs(ValueType::kString);
  const std::string names[3] = {"red", "green", "blue"};
  // Interning in first-appearance order keeps code assignment identical
  // to the per-row path.
  std::uint32_t codes[3];
  for (std::size_t c = 0; c < 3; ++c) codes[c] = bulk_strs.InternString(names[c]);
  EXPECT_EQ(bulk_strs.InternString("red"), codes[0]);  // idempotent
  auto strs = bulk_strs.AppendCodeSpan(9);
  for (std::size_t i = 0; i < 9; ++i) {
    strs[i] = codes[i % 3];
    slow_strs.AppendString(names[i % 3]);
  }
  ASSERT_EQ(bulk_strs.size(), 9u);
  EXPECT_EQ(bulk_strs.Dictionary(), slow_strs.Dictionary());
  EXPECT_TRUE(bulk_strs.SameContent(slow_strs));
  EXPECT_EQ(bulk_strs.BoxValue(4), Value(std::string("green")));
}

TEST(ColumnChunkTest, RowsPastTheLastNullAreNotNull) {
  // The null bitmap ends at the word of the last NULL; the rows appended
  // after it, by value or by span, read as present.
  ColumnChunk col(ValueType::kDouble);
  col.AppendNull();
  for (int i = 0; i < 130; ++i) col.AppendDouble(i);
  auto span = col.AppendDoubleSpan(70);
  for (std::size_t i = 0; i < span.size(); ++i) span[i] = -1.0;
  ASSERT_EQ(col.size(), 201u);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_TRUE(col.IsNull(0));
  for (std::size_t i = 1; i < col.size(); ++i) {
    ASSERT_FALSE(col.IsNull(i)) << "row " << i;
  }
  EXPECT_TRUE(col.BoxValue(200) == Value(-1.0));
}

TEST(ColumnarTableTest, RowRoundTripIsExact) {
  Table boxed(MakeMixedSchema());
  ASSERT_TRUE(boxed
                  .AddRow({Value(std::int64_t{1}), Value(0.25), Value(true),
                           Value(std::string("a"))})
                  .ok());
  ASSERT_TRUE(boxed
                  .AddRow({Value(std::int64_t{2}), Value::Null(),
                           Value(false), Value(std::string("b"))})
                  .ok());

  auto columnar = ColumnarTable::FromTable(boxed);
  ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
  EXPECT_EQ(columnar.value().num_rows(), 2u);

  auto back = columnar.value().ToTable();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().num_rows(), boxed.num_rows());
  for (std::size_t r = 0; r < boxed.num_rows(); ++r) {
    EXPECT_EQ(back.value().row(r), boxed.row(r)) << "row " << r;
  }
}

TEST(ColumnarTableTest, FromTableRejectsMistypedValues) {
  // AppendRowUnchecked lets a dynamically-typed plan result hold a string
  // in a double-declared column; the strict columnar boundary rejects it.
  Table boxed(Schema({{"x", ValueType::kDouble}}));
  boxed.AppendRowUnchecked({Value(std::string("oops"))});
  auto columnar = ColumnarTable::FromTable(boxed);
  ASSERT_FALSE(columnar.ok());
  EXPECT_NE(columnar.status().message().find("x"), std::string::npos);
}

TEST(ColumnarTableTest, NumericSpanAndColumnMatchBoxedErrors) {
  Table boxed(MakeMixedSchema());
  ASSERT_TRUE(boxed
                  .AddRow({Value(std::int64_t{1}), Value(2.0), Value(true),
                           Value(std::string("a"))})
                  .ok());
  auto columnar = ColumnarTable::FromTable(boxed);
  ASSERT_TRUE(columnar.ok());
  const ColumnarTable& ct = columnar.value();

  // Zero-copy span on a clean double column.
  auto span = ct.NumericSpan("score");
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span.value().size(), 1u);
  EXPECT_EQ(span.value()[0], 2.0);

  // The copying fallback widens ints and bools like Value::AsDouble.
  auto ints = ct.NumericColumn("id");
  ASSERT_TRUE(ints.ok());
  EXPECT_EQ(ints.value()[0], 1.0);
  auto bools = ct.NumericColumn("ok");
  ASSERT_TRUE(bools.ok());
  EXPECT_EQ(bools.value()[0], 1.0);

  // Errors are byte-identical to the boxed Table::NumericColumn.
  auto bad_columnar = ct.NumericColumn("tag");
  auto bad_boxed = boxed.NumericColumn("tag");
  ASSERT_FALSE(bad_columnar.ok());
  ASSERT_FALSE(bad_boxed.ok());
  EXPECT_EQ(bad_columnar.status(), bad_boxed.status());
  auto ghost_columnar = ct.NumericColumn("ghost");
  auto ghost_boxed = boxed.NumericColumn("ghost");
  ASSERT_FALSE(ghost_columnar.ok());
  EXPECT_EQ(ghost_columnar.status(), ghost_boxed.status());
}

TEST(ColumnarTableTest, CommitDetectsRaggedBulkFill) {
  ColumnarTable t(Schema({{"a", ValueType::kDouble},
                          {"b", ValueType::kDouble}}));
  t.column(0).AppendDoubleSpan(3);
  t.column(1).AppendDoubleSpan(2);  // generator bug: one column short
  EXPECT_FALSE(t.CommitAppendedRows().ok());
}

// ---------------------------------------------------------------------------
// VG generation into columns
// ---------------------------------------------------------------------------

void ExpectColumnarMatchesBoxed(const VGTableFunction& fn,
                                const SeedVector& seeds,
                                std::size_t worlds) {
  for (std::size_t w = 0; w < worlds; ++w) {
    auto boxed = fn.Generate(w, seeds);
    auto columnar = fn.GenerateColumnar(w, seeds);
    ASSERT_TRUE(boxed.ok()) << boxed.status().ToString();
    ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
    auto reference = ColumnarTable::FromTable(boxed.value());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_TRUE(columnar.value().SameContent(reference.value()))
        << "world " << w;
  }
}

TEST(VGColumnarTest, GeneratorsRealizeBitIdenticalInBothRepresentations) {
  // Native columnar overrides must consume the stream exactly as the
  // boxed Generate — same draws, bit-identical values.
  SeedVector seeds(0x5EED0001ULL, 16);
  auto users = MakeUsersVGTable(40, 3.0, 25.0, 0.4, 4);
  ExpectColumnarMatchesBoxed(*users, seeds, 6);
  // The columnar users path runs the bounded max-of-LogNormals kernel:
  // depth 1 (its plain loop), a depth deeper than one block of
  // RandomStream::kMaxLogNormalBlock draws, and the default depth 16.
  constexpr int kBlock = static_cast<int>(RandomStream::kMaxLogNormalBlock);
  ExpectColumnarMatchesBoxed(*MakeUsersVGTable(40, 3.0, 25.0, 2.0, 1), seeds,
                             3);
  ExpectColumnarMatchesBoxed(*MakeUsersVGTable(3, 3.0, 25.0, 2.0, kBlock + 5),
                             seeds, 3);
  ExpectColumnarMatchesBoxed(
      *MakeUsersVGTable(kBlock / 16 + 44, 3.0, 25.0, 2.0, 16), seeds, 3);
  auto items = MakeScalingItemsVGTable(100);
  ExpectColumnarMatchesBoxed(*items, seeds, 6);
}

TEST(VGColumnarTest, WorldExtentShardsWorldsContiguously) {
  SeedVector seeds(0x5EED0002ULL, 8);
  auto items = MakeScalingItemsVGTable(10);
  WorldExtent extent;
  extent.world_begin = 2;
  ASSERT_TRUE(extent.AppendWorld(*items, 2, seeds).ok());
  ASSERT_TRUE(extent.AppendWorld(*items, 3, seeds).ok());
  EXPECT_EQ(extent.data.num_rows(), 20u);
  // Worlds 2 and 3 start at their row offsets; the last one ends at the
  // extent's row count.
  EXPECT_EQ(extent.row_offsets, (std::vector<std::size_t>{0, 10}));
  const auto [first0, last0] = extent.WorldRows(0);
  const auto [first1, last1] = extent.WorldRows(1);
  EXPECT_EQ(first0, 0u);
  EXPECT_EQ(last0, 10u);
  EXPECT_EQ(first1, 10u);
  EXPECT_EQ(last1, 20u);
  // Each world slice matches a standalone realization of that world.
  auto standalone = items->GenerateColumnar(3, seeds);
  ASSERT_TRUE(standalone.ok());
  const auto world3 = extent.data.column(1).Doubles().subspan(10, 10);
  const auto solo = standalone.value().column(1).Doubles();
  for (std::size_t r = 0; r < 10; ++r) EXPECT_EQ(world3[r], solo[r]);
}

// ---------------------------------------------------------------------------
// Certain columns: what users and items declare world-invariant must be,
// in both representations, or a fold that reads one world's copy for all
// of them would fold the wrong values.
// ---------------------------------------------------------------------------

std::uint64_t DoubleBits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Column `slot` of `got` holds exactly column `slot` of `want`: NULLs,
// value bits and decoded strings.
void ExpectSameColumnBits(const ColumnarTable& want, const ColumnarTable& got,
                          std::size_t slot) {
  ASSERT_EQ(want.num_rows(), got.num_rows());
  const ColumnChunk& a = want.column(slot);
  const ColumnChunk& b = got.column(slot);
  ASSERT_EQ(a.type(), b.type());
  for (std::size_t r = 0; r < want.num_rows(); ++r) {
    ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << "row " << r;
    if (a.IsNull(r)) continue;
    switch (a.type()) {
      case ValueType::kDouble:
        ASSERT_EQ(DoubleBits(a.Doubles()[r]), DoubleBits(b.Doubles()[r]))
            << "row " << r;
        break;
      case ValueType::kInt:
        ASSERT_EQ(a.Ints()[r], b.Ints()[r]) << "row " << r;
        break;
      case ValueType::kBool:
        ASSERT_EQ(a.Bools()[r], b.Bools()[r]) << "row " << r;
        break;
      case ValueType::kString:
        ASSERT_EQ(a.Dictionary()[a.StringCodes()[r]],
                  b.Dictionary()[b.StringCodes()[r]])
            << "row " << r;
        break;
      case ValueType::kNull:
        break;
    }
  }
}

TEST(VGCertainColumnsTest, DeclaredColumnsEqualWorldZeroInEveryWorld) {
  constexpr std::size_t kWorlds = 32;
  struct Case {
    VGTableFunctionPtr table;
    std::vector<std::size_t> declared;
    std::size_t uncertain;  ///< a DOUBLE column drawn per world
  };
  const std::vector<Case> cases = {
      {MakeUsersVGTable(300, 0.8, 5.0, 2.0), {0, 1}, 2},
      {MakeScalingItemsVGTable(300), {0, 3, 4}, 1}};
  for (std::uint64_t master : {0x5EED0005ULL, 7ULL}) {
    const SeedVector seeds(master, kWorlds);
    for (const auto& [table, declared, uncertain] : cases) {
      SCOPED_TRACE(::testing::Message()
                   << table->name() << " seed " << master);
      const auto certain = table->CertainColumns();
      ASSERT_EQ(std::vector<std::size_t>(certain.begin(), certain.end()),
                declared);
      auto columnar0 = table->GenerateColumnar(0, seeds);
      auto boxed0 = table->Generate(0, seeds);
      ASSERT_TRUE(columnar0.ok() && boxed0.ok());
      auto boxed0_columnar = ColumnarTable::FromTable(boxed0.value());
      ASSERT_TRUE(boxed0_columnar.ok());
      for (std::size_t w = 1; w < kWorlds; ++w) {
        SCOPED_TRACE(::testing::Message() << "world " << w);
        auto columnar = table->GenerateColumnar(w, seeds);
        auto boxed = table->Generate(w, seeds);
        ASSERT_TRUE(columnar.ok() && boxed.ok());
        auto boxed_columnar = ColumnarTable::FromTable(boxed.value());
        ASSERT_TRUE(boxed_columnar.ok());
        for (std::size_t slot : declared) {
          SCOPED_TRACE(table->schema().column(slot).name);
          ExpectSameColumnBits(columnar0.value(), columnar.value(), slot);
          ExpectSameColumnBits(boxed0_columnar.value(),
                               boxed_columnar.value(), slot);
        }
      }
      // The worlds differ where nothing is declared, so the comparison
      // above would see a moving column.
      auto columnar1 = table->GenerateColumnar(1, seeds);
      ASSERT_TRUE(columnar1.ok());
      EXPECT_NE(DoubleBits(columnar0.value().column(uncertain).Doubles()[0]),
                DoubleBits(columnar1.value().column(uncertain).Doubles()[0]));
    }
  }
}

// ---------------------------------------------------------------------------
// WorldCache: one columnar realization per (table, namespace, world)
// ---------------------------------------------------------------------------

TEST(WorldCacheColumnarTest, CachedRealizationMatchesBoxedGenerate) {
  WorldCache cache;
  SeedVector seeds(0x5EED0003ULL, 4);
  auto users = MakeUsersVGTable(20, 3.0, 25.0, 0.4, 4);
  for (std::size_t w = 0; w < 2; ++w) {
    SCOPED_TRACE(::testing::Message() << "world " << w);
    auto columnar = cache.GetOrGenerateColumnar(*users, w, seeds);
    ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
    EXPECT_EQ(cache.generation_count(), w + 1);
    // A repeat probe hits the entry: same pointer, no generation.
    auto again = cache.GetOrGenerateColumnar(*users, w, seeds);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), columnar.value());
    EXPECT_EQ(cache.generation_count(), w + 1);
    // Boxing the cached chunks reproduces the boxed generator row by row.
    auto boxed = users->Generate(w, seeds);
    ASSERT_TRUE(boxed.ok());
    auto round = columnar.value()->ToTable();
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(round.value().num_rows(), boxed.value().num_rows());
    for (std::size_t r = 0; r < round.value().num_rows(); ++r) {
      EXPECT_EQ(round.value().row(r), boxed.value().row(r)) << "row " << r;
    }
  }
  EXPECT_EQ(cache.size(), 2u);
}

TEST(WorldCacheColumnarTest, ParallelConsumersGenerateEachWorldOnce) {
  WorldCache cache;
  SeedVector seeds(0x5EED0004ULL, 30);
  auto users = MakeUsersVGTable(10, 3.0, 25.0, 0.4, 2);
  ThreadPool pool(8);
  // 30 worlds x 2 consumers racing: every world realizes exactly once,
  // and both consumers read the install that won.
  std::vector<const ColumnarTable*> seen(60, nullptr);
  pool.ParallelFor(60, [&](std::size_t i) {
    auto r = cache.GetOrGenerateColumnar(*users, i % 30, seeds);
    ASSERT_TRUE(r.ok());
    seen[i] = r.value();
  });
  EXPECT_EQ(cache.size(), 30u);
  EXPECT_EQ(cache.generation_count(), 30u);
  for (std::size_t w = 0; w < 30; ++w) EXPECT_EQ(seen[w], seen[w + 30]);
}

void ExpectMetricsBitIdentical(const std::map<std::string, OutputMetrics>& a,
                               const std::map<std::string, OutputMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.begin();
  for (auto ia = a.begin(); ia != a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.count, ib->second.count);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ia->second.mean),
              std::bit_cast<std::uint64_t>(ib->second.mean))
        << ia->first;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ia->second.stddev),
              std::bit_cast<std::uint64_t>(ib->second.stddev))
        << ia->first;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ia->second.min),
              std::bit_cast<std::uint64_t>(ib->second.min));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ia->second.max),
              std::bit_cast<std::uint64_t>(ib->second.max));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ia->second.p50),
              std::bit_cast<std::uint64_t>(ib->second.p50));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ia->second.p95),
              std::bit_cast<std::uint64_t>(ib->second.p95));
  }
}

// ---------------------------------------------------------------------------
// SQL scripts end to end against their interpreted twin
// ---------------------------------------------------------------------------

class ColumnarSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterCloudModels(&registry_).ok());
    // Bernoulli helper: 0/1 draws, so a division fails on some worlds.
    registry_.RegisterOrReplace(std::make_shared<CallableBlackBox>(
        "CoinFlip", std::vector<std::string>{"p"},
        [](std::span<const double> params, RandomStream& rng) {
          return rng.NextDouble() < params[0] ? 1.0 : 0.0;
        }));
  }

  /// The interpreted reference twin: the binder's plan with its compiled
  /// programs stripped, run on `cfg`.
  Result<sql::ScriptOutcome> RunInterpreted(const std::string& script,
                                            const RunConfig& cfg) {
    JIGSAW_ASSIGN_OR_RETURN(sql::BoundScript bound,
                            sql::ParseAndBind(script, registry_));
    sql::UseInterpretedExpressions(bound);
    return sql::ScriptRunner(&registry_, cfg).RunBound(std::move(bound), {});
  }

  /// The metric lines of a report: everything after the expression-path
  /// line and the engine banner, which name the path and thread count.
  static std::string MetricLines(const std::string& report) {
    return report.substr(report.find("\n  "));
  }

  ModelRegistry registry_;
};

TEST_F(ColumnarSqlTest, ScriptsMatchInterpretedTwinAcrossGrid) {
  const std::string scenario =
      "DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;"
      "SELECT DemandModel(@w, 52) AS demand,"
      "       2 * demand AS doubled INTO r;";
  const std::vector<std::string> statements = {
      "MONTECARLO;",
      "MONTECARLO USING LAYERED;",
      "MONTECARLO OVER @w IN (10, 25) USING DIRECT;",
      "MONTECARLO OVER @w IN (10, 25) USING LAYERED;",
  };
  for (const auto& statement : statements) {
    SCOPED_TRACE(statement);
    const std::string script = scenario + statement;
    RunConfig ref_cfg;
    ref_cfg.num_samples = 60;
    auto reference = RunInterpreted(script, ref_cfg);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string expected = MetricLines(reference.value().Report());
    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      RunConfig cfg = ref_cfg;
      cfg.num_threads = threads;
      cfg.batch_size = batch;
      auto outcome = sql::ScriptRunner(&registry_, cfg).Run(script);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_TRUE(outcome.value().bound.program->compiled());
      EXPECT_EQ(MetricLines(outcome.value().Report()), expected);
    });
  }
}

TEST_F(ColumnarSqlTest, ErrorTextMatchesInterpretedTwinAcrossGrid) {
  // Both sweep points fail at the same lowest world; the surfaced error
  // names point 0 and is the interpreter's text on every grid point.
  const std::string script =
      "DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;"
      "SELECT 1 / CoinFlip(0.97) AS q INTO r;"
      "MONTECARLO OVER @p IN (0, 1);";
  RunConfig ref_cfg;
  ref_cfg.num_samples = 400;
  auto reference = RunInterpreted(script, ref_cfg);
  ASSERT_FALSE(reference.ok());
  EXPECT_NE(reference.status().message().find("sweep point 0: "),
            std::string::npos)
      << reference.status().message();
  EXPECT_NE(reference.status().message().find("division by zero"),
            std::string::npos)
      << reference.status().message();
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    RunConfig cfg = ref_cfg;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    auto outcome = sql::ScriptRunner(&registry_, cfg).Run(script);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status(), reference.status());
  });
}

// ---------------------------------------------------------------------------
// LayeredEngine: the cached columnar VG scan against a boxed scan leaf
// ---------------------------------------------------------------------------

TEST(ColumnarLayeredTest, CachedVGScanBitIdenticalToBoxedScanAcrossGrid) {
  auto users = MakeUsersVGTable(60, 0.05, 0.05, 0.3);
  // SUM(requirement) per world, over the cached columnar scan or the
  // uncached boxed reference leaf.
  auto run = [&](bool cached, std::size_t threads, std::size_t batch) {
    RunConfig cfg;
    cfg.num_samples = 24;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    LayeredEngine engine(cfg);
    auto result = engine.RunPoint(
        [&]() -> Result<PlanNodePtr> {
          std::vector<AggSpec> aggs;
          aggs.push_back(AggSpec{AggKind::kSum,
                                 MakeColumnRef(2, "requirement"), "total"});
          PlanNodePtr scan =
              cached ? MakeCachedVGScan(users, &engine.world_cache())
                     : test::MakeBoxedVGScan(users);
          return MakeHashAggregate(std::move(scan), {}, {}, std::move(aggs));
        },
        std::vector<double>{});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  const auto reference = run(/*cached=*/false, 1, 64);
  ASSERT_EQ(reference.columns.size(), 1u);
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    ExpectMetricsBitIdentical(run(/*cached=*/true, threads, batch).columns,
                              reference.columns);
  });
}

}  // namespace
}  // namespace jigsaw::pdb
