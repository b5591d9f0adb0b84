// Tests for the columnar possible-worlds storage: ColumnChunk /
// ColumnarTable primitives, VG generation straight into column spans,
// the dual-representation WorldCache, the tuple-level FoldVGColumns
// fold, and the end-to-end columnar_storage gate — every surface
// bit-identical to its boxed twin over the shared acceptance grid,
// under both seed schemas.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "grid_test_util.h"
#include "keyed_vg_table.h"
#include "models/cloud_models.h"
#include "pdb/columnar.h"
#include "pdb/layered_engine.h"
#include "pdb/monte_carlo.h"
#include "pdb/table.h"
#include "pdb/vg_table.h"
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
  // boxed Generate — same draws, bit-identical values — under both seed
  // schemas.
  for (SeedSchema schema : {SeedSchema::kV1, SeedSchema::kV2}) {
    SCOPED_TRACE(static_cast<int>(schema));
    SeedVector seeds(0x5EED0001ULL, 16, schema);
    auto users = MakeUsersVGTable(40, 3.0, 25.0, 0.4, 4);
    ExpectColumnarMatchesBoxed(*users, seeds, 6);
    auto items = MakeScalingItemsVGTable(100);
    ExpectColumnarMatchesBoxed(*items, seeds, 6);
  }
}

TEST(VGColumnarTest, WorldExtentShardsWorldsContiguously) {
  SeedVector seeds(0x5EED0002ULL, 8);
  auto items = MakeScalingItemsVGTable(10);
  WorldExtent extent;
  extent.world_begin = 2;
  ASSERT_TRUE(extent.AppendWorld(*items, 2, seeds).ok());
  ASSERT_TRUE(extent.AppendWorld(*items, 3, seeds).ok());
  EXPECT_EQ(extent.data.num_rows(), 20u);
  EXPECT_EQ(extent.world_ids.size(), 20u);
  EXPECT_EQ(extent.world_ids.Ints()[0], 2);
  EXPECT_EQ(extent.world_ids.Ints()[19], 3);
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
// Dual-representation WorldCache
// ---------------------------------------------------------------------------

TEST(WorldCacheDualTest, ConversionsNeverCountAsGenerations) {
  WorldCache cache;
  SeedVector seeds(0x5EED0003ULL, 4);
  auto users = MakeUsersVGTable(20, 3.0, 25.0, 0.4, 4);

  auto boxed = cache.GetOrGenerate(*users, 0, seeds);
  ASSERT_TRUE(boxed.ok());
  EXPECT_EQ(cache.generation_count(), 1u);

  // The columnar view of the same world converts the cached boxed
  // realization — no second generation, identical content.
  auto columnar = cache.GetOrGenerateColumnar(*users, 0, seeds);
  ASSERT_TRUE(columnar.ok());
  EXPECT_EQ(cache.generation_count(), 1u);
  auto reference = ColumnarTable::FromTable(*boxed.value());
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(columnar.value()->SameContent(reference.value()));

  // And the reverse order on a fresh world: columnar first, boxed view
  // second, still one generation for the world.
  auto columnar1 = cache.GetOrGenerateColumnar(*users, 1, seeds);
  ASSERT_TRUE(columnar1.ok());
  EXPECT_EQ(cache.generation_count(), 2u);
  auto boxed1 = cache.GetOrGenerate(*users, 1, seeds);
  ASSERT_TRUE(boxed1.ok());
  EXPECT_EQ(cache.generation_count(), 2u);
  auto round = columnar1.value()->ToTable();
  ASSERT_TRUE(round.ok());
  for (std::size_t r = 0; r < round.value().num_rows(); ++r) {
    EXPECT_EQ(round.value().row(r), boxed1.value()->row(r));
  }
  EXPECT_EQ(cache.size(), 2u);
}

TEST(WorldCacheDualTest, ParallelMixedConsumersGenerateEachWorldOnce) {
  WorldCache cache;
  SeedVector seeds(0x5EED0004ULL, 30);
  auto users = MakeUsersVGTable(10, 3.0, 25.0, 0.4, 2);
  ThreadPool pool(8);
  // 30 worlds x {columnar, boxed} consumers racing: every world realizes
  // exactly once no matter which representation wins the race.
  pool.ParallelFor(60, [&](std::size_t i) {
    const std::size_t world = i % 30;
    if (i < 30) {
      auto r = cache.GetOrGenerateColumnar(*users, world, seeds);
      ASSERT_TRUE(r.ok());
    } else {
      auto r = cache.GetOrGenerate(*users, world, seeds);
      ASSERT_TRUE(r.ok());
    }
  });
  EXPECT_EQ(cache.size(), 30u);
  EXPECT_EQ(cache.generation_count(), 30u);
}

// ---------------------------------------------------------------------------
// FoldVGColumns: columnar vs boxed bit-identity over the acceptance grid
// ---------------------------------------------------------------------------

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

TEST(FoldVGColumnsTest, ColumnarBitIdenticalToBoxedAcrossGrid) {
  const std::vector<std::string> names = {"demand", "cost", "in_stock"};
  auto items = MakeScalingItemsVGTable(37);  // odd size straddles chunks
  constexpr std::size_t kWorlds = 20;
  for (SeedSchema schema : {SeedSchema::kV1, SeedSchema::kV2}) {
    SCOPED_TRACE(static_cast<int>(schema));
    SeedVector seeds(0x5EED0005ULL, kWorlds, schema);

    // Serial boxed run = the reference twin.
    RunConfig ref_cfg;
    ref_cfg.columnar_storage = false;
    ref_cfg.batch_size = 64;
    auto reference = FoldVGColumns(*items, names, kWorlds, seeds, ref_cfg,
                                   nullptr);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(reference.value().at("demand").count,
              static_cast<std::int64_t>(37 * kWorlds));

    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      for (bool columnar : {true, false}) {
        SCOPED_TRACE(columnar ? "columnar" : "boxed");
        RunConfig cfg;
        cfg.columnar_storage = columnar;
        cfg.batch_size = batch;
        ThreadPool pool(threads);
        auto got = FoldVGColumns(*items, names, kWorlds, seeds, cfg,
                                 threads > 1 ? &pool : nullptr);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectMetricsBitIdentical(got.value(), reference.value());
      }
    });
  }
}

TEST(FoldVGColumnsTest, CachedFoldMatchesUncachedAndCountsGenerations) {
  const std::vector<std::string> names = {"requirement"};
  auto users = MakeUsersVGTable(25, 3.0, 25.0, 0.4, 4);
  constexpr std::size_t kWorlds = 12;
  SeedVector seeds(0x5EED0006ULL, kWorlds);
  RunConfig cfg;
  auto uncached = FoldVGColumns(*users, names, kWorlds, seeds, cfg, nullptr);
  ASSERT_TRUE(uncached.ok());
  for (bool columnar : {true, false}) {
    SCOPED_TRACE(columnar ? "columnar" : "boxed");
    cfg.columnar_storage = columnar;
    WorldCache cache;
    ThreadPool pool(4);
    auto cached = FoldVGColumns(*users, names, kWorlds, seeds, cfg, &pool,
                                &cache);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ExpectMetricsBitIdentical(cached.value(), uncached.value());
    EXPECT_EQ(cache.generation_count(), kWorlds);
    // A second fold over the same cache re-reads every world.
    auto again = FoldVGColumns(*users, names, kWorlds, seeds, cfg, &pool,
                               &cache);
    ASSERT_TRUE(again.ok());
    ExpectMetricsBitIdentical(again.value(), uncached.value());
    EXPECT_EQ(cache.generation_count(), kWorlds);
  }
}

TEST(FoldVGColumnsTest, ErrorsIdenticalOnBothStoragePaths) {
  auto items = MakeScalingItemsVGTable(5);
  SeedVector seeds(0x5EED0007ULL, 4);
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    RunConfig cfg;
    cfg.batch_size = batch;
    ThreadPool pool(threads);
    ThreadPool* p = threads > 1 ? &pool : nullptr;
    for (const char* name : {"region", "ghost"}) {
      const std::vector<std::string> names = {name};
      cfg.columnar_storage = true;
      auto columnar = FoldVGColumns(*items, names, 4, seeds, cfg, p);
      cfg.columnar_storage = false;
      auto boxed = FoldVGColumns(*items, names, 4, seeds, cfg, p);
      ASSERT_FALSE(columnar.ok());
      ASSERT_FALSE(boxed.ok());
      // Identical error text AND code, at every grid point.
      EXPECT_EQ(columnar.status(), boxed.status()) << name;
    }
  });
}

TEST(FoldVGColumnsTest, NullInFoldedColumnSurfacesInWorldOrder) {
  // Columns fold as separate tasks, but the error is the world-major
  // serial loop's: the lowest failing world, then the lower requested
  // column. In (9, 4), `b` fails at world 4 before `a` at world 9, both
  // in one chunk at batch 64; in (6, 6) they fail in the same world.
  constexpr std::size_t kWorlds = 12;
  SeedVector seeds(0x5EED0008ULL, kWorlds);
  const std::vector<std::string> names = {"a", "b"};
  for (auto [a_from, b_from, expected] :
       {std::tuple{9u, 4u, "column 'b' is not numeric"},
        std::tuple{6u, 6u, "column 'a' is not numeric"}}) {
    auto table = test::MakeNullingTable(a_from, b_from);
    RunConfig ref_cfg;
    ref_cfg.columnar_storage = false;
    ref_cfg.batch_size = 1;
    auto reference =
        FoldVGColumns(*table, names, kWorlds, seeds, ref_cfg, nullptr);
    ASSERT_FALSE(reference.ok());
    EXPECT_EQ(reference.status().message(), expected);
    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      for (bool columnar : {true, false}) {
        for (bool cached : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << (columnar ? "columnar" : "boxed")
                       << (cached ? " cached" : ""));
          RunConfig cfg;
          cfg.columnar_storage = columnar;
          cfg.batch_size = batch;
          ThreadPool pool(threads);
          WorldCache cache;
          auto got = FoldVGColumns(*table, names, kWorlds, seeds, cfg,
                                   threads > 1 ? &pool : nullptr,
                                   cached ? &cache : nullptr);
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status(), reference.status());
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// End-to-end gate: SQL scripts byte-identical with the gate on and off
// ---------------------------------------------------------------------------

class ColumnarSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterCloudModels(&registry_).ok());
  }
  ModelRegistry registry_;
};

TEST_F(ColumnarSqlTest, ScriptsByteIdenticalAcrossGateAndGrid) {
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
  for (SeedSchema schema : {SeedSchema::kV1, SeedSchema::kV2}) {
    for (const auto& statement : statements) {
      SCOPED_TRACE(statement + " schema=" +
                   std::to_string(static_cast<int>(schema)));
      const std::string script = scenario + statement;
      // At every grid point the gate-off run is the reference twin: the
      // gate-on report must match it byte for byte. (The report embeds
      // the thread count, so cross-thread bit-identity is asserted on the
      // boxed reports — which existing suites already pin to serial.)
      std::string serial_boxed;
      test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
        auto run = [&](bool columnar) {
          RunConfig cfg;
          cfg.num_samples = 60;
          cfg.seed_schema = schema;
          cfg.columnar_storage = columnar;
          cfg.num_threads = threads;
          cfg.batch_size = batch;
          sql::ScriptRunner runner(&registry_, cfg);
          auto outcome = runner.Run(script);
          EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
          return outcome.ok() ? outcome.value().Report() : std::string();
        };
        const std::string boxed = run(false);
        EXPECT_EQ(run(true), boxed);
        // The metric lines (everything but the engine banner) also match
        // the serial boxed run across the whole grid.
        const std::string tail = boxed.substr(boxed.find("\n  "));
        if (serial_boxed.empty()) serial_boxed = tail;
        EXPECT_EQ(tail, serial_boxed);
      });
    }
  }
}

TEST_F(ColumnarSqlTest, ErrorTextIdenticalAcrossGate) {
  // An error-shaped script must surface the same message (and the same
  // failing coordinate) regardless of the storage gate.
  const std::string script =
      "DECLARE PARAMETER @p AS RANGE 0 TO 1 STEP BY 1;"
      "SELECT 1 / CoinFlip(0.0) AS q INTO r;"
      "MONTECARLO OVER @p IN (0, 1);";
  std::vector<std::string> messages;
  for (bool columnar : {true, false}) {
    RunConfig cfg;
    cfg.num_samples = 8;
    cfg.columnar_storage = columnar;
    sql::ScriptRunner runner(&registry_, cfg);
    auto outcome = runner.Run(script);
    ASSERT_FALSE(outcome.ok());
    messages.push_back(outcome.status().ToString());
  }
  EXPECT_EQ(messages[0], messages[1]);
}

// ---------------------------------------------------------------------------
// LayeredEngine under the gate
// ---------------------------------------------------------------------------

TEST(ColumnarLayeredTest, CachedVGScanBitIdenticalAcrossGate) {
  auto users = MakeUsersVGTable(60, 0.05, 0.05, 0.3);
  auto run = [&](bool columnar, std::size_t threads, std::size_t batch) {
    RunConfig cfg;
    cfg.num_samples = 24;
    cfg.columnar_storage = columnar;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    LayeredEngine engine(cfg);
    auto result = engine.RunPoint(
        [&]() -> Result<PlanNodePtr> {
          std::vector<AggSpec> aggs;
          aggs.push_back(AggSpec{AggKind::kSum,
                                 MakeColumnRef(2, "requirement"), "total"});
          return MakeHashAggregate(
              MakeCachedVGScan(users, &engine.world_cache()), {}, {},
              std::move(aggs));
        },
        std::vector<double>{});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  const auto reference = run(false, 1, 64);
  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    for (bool columnar : {true, false}) {
      SCOPED_TRACE(columnar ? "columnar" : "boxed");
      const auto got = run(columnar, threads, batch);
      ASSERT_EQ(got.columns.size(), reference.columns.size());
      for (const auto& [name, metrics] : reference.columns) {
        ASSERT_TRUE(got.columns.count(name));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.columns.at(name).mean),
                  std::bit_cast<std::uint64_t>(metrics.mean))
            << name;
      }
    }
  });
}

}  // namespace
}  // namespace jigsaw::pdb
