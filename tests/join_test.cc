// Differential and property tests for the world-partitioned columnar
// equi-join (pdb/join.h). The contract under test: the sort-merge
// kernel, cached or not, at any thread count and any batch size, is
// bit-identical to the serial boxed nested-loop oracle
// (boxed_reference.h) — values, output row order, metrics, error text
// AND error ordering.

#include "pdb/join.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/run_config.h"
#include "pdb/table.h"
#include "pdb/vg_table.h"
#include "random/seed_vector.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

#include "boxed_reference.h"
#include "grid_test_util.h"
#include "keyed_vg_table.h"

namespace jigsaw::pdb {
namespace {

Value I(std::int64_t v) { return Value(v); }
Value D(double v) { return Value(v); }
Value B(bool v) { return Value(v); }
Value S(std::string v) { return Value(std::move(v)); }

// ---------------------------------------------------------------------------
// Deterministic keyed VG tables (keyed_vg_table.h). The join consumes no
// randomness, so the differential tables derive rows arithmetically from
// the world id.
// ---------------------------------------------------------------------------

using test::KeyedVGTable;
using test::NestedLoopJoinOracle;

// Left side: 6..8 rows per world, int keys in [0, 5) with duplicates,
// every fourth key NULL.
VGTableFunctionPtr MakeIntLeft() {
  Schema schema({{"k", ValueType::kInt}, {"lval", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      "int_left", schema, [](std::size_t w, Table* out) -> Status {
        const std::size_t rows = 6 + w % 3;
        for (std::size_t i = 0; i < rows; ++i) {
          Value key = i % 4 == 3
                          ? Value::Null()
                          : I(static_cast<std::int64_t>((2 * i + w) % 5));
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {std::move(key), D(100.0 * static_cast<double>(w) +
                                 static_cast<double>(i))}));
        }
        return Status::OK();
      });
}

// Right side: 7..8 rows per world, overlapping key range, every fifth
// key NULL.
VGTableFunctionPtr MakeIntRight() {
  Schema schema({{"k2", ValueType::kInt}, {"rval", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      "int_right", schema, [](std::size_t w, Table* out) -> Status {
        const std::size_t rows = 8 - w % 2;
        for (std::size_t i = 0; i < rows; ++i) {
          Value key = i % 5 == 4
                          ? Value::Null()
                          : I(static_cast<std::int64_t>((i + w) % 5));
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {std::move(key), D(1000.0 * static_cast<double>(w) +
                                 static_cast<double>(i))}));
        }
        return Status::OK();
      });
}

// Double keys exercising the IEEE edge cases: -0.0 / +0.0 (one equality
// class, two bit patterns) and NaN (matches nothing).
Value DoubleKey(std::size_t w, std::size_t i) {
  if (i % 7 == 6) return D(std::numeric_limits<double>::quiet_NaN());
  if (i % 3 == 0) return D((w + i) % 2 == 0 ? 0.0 : -0.0);
  return D(0.5 * static_cast<double>((i + w) % 4));
}

VGTableFunctionPtr MakeDoubleLeft() {
  Schema schema({{"dk", ValueType::kDouble}, {"lval", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      "double_left", schema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 8 + w % 2; ++i) {
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {DoubleKey(w, i), D(10.0 * static_cast<double>(i) +
                                  static_cast<double>(w))}));
        }
        return Status::OK();
      });
}

VGTableFunctionPtr MakeDoubleRight() {
  Schema schema({{"dk2", ValueType::kDouble}, {"rval", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      "double_right", schema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 9; ++i) {
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {DoubleKey(w + 1, i), D(-3.0 * static_cast<double>(i) -
                                      static_cast<double>(w))}));
        }
        return Status::OK();
      });
}

VGTableFunctionPtr MakeStringLeft() {
  Schema schema({{"s", ValueType::kString}, {"lval", ValueType::kDouble}});
  static const char* kNames[] = {"red", "green", "blue"};
  return std::make_shared<KeyedVGTable>(
      "string_left", schema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 7; ++i) {
          Value key = i % 6 == 5 ? Value::Null() : S(kNames[(i + w) % 3]);
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {std::move(key), D(static_cast<double>(i * 10 + w))}));
        }
        return Status::OK();
      });
}

VGTableFunctionPtr MakeStringRight() {
  Schema schema({{"s2", ValueType::kString}, {"rval", ValueType::kDouble}});
  static const char* kNames[] = {"blue", "red", "yellow", "green"};
  return std::make_shared<KeyedVGTable>(
      "string_right", schema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 6 + w % 2; ++i) {
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {S(kNames[(2 * i + w) % 4]), D(static_cast<double>(i) - 5.0)}));
        }
        return Status::OK();
      });
}

// A generator that realizes normally below `fail_from` and errors at
// every world at or past it — for proving error text and ordering match
// the serial boxed loop on every path.
VGTableFunctionPtr MakeFailingTable(std::string name,
                                    std::size_t fail_from) {
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      name, schema,
      [name, fail_from](std::size_t w, Table* out) -> Status {
        if (w >= fail_from) {
          return Status::ExecutionError(
              StrFormat("VG generator '%s' failed in world %zu",
                        name.c_str(), w));
        }
        for (std::size_t i = 0; i < 4; ++i) {
          JIGSAW_RETURN_IF_ERROR(
              out->AddRow({I(static_cast<std::int64_t>(i % 3)),
                           D(static_cast<double>(w * 10 + i))}));
        }
        return Status::OK();
      });
}

// Right twin of the failing table with matching key space and no NULLs.
VGTableFunctionPtr MakePlainRight(std::string name) {
  Schema schema({{"k2", ValueType::kInt}, {"v2", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      name, schema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 5; ++i) {
          JIGSAW_RETURN_IF_ERROR(
              out->AddRow({I(static_cast<std::int64_t>((i + w) % 3)),
                           D(static_cast<double>(i))}));
        }
        return Status::OK();
      });
}

std::uint64_t Bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Bit for bit: every statistic, the histogram and the kept samples.
void ExpectSameMetrics(const std::map<std::string, OutputMetrics>& expected,
                       const std::map<std::string, OutputMetrics>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [name, m] : expected) {
    ASSERT_TRUE(actual.count(name)) << name;
    const auto& a = actual.at(name);
    EXPECT_EQ(m.count, a.count) << name;
    EXPECT_EQ(Bits(m.mean), Bits(a.mean)) << name;
    EXPECT_EQ(Bits(m.stddev), Bits(a.stddev)) << name;
    EXPECT_EQ(Bits(m.std_error), Bits(a.std_error)) << name;
    EXPECT_EQ(Bits(m.p50), Bits(a.p50)) << name;
    EXPECT_EQ(Bits(m.p95), Bits(a.p95)) << name;
    EXPECT_EQ(Bits(m.min), Bits(a.min)) << name;
    EXPECT_EQ(Bits(m.max), Bits(a.max)) << name;
    ASSERT_EQ(m.histogram.has_value(), a.histogram.has_value()) << name;
    if (m.histogram) {
      EXPECT_TRUE(*m.histogram == *a.histogram) << name;
      EXPECT_EQ(Bits(m.histogram->lo()), Bits(a.histogram->lo())) << name;
      EXPECT_EQ(Bits(m.histogram->hi()), Bits(a.histogram->hi())) << name;
    }
    ASSERT_EQ(m.samples.size(), a.samples.size()) << name;
    for (std::size_t k = 0; k < m.samples.size(); ++k) {
      ASSERT_EQ(Bits(m.samples[k]), Bits(a.samples[k]))
          << name << " sample " << k;
    }
  }
}

// Tables that declare certain columns (VGTableFunction::CertainColumns).
// Left: a certain INT key `k` (duplicates, one NULL), certain DOUBLE
// columns `c` (duplicates, NaN, +inf, and a NULL only on the NULL-key
// row, which never matches), `z` (zeros of both signs) and `nz` (-0.0
// only), a certain BOOL `flag`, and an uncertain DOUBLE `u`.
VGTableFunctionPtr MakeCertainLeft() {
  Schema schema({{"k", ValueType::kInt},
                 {"c", ValueType::kDouble},
                 {"z", ValueType::kDouble},
                 {"nz", ValueType::kDouble},
                 {"flag", ValueType::kBool},
                 {"u", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      "certain_left", schema,
      [](std::size_t w, Table* out) -> Status {
        const double inf = std::numeric_limits<double>::infinity();
        const double nan = std::numeric_limits<double>::quiet_NaN();
        for (std::size_t i = 0; i < 9; ++i) {
          const bool null_key = i == 4;
          Value c = null_key ? Value::Null()
                    : i == 2 ? D(nan)
                    : i == 6 ? D(inf)
                             : D(0.5 * static_cast<double>(i % 3));
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {null_key ? Value::Null() : I(static_cast<std::int64_t>(i % 4)),
               std::move(c), D(i % 2 == 0 ? 0.0 : -0.0),
               D(i % 3 == 0 ? -0.0 : static_cast<double>(i)), B(i % 3 == 1),
               D(static_cast<double>(w) * 1.5 - static_cast<double>(i))}));
        }
        return Status::OK();
      },
      std::vector<std::size_t>{0, 1, 2, 3, 4});
}

// Right: a certain INT key `k2` with duplicates, a certain INT `rc` and an
// uncertain DOUBLE `rv`; the generator fails in every world from
// `fails_from` on.
VGTableFunctionPtr MakeCertainRight(std::size_t fails_from = 1000) {
  Schema schema({{"k2", ValueType::kInt},
                 {"rc", ValueType::kInt},
                 {"rv", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      "certain_right", schema,
      [fails_from](std::size_t w, Table* out) -> Status {
        if (w >= fails_from) {
          return Status::ExecutionError(StrFormat(
              "VG generator 'certain_right' failed in world %zu", w));
        }
        for (std::size_t i = 0; i < 7; ++i) {
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {I(static_cast<std::int64_t>(i % 3)),
               I(static_cast<std::int64_t>(10 * i)),
               D(static_cast<double>(w * w) - 0.25 * static_cast<double>(i))}));
        }
        return Status::OK();
      },
      std::vector<std::size_t>{0, 1});
}

// The certain-NULL table of the error tests: certain key `k` and
// certain `c`, whose row 1 is NULL in every world; uncertain `u`, whose
// row 2 is NULL from world `u_null_from` on. Every row matches the
// certain right side.
VGTableFunctionPtr MakeCertainNullLeft(std::size_t u_null_from) {
  Schema schema({{"k", ValueType::kInt},
                 {"c", ValueType::kDouble},
                 {"u", ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      "certain_null_left", schema,
      [u_null_from](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 4; ++i) {
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {I(static_cast<std::int64_t>(i % 3)),
               i == 1 ? Value::Null() : D(static_cast<double>(i)),
               i == 2 && w >= u_null_from
                   ? Value::Null()
                   : D(static_cast<double>(10 * w + i))}));
        }
        return Status::OK();
      },
      std::vector<std::size_t>{0, 1});
}

// ---------------------------------------------------------------------------
// ResolveJoin: every bind-time error shape, in resolution order.
// ---------------------------------------------------------------------------

Schema IntKeyed(const std::string& key, const std::string& val) {
  return Schema({{key, ValueType::kInt}, {val, ValueType::kDouble}});
}

TEST(JoinResolveTest, UnknownLeftKeyFailsFirst) {
  auto r = ResolveJoin(IntKeyed("a", "x"), IntKeyed("b", "y"),
                       {"nope", "also_nope"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "no column named 'nope'");
}

TEST(JoinResolveTest, UnknownRightKey) {
  auto r = ResolveJoin(IntKeyed("a", "x"), IntKeyed("b", "y"), {"a", "nope"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "no column named 'nope'");
}

TEST(JoinResolveTest, MismatchedKeyTypes) {
  Schema right({{"b", ValueType::kString}, {"y", ValueType::kDouble}});
  auto r = ResolveJoin(IntKeyed("a", "x"), right, {"a", "b"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "join keys 'a' (INT) and 'b' (STRING) have mismatched types");
}

TEST(JoinResolveTest, NullTypedKeysRejected) {
  Schema left({{"a", ValueType::kNull}});
  Schema right({{"b", ValueType::kNull}});
  auto r = ResolveJoin(left, right, {"a", "b"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("mismatched types"), std::string::npos);
}

TEST(JoinResolveTest, DuplicateOutputColumnCaseInsensitive) {
  auto r = ResolveJoin(IntKeyed("k", "shared"), IntKeyed("k2", "SHARED"),
                       {"k", "k2"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "duplicate column 'SHARED' in join output");
}

TEST(JoinResolveTest, ResolvesCaseInsensitivelyAndConcatenatesSchema) {
  auto r = ResolveJoin(IntKeyed("Key", "x"), IntKeyed("KEY2", "y"),
                       {"kEy", "key2"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().left_slot, 0u);
  EXPECT_EQ(r.value().right_slot, 0u);
  EXPECT_EQ(r.value().key_type, ValueType::kInt);
  ASSERT_EQ(r.value().output.num_columns(), 4u);
  EXPECT_EQ(r.value().output.column(0).name, "Key");
  EXPECT_EQ(r.value().output.column(2).name, "KEY2");
}

// ---------------------------------------------------------------------------
// The oracle itself: canonical order and NULL semantics on hand-built
// tables small enough to enumerate by hand.
// ---------------------------------------------------------------------------

TEST(JoinOracleTest, CanonicalNestedLoopOrder) {
  Table left(IntKeyed("k", "lv"));
  ASSERT_TRUE(left.AddRow({I(1), D(10.0)}).ok());
  ASSERT_TRUE(left.AddRow({I(2), D(20.0)}).ok());
  ASSERT_TRUE(left.AddRow({I(1), D(30.0)}).ok());
  Table right(IntKeyed("k2", "rv"));
  ASSERT_TRUE(right.AddRow({I(2), D(1.0)}).ok());
  ASSERT_TRUE(right.AddRow({I(1), D(2.0)}).ok());
  ASSERT_TRUE(right.AddRow({I(1), D(3.0)}).ok());

  auto join = ResolveJoin(left.schema(), right.schema(), {"k", "k2"});
  ASSERT_TRUE(join.ok());
  auto out = NestedLoopJoinOracle(left, right, join.value());
  ASSERT_TRUE(out.ok());
  // Left rows in order; for each, right matches in order.
  const std::vector<std::pair<double, double>> expected = {
      {10.0, 2.0}, {10.0, 3.0}, {20.0, 1.0}, {30.0, 2.0}, {30.0, 3.0}};
  ASSERT_EQ(out.value().num_rows(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out.value().row(i)[1].AsDouble(), expected[i].first) << i;
    EXPECT_EQ(out.value().row(i)[3].AsDouble(), expected[i].second) << i;
  }
}

TEST(JoinOracleTest, NullKeysNeverMatchNotEvenEachOther) {
  Table left(IntKeyed("k", "lv"));
  ASSERT_TRUE(left.AddRow({Value::Null(), D(1.0)}).ok());
  ASSERT_TRUE(left.AddRow({I(7), D(2.0)}).ok());
  Table right(IntKeyed("k2", "rv"));
  ASSERT_TRUE(right.AddRow({Value::Null(), D(3.0)}).ok());
  ASSERT_TRUE(right.AddRow({I(7), D(4.0)}).ok());

  auto join = ResolveJoin(left.schema(), right.schema(), {"k", "k2"});
  ASSERT_TRUE(join.ok());
  auto out = NestedLoopJoinOracle(left, right, join.value());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().num_rows(), 1u);
  EXPECT_EQ(out.value().row(0)[1].AsDouble(), 2.0);
  EXPECT_EQ(out.value().row(0)[3].AsDouble(), 4.0);
}

// ---------------------------------------------------------------------------
// JoinPartition: all four key types, bit-identical to the oracle
// (SameContent compares bit patterns, so even a -0.0 gathered where a
// +0.0 belongs would fail).
// ---------------------------------------------------------------------------

// Every join.output slot in order: the projection of the whole join.
std::vector<std::size_t> EveryColumn(const ResolvedJoin& join) {
  std::vector<std::size_t> slots(join.output.num_columns());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  return slots;
}

void ExpectPartitionMatchesOracle(const Table& left, const Table& right,
                                  const std::string& lkey,
                                  const std::string& rkey) {
  auto join = ResolveJoin(left.schema(), right.schema(), {lkey, rkey});
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  auto oracle = NestedLoopJoinOracle(left, right, join.value());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  auto oracle_columnar = ColumnarTable::FromTable(oracle.value());
  ASSERT_TRUE(oracle_columnar.ok()) << oracle_columnar.status().ToString();

  auto lcol = ColumnarTable::FromTable(left);
  auto rcol = ColumnarTable::FromTable(right);
  ASSERT_TRUE(lcol.ok());
  ASSERT_TRUE(rcol.ok());
  ColumnarTable out(join.value().output);
  ASSERT_TRUE(JoinPartition(lcol.value(), 0, lcol.value().num_rows(),
                            rcol.value(), 0, rcol.value().num_rows(),
                            join.value(), EveryColumn(join.value()), &out)
                  .ok());
  EXPECT_TRUE(out.SameContent(oracle_columnar.value()));
}

TEST(JoinPartitionTest, IntKeysWithDuplicatesAndNulls) {
  Table left(IntKeyed("k", "lv"));
  Table right(IntKeyed("k2", "rv"));
  for (std::size_t i = 0; i < 12; ++i) {
    Value key = i % 4 == 3 ? Value::Null()
                           : I(static_cast<std::int64_t>((i * 3) % 5));
    ASSERT_TRUE(
        left.AddRow({std::move(key), D(static_cast<double>(i))}).ok());
  }
  for (std::size_t j = 0; j < 10; ++j) {
    Value key = j % 5 == 4 ? Value::Null()
                           : I(static_cast<std::int64_t>(j % 6));
    ASSERT_TRUE(
        right.AddRow({std::move(key), D(100.0 + static_cast<double>(j))})
            .ok());
  }
  ExpectPartitionMatchesOracle(left, right, "k", "k2");
}

TEST(JoinPartitionTest, DoubleKeysSignedZeroAndNaN) {
  Schema ls({{"dk", ValueType::kDouble}, {"lv", ValueType::kDouble}});
  Schema rs({{"dk2", ValueType::kDouble}, {"rv", ValueType::kDouble}});
  Table left(ls);
  Table right(rs);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> lkeys = {0.0, -0.0, 1.5, nan, 2.5, 1.5, -0.0};
  const std::vector<double> rkeys = {-0.0, 1.5, nan, 0.0, 3.5, 1.5};
  for (std::size_t i = 0; i < lkeys.size(); ++i) {
    ASSERT_TRUE(
        left.AddRow({D(lkeys[i]), D(static_cast<double>(i))}).ok());
  }
  for (std::size_t j = 0; j < rkeys.size(); ++j) {
    ASSERT_TRUE(
        right.AddRow({D(rkeys[j]), D(50.0 + static_cast<double>(j))}).ok());
  }
  ExpectPartitionMatchesOracle(left, right, "dk", "dk2");
}

TEST(JoinPartitionTest, BoolKeys) {
  Schema ls({{"bk", ValueType::kBool}, {"lv", ValueType::kDouble}});
  Schema rs({{"bk2", ValueType::kBool}, {"rv", ValueType::kDouble}});
  Table left(ls);
  Table right(rs);
  for (std::size_t i = 0; i < 6; ++i) {
    Value key = i == 4 ? Value::Null() : B(i % 2 == 0);
    ASSERT_TRUE(
        left.AddRow({std::move(key), D(static_cast<double>(i))}).ok());
  }
  for (std::size_t j = 0; j < 5; ++j) {
    ASSERT_TRUE(
        right.AddRow({B(j % 3 == 0), D(10.0 * static_cast<double>(j))})
            .ok());
  }
  ExpectPartitionMatchesOracle(left, right, "bk", "bk2");
}

TEST(JoinPartitionTest, StringKeys) {
  Schema ls({{"s", ValueType::kString}, {"lv", ValueType::kDouble}});
  Schema rs({{"s2", ValueType::kString}, {"rv", ValueType::kDouble}});
  Table left(ls);
  Table right(rs);
  const std::vector<std::string> lkeys = {"red",  "blue", "red",
                                          "green", "blue", "red"};
  const std::vector<std::string> rkeys = {"blue", "red", "yellow", "red"};
  for (std::size_t i = 0; i < lkeys.size(); ++i) {
    ASSERT_TRUE(
        left.AddRow({S(lkeys[i]), D(static_cast<double>(i))}).ok());
  }
  for (std::size_t j = 0; j < rkeys.size(); ++j) {
    ASSERT_TRUE(
        right.AddRow({S(rkeys[j]), D(-static_cast<double>(j))}).ok());
  }
  ExpectPartitionMatchesOracle(left, right, "s", "s2");
}

TEST(JoinPartitionTest, EmptySidesYieldEmptyOutput) {
  Table left(IntKeyed("k", "lv"));
  Table right(IntKeyed("k2", "rv"));
  ASSERT_TRUE(right.AddRow({I(1), D(1.0)}).ok());
  ExpectPartitionMatchesOracle(left, right, "k", "k2");   // empty left
  ExpectPartitionMatchesOracle(right, left, "k2", "k");   // empty right
}

// SortMergePairs skips each sort whose input is already in order; these
// pin the oracle's order whether a side arrives ascending (sort skipped),
// descending, or with duplicate keys interleaved (sort needed), and
// whether the merged pairs need the final (left, right) sort.
Table IntKeyedRows(const std::string& key, const std::string& val,
                   const std::vector<std::int64_t>& keys, double base) {
  Table t(IntKeyed(key, val));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(
        t.AddRow({I(keys[i]), D(base + static_cast<double>(i))}).ok());
  }
  return t;
}

TEST(JoinPartitionTest, AscendingKeysOnBothSides) {
  // 1:1 on shared ids with gaps, then ascending runs of duplicates: both
  // sides and the merged pairs are already in order.
  ExpectPartitionMatchesOracle(
      IntKeyedRows("k", "lv", {0, 1, 2, 4, 5, 7, 9}, 0.0),
      IntKeyedRows("k2", "rv", {0, 2, 3, 4, 7, 8, 9, 11}, 100.0), "k", "k2");
  ExpectPartitionMatchesOracle(
      IntKeyedRows("k", "lv", {1, 1, 2, 2, 2, 5}, 0.0),
      IntKeyedRows("k2", "rv", {0, 1, 2, 2, 5, 5}, 100.0), "k", "k2");
}

TEST(JoinPartitionTest, DescendingKeysOnBothSides) {
  ExpectPartitionMatchesOracle(
      IntKeyedRows("k", "lv", {9, 7, 5, 4, 2, 1, 0}, 0.0),
      IntKeyedRows("k2", "rv", {11, 9, 8, 7, 4, 3, 2, 0}, 100.0), "k", "k2");
  ExpectPartitionMatchesOracle(
      IntKeyedRows("k", "lv", {5, 2, 2, 2, 1, 1}, 0.0),
      IntKeyedRows("k2", "rv", {5, 5, 2, 2, 1, 0}, 100.0), "k", "k2");
}

TEST(JoinPartitionTest, InterleavedDuplicateKeys) {
  // Both sides out of order, then one side in order and the other not
  // (either way round), so every combination of skipped and run sorts
  // meets the oracle.
  const std::vector<std::int64_t> interleaved = {2, 1, 2, 1, 3, 1, 2};
  const std::vector<std::int64_t> ascending = {1, 1, 2, 3, 3};
  ExpectPartitionMatchesOracle(
      IntKeyedRows("k", "lv", interleaved, 0.0),
      IntKeyedRows("k2", "rv", {1, 2, 1, 2, 2, 3}, 100.0), "k", "k2");
  ExpectPartitionMatchesOracle(IntKeyedRows("k", "lv", ascending, 0.0),
                               IntKeyedRows("k2", "rv", interleaved, 100.0),
                               "k", "k2");
  ExpectPartitionMatchesOracle(IntKeyedRows("k", "lv", interleaved, 0.0),
                               IntKeyedRows("k2", "rv", ascending, 100.0),
                               "k", "k2");
}

TEST(JoinPartitionTest, OrderedDoubleAndStringKeys) {
  // -0.0 and +0.0 are one key, so this double side is in order even
  // though its bit patterns alternate; the string side is in byte order.
  Schema ls({{"dk", ValueType::kDouble}, {"lv", ValueType::kDouble}});
  Schema rs({{"dk2", ValueType::kDouble}, {"rv", ValueType::kDouble}});
  Table dleft(ls);
  Table dright(rs);
  const std::vector<double> lkeys = {-1.0, -0.0, 0.0, -0.0, 0.5, 0.5};
  const std::vector<double> rkeys = {0.0, -0.0, 0.5, 2.0};
  for (std::size_t i = 0; i < lkeys.size(); ++i) {
    ASSERT_TRUE(dleft.AddRow({D(lkeys[i]), D(static_cast<double>(i))}).ok());
  }
  for (std::size_t j = 0; j < rkeys.size(); ++j) {
    ASSERT_TRUE(
        dright.AddRow({D(rkeys[j]), D(50.0 + static_cast<double>(j))}).ok());
  }
  ExpectPartitionMatchesOracle(dleft, dright, "dk", "dk2");

  Schema sls({{"s", ValueType::kString}, {"lv", ValueType::kDouble}});
  Schema srs({{"s2", ValueType::kString}, {"rv", ValueType::kDouble}});
  Table sleft(sls);
  Table sright(srs);
  for (const char* key : {"ant", "ant", "bee", "cat"}) {
    ASSERT_TRUE(sleft.AddRow({S(key), D(1.0)}).ok());
  }
  for (const char* key : {"ant", "bee", "bee", "dog"}) {
    ASSERT_TRUE(sright.AddRow({S(key), D(2.0)}).ok());
  }
  ExpectPartitionMatchesOracle(sleft, sright, "s", "s2");
}

TEST(JoinPartitionTest, ProjectsRequestedColumnsInRequestOrder) {
  // The projected kernel gathers exactly the listed join.output columns,
  // in list order and repeats included, each identical to its column of
  // the join over every column.
  Table left(IntKeyed("k", "lv"));
  Table right(Schema({{"k2", ValueType::kInt},
                      {"name", ValueType::kString},
                      {"rv", ValueType::kDouble}}));
  for (std::int64_t i = 0; i < 6; ++i) {
    Value key = i == 4 ? Value::Null() : I(i % 3);
    ASSERT_TRUE(
        left.AddRow({std::move(key), D(static_cast<double>(i))}).ok());
  }
  for (std::int64_t j = 0; j < 5; ++j) {
    Value name = j == 2 ? Value::Null() : S(j % 2 == 0 ? "even" : "odd");
    ASSERT_TRUE(right
                    .AddRow({I((j + 1) % 3), std::move(name),
                             D(10.0 * static_cast<double>(j))})
                    .ok());
  }
  auto join = ResolveJoin(left.schema(), right.schema(), {"k", "k2"});
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  auto lcol = ColumnarTable::FromTable(left);
  auto rcol = ColumnarTable::FromTable(right);
  ASSERT_TRUE(lcol.ok());
  ASSERT_TRUE(rcol.ok());
  const std::vector<std::size_t> projection = {4, 1, 3, 4};
  std::vector<Column> projected;
  for (std::size_t slot : projection) {
    projected.push_back(join.value().output.column(slot));
  }
  ColumnarTable full(join.value().output);
  ASSERT_TRUE(JoinPartition(lcol.value(), 0, lcol.value().num_rows(),
                            rcol.value(), 0, rcol.value().num_rows(),
                            join.value(), EveryColumn(join.value()), &full)
                  .ok());
  ColumnarTable out{Schema(projected)};
  ASSERT_TRUE(JoinPartition(lcol.value(), 0, lcol.value().num_rows(),
                            rcol.value(), 0, rcol.value().num_rows(),
                            join.value(), projection, &out)
                  .ok());
  ASSERT_GT(full.num_rows(), 0u);
  ASSERT_EQ(out.num_rows(), full.num_rows());
  for (std::size_t c = 0; c < projection.size(); ++c) {
    EXPECT_TRUE(out.column(c).SameContent(full.column(projection[c])))
        << "projected column " << c;
  }
}

// ---------------------------------------------------------------------------
// JoinWorlds: world partitions never mix, each world's rows start at its
// row offset, and mismatched extents are rejected.
// ---------------------------------------------------------------------------

TEST(JoinWorldsTest, RejectsMismatchedWorldRanges) {
  const SeedVector seeds(0x77, 8);
  auto left = MakeIntLeft();
  auto right = MakeIntRight();
  WorldExtent lext, rext;
  lext.world_begin = 0;
  rext.world_begin = 0;
  ASSERT_TRUE(lext.AppendWorld(*left, 0, seeds).ok());
  ASSERT_TRUE(lext.AppendWorld(*left, 1, seeds).ok());
  ASSERT_TRUE(rext.AppendWorld(*right, 0, seeds).ok());

  auto join = ResolveJoin(left->schema(), right->schema(), {"k", "k2"});
  ASSERT_TRUE(join.ok());
  WorldExtent out;
  Status s = JoinWorlds(lext, rext, join.value(), JoinAlgorithm::kSortMerge,
                        &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "joined extents cover different world ranges");
}

TEST(JoinWorldsTest, PartitionsWorldsAtRowOffsets) {
  const SeedVector seeds(0x77, 8);
  auto left = MakeIntLeft();
  auto right = MakeIntRight();
  auto join = ResolveJoin(left->schema(), right->schema(), {"k", "k2"});
  ASSERT_TRUE(join.ok());

  constexpr std::size_t kFirstWorld = 2;
  constexpr std::size_t kWorlds = 4;
  WorldExtent lext, rext;
  lext.world_begin = kFirstWorld;
  rext.world_begin = kFirstWorld;
  for (std::size_t w = kFirstWorld; w < kFirstWorld + kWorlds; ++w) {
    ASSERT_TRUE(lext.AppendWorld(*left, w, seeds).ok());
    ASSERT_TRUE(rext.AppendWorld(*right, w, seeds).ok());
  }
  WorldExtent out;
  ASSERT_TRUE(JoinWorlds(lext, rext, join.value(), JoinAlgorithm::kSortMerge,
                         &out)
                  .ok());
  EXPECT_EQ(out.world_begin, kFirstWorld);
  ASSERT_EQ(out.row_offsets.size(), kWorlds);

  // World k of the extent is world kFirstWorld + k: its rows start at
  // its row offset, end where the next world's start, and are
  // bit-identical to that world's oracle join.
  std::size_t total = 0;
  for (std::size_t k = 0; k < kWorlds; ++k) {
    const std::size_t w = kFirstWorld + k;
    auto lt = left->Generate(w, seeds);
    auto rt = right->Generate(w, seeds);
    ASSERT_TRUE(lt.ok());
    ASSERT_TRUE(rt.ok());
    auto oracle = NestedLoopJoinOracle(lt.value(), rt.value(), join.value());
    ASSERT_TRUE(oracle.ok());
    const auto [first, last] = out.WorldRows(k);
    EXPECT_EQ(first, out.row_offsets[k]);
    EXPECT_EQ(first, total) << "world " << w;
    ASSERT_EQ(last - first, oracle.value().num_rows()) << "world " << w;
    Row boxed;
    for (std::size_t r = first; r < last; ++r) {
      out.data.BoxRow(r, &boxed);
      const Row& expect = oracle.value().row(r - first);
      ASSERT_EQ(boxed.size(), expect.size());
      for (std::size_t c = 0; c < expect.size(); ++c) {
        EXPECT_TRUE(boxed[c] == expect[c])
            << "world " << w << " row " << r - first << " col " << c;
      }
    }
    total += last - first;
  }
  EXPECT_EQ(total, out.data.num_rows());
}

// ---------------------------------------------------------------------------
// FoldJoinedVGColumns: the full differential grid. Reference = the serial
// boxed nested-loop fold; every (cache, threads, batch) combination must
// reproduce its metrics bit-for-bit.
// ---------------------------------------------------------------------------

class JoinFoldTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorlds = 12;

  Result<std::map<std::string, OutputMetrics>> Fold(
      const VGTableFunctionPtr& left, const VGTableFunctionPtr& right,
      const JoinSpec& keys, const std::vector<std::string>& columns,
      const RunConfig& config, WorldCache* cache = nullptr) {
    const SeedVector seeds(config.master_seed, config.num_samples);
    std::unique_ptr<ThreadPool> pool;
    if (config.num_threads > 1) {
      pool = std::make_unique<ThreadPool>(config.num_threads);
    }
    return FoldJoinedVGColumns(left, right, keys, columns,
                               config.num_samples, seeds, config, pool.get(),
                               cache);
  }

  static RunConfig BaseConfig() {
    RunConfig config;
    config.num_samples = kWorlds;
    config.master_seed = 0xA11CE;
    return config;
  }

  // Serial boxed nested-loop fold (boxed_reference.h) over
  // config.num_samples worlds.
  Result<std::map<std::string, OutputMetrics>> Reference(
      const VGTableFunctionPtr& left, const VGTableFunctionPtr& right,
      const JoinSpec& keys, const std::vector<std::string>& columns,
      const RunConfig& config = BaseConfig()) {
    const SeedVector seeds(config.master_seed, config.num_samples);
    return test::BoxedFoldJoinedVGColumns(*left, *right, keys, columns,
                                          config.num_samples, seeds, config);
  }

  /// Calls fn(config, cache) at every grid point x {uncached, cached}, a
  /// fresh cache per call.
  template <typename Fn>
  void ForEachJoinPath(const RunConfig& base, Fn&& fn) {
    test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
      for (bool cached : {false, true}) {
        SCOPED_TRACE(cached ? "cached" : "uncached");
        RunConfig config = base;
        config.num_threads = threads;
        config.batch_size = batch;
        WorldCache cache;
        fn(config, cached ? &cache : nullptr);
      }
    });
  }

  void ExpectGridBitIdentical(const VGTableFunctionPtr& left,
                              const VGTableFunctionPtr& right,
                              const JoinSpec& keys,
                              const std::vector<std::string>& columns,
                              const RunConfig& base = BaseConfig()) {
    auto reference = Reference(left, right, keys, columns, base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ForEachJoinPath(base,
                    [&](const RunConfig& config, WorldCache* cache) {
                      auto got = Fold(left, right, keys, columns, config,
                                      cache);
                      ASSERT_TRUE(got.ok()) << got.status().ToString();
                      ExpectSameMetrics(reference.value(), got.value());
                    });
  }
};

TEST_F(JoinFoldTest, IntKeysBitIdenticalAcrossFullGrid) {
  ExpectGridBitIdentical(MakeIntLeft(), MakeIntRight(), {"k", "k2"},
                         {"lval", "rval"});
}

TEST_F(JoinFoldTest, DoubleKeysBitIdenticalAcrossFullGrid) {
  ExpectGridBitIdentical(MakeDoubleLeft(), MakeDoubleRight(), {"dk", "dk2"},
                         {"lval", "rval"});
}

TEST_F(JoinFoldTest, StringKeysBitIdenticalAcrossFullGrid) {
  ExpectGridBitIdentical(MakeStringLeft(), MakeStringRight(), {"s", "s2"},
                         {"lval", "rval"});
}

TEST_F(JoinFoldTest, UsersJoinItems) {
  auto users = MakeUsersVGTable(40, 0.8, 5.0, 2.0);
  auto items = MakeScalingItemsVGTable(60);
  const JoinSpec keys{"user_id", "item_id"};
  // Every numeric column, as the MONTECARLO statement folds them. Both
  // keys are certain, so user_id, signup_week, item_id and in_stock fold
  // as one base per point; requirement, demand and cost per world.
  const std::vector<std::string> columns = {
      "user_id", "signup_week", "requirement", "item_id",
      "demand",  "cost",        "in_stock"};
  for (bool keep_samples : {false, true}) {
    SCOPED_TRACE(keep_samples ? "samples kept" : "no samples");
    RunConfig base = BaseConfig();
    base.keep_samples = keep_samples;
    auto reference = Reference(users, items, keys, columns, base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    // The join keys overlap by construction (user ids live inside the
    // item id range), so the differential is not vacuous.
    ASSERT_GT(reference.value().at("requirement").count, 0);

    ForEachJoinPath(base, [&](const RunConfig& config, WorldCache* cache) {
      auto got = Fold(users, items, keys, columns, config, cache);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameMetrics(reference.value(), got.value());
    });
  }
}

TEST_F(JoinFoldTest, CertainColumnsFoldOnceBitIdenticalAcrossGrid) {
  // Both keys are certain: c, z, nz, flag, k, k2 and rc fold as one base
  // per point, u and rv per world. The bases hold duplicates, NaN, +inf,
  // zeros of both signs (which fold every copy) and -0.0 alone, and the
  // NULL key's row, whose `c` is NULL, never matches.
  const std::vector<std::string> columns = {"c",  "z", "nz", "flag", "u",
                                            "rv", "k", "rc", "k2"};
  for (bool keep_samples : {false, true}) {
    SCOPED_TRACE(keep_samples ? "samples kept" : "no samples");
    RunConfig base = BaseConfig();
    base.keep_samples = keep_samples;
    auto reference = Reference(MakeCertainLeft(), MakeCertainRight(),
                               {"k", "k2"}, columns, base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_GT(reference.value().at("c").count,
              static_cast<std::int64_t>(8 * kWorlds));
    ExpectGridBitIdentical(MakeCertainLeft(), MakeCertainRight(),
                           {"k", "k2"}, columns, base);
  }
  // Keys that are not both certain keep the per-world path: the right
  // side declares nothing, so `c` and `z` are gathered in every world.
  ExpectGridBitIdentical(MakeCertainLeft(), MakeIntRight(), {"k", "k2"},
                         {"c", "z", "rval"});
}

TEST_F(JoinFoldTest, AllNullKeysFoldZeroTuplesEverywhere) {
  Schema schema({{"k", ValueType::kInt}, {"lval", ValueType::kDouble}});
  auto null_left = std::make_shared<KeyedVGTable>(
      "null_left", schema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 3 + w % 2; ++i) {
          JIGSAW_RETURN_IF_ERROR(
              out->AddRow({Value::Null(), D(static_cast<double>(i))}));
        }
        return Status::OK();
      });
  auto reference = Reference(null_left, MakeIntRight(), {"k", "k2"},
                             {"lval", "rval"});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(reference.value().at("lval").count, 0);
  EXPECT_EQ(reference.value().at("rval").count, 0);
  ExpectGridBitIdentical(null_left, MakeIntRight(), {"k", "k2"},
                         {"lval", "rval"});
}

TEST_F(JoinFoldTest, WorldCacheSharesRealizationsAcrossRuns) {
  auto left = MakeIntLeft();
  auto right = MakeIntRight();
  const JoinSpec keys{"k", "k2"};
  const std::vector<std::string> columns = {"lval", "rval"};
  auto reference = Reference(left, right, keys, columns);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  WorldCache cache;
  RunConfig config = BaseConfig();
  config.num_threads = 2;
  config.batch_size = 7;
  auto cached = Fold(left, right, keys, columns, config, &cache);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ExpectSameMetrics(reference.value(), cached.value());
  // One generation per (table, world), none for cache hits afterwards.
  EXPECT_EQ(cache.generation_count(), 2 * kWorlds);

  // A rerun with other chunking re-reads the same cache entries.
  config.num_threads = 1;
  config.batch_size = 64;
  auto rerun = Fold(left, right, keys, columns, config, &cache);
  ASSERT_TRUE(rerun.ok());
  ExpectSameMetrics(reference.value(), rerun.value());
  EXPECT_EQ(cache.generation_count(), 2 * kWorlds);
}

// The per-world pipeline gathers only the requested columns of matched
// tuples; the cases below pin it to the boxed fold over the full joined
// relation where that projection could diverge.

TEST_F(JoinFoldTest, ManyToManyDuplicateKeys) {
  // Two key values on the left, three on the right, shifting with the
  // world: every matched key pairs several left rows with several right
  // rows.
  Schema lschema({{"k", ValueType::kInt}, {"lval", ValueType::kDouble}});
  auto left = std::make_shared<KeyedVGTable>(
      "dup_left", lschema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 10 + w % 3; ++i) {
          JIGSAW_RETURN_IF_ERROR(
              out->AddRow({I(static_cast<std::int64_t>((i + w) % 2)),
                           D(static_cast<double>(w) + 0.5 * i)}));
        }
        return Status::OK();
      });
  Schema rschema({{"k2", ValueType::kInt}, {"rval", ValueType::kDouble}});
  auto right = std::make_shared<KeyedVGTable>(
      "dup_right", rschema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 9; ++i) {
          JIGSAW_RETURN_IF_ERROR(
              out->AddRow({I(static_cast<std::int64_t>((i * 2 + w) % 3)),
                           D(-static_cast<double>(i * w))}));
        }
        return Status::OK();
      });
  auto reference = Reference(left, right, {"k", "k2"}, {"lval", "rval"});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_GT(reference.value().at("lval").count,
            static_cast<std::int64_t>(10 * kWorlds));
  ExpectGridBitIdentical(left, right, {"k", "k2"}, {"lval", "k", "rval"});
}

TEST_F(JoinFoldTest, WorldsWhereNothingMatches) {
  // Worlds 0, 3, 6, 9 shift the right keys out of the left key range, so
  // they join to nothing — world 0 included, which opens a chunk at every
  // batch size and so sizes that chunk's extent from an empty world.
  Schema rschema({{"k2", ValueType::kInt}, {"rval", ValueType::kDouble}});
  auto right = std::make_shared<KeyedVGTable>(
      "sometimes_right", rschema, [](std::size_t w, Table* out) -> Status {
        const std::int64_t shift = w % 3 == 0 ? 100 : 0;
        for (std::size_t i = 0; i < 6; ++i) {
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {I(shift + static_cast<std::int64_t>(i % 5)),
               D(static_cast<double>(w) * 3.0 - static_cast<double>(i))}));
        }
        return Status::OK();
      });
  auto reference =
      Reference(MakeIntLeft(), right, {"k", "k2"}, {"lval", "rval"});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_GT(reference.value().at("rval").count, 0);
  ExpectGridBitIdentical(MakeIntLeft(), right, {"k", "k2"},
                         {"lval", "rval"});
  // No world matches at all: every column folds zero tuples.
  Schema lschema({{"k", ValueType::kInt}, {"lval", ValueType::kDouble}});
  auto far_left = std::make_shared<KeyedVGTable>(
      "far_left", lschema, [](std::size_t w, Table* out) -> Status {
        return out->AddRow({I(-1), D(static_cast<double>(w))});
      });
  ExpectGridBitIdentical(far_left, MakeIntRight(), {"k", "k2"},
                         {"lval", "rval"});
}

TEST_F(JoinFoldTest, ColumnRequestedTwice) {
  // A repeated name (or the same column under another case) folds the
  // one gathered column again; the result map keeps each distinct name.
  ExpectGridBitIdentical(MakeIntLeft(), MakeIntRight(), {"k", "k2"},
                         {"rval", "lval", "rval"});
  ExpectGridBitIdentical(MakeIntLeft(), MakeIntRight(), {"k", "k2"},
                         {"lval", "LVAL", "k2"});
}

TEST_F(JoinFoldTest, RightSideFiftyTimesTheLeft) {
  // A selective join: 8 users against 400 items, so most of every
  // world's right side never matches. Bool and int columns fold widened.
  auto users = MakeUsersVGTable(8, 0.8, 5.0, 2.0);
  auto items = MakeScalingItemsVGTable(400);
  const JoinSpec keys{"user_id", "item_id"};
  const std::vector<std::string> columns = {"requirement", "in_stock",
                                            "demand", "item_id"};
  auto reference = Reference(users, items, keys, columns);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(reference.value().at("demand").count,
            static_cast<std::int64_t>(8 * kWorlds));
  ExpectGridBitIdentical(users, items, keys, columns);
}

TEST_F(JoinFoldTest, NullsOutsideTheFoldedMatchesDoNotFail) {
  // A NULL in an unfolded column of a matched tuple: `a` and `b` turn
  // NULL on matched rows from world 0, but only `k` and `v2` fold.
  auto nulling = test::MakeNullingTable(0, 0);
  auto reference = Reference(nulling, MakePlainRight("plain_right"),
                             {"k", "k2"}, {"k", "v2"});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_GT(reference.value().at("v2").count, 0);
  ExpectGridBitIdentical(nulling, MakePlainRight("plain_right"), {"k", "k2"},
                         {"k", "v2"});

  // A NULL in a folded column of an unmatched row: the rows whose `lval`
  // is NULL carry a NULL key or a key the right side never holds.
  Schema lschema({{"k", ValueType::kInt}, {"lval", ValueType::kDouble}});
  auto left = std::make_shared<KeyedVGTable>(
      "unmatched_nulls", lschema, [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i < 6; ++i) {
          Value key = I(static_cast<std::int64_t>(i % 3));
          Value val = D(static_cast<double>(w * 10 + i));
          if (i == 2) {
            key = Value::Null();
            val = Value::Null();
          } else if (i == 4) {
            key = I(99);
            val = Value::Null();
          }
          JIGSAW_RETURN_IF_ERROR(out->AddRow({std::move(key), std::move(val)}));
        }
        return Status::OK();
      });
  reference = Reference(left, MakePlainRight("plain_right"), {"k", "k2"},
                        {"lval", "v2"});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_GT(reference.value().at("lval").count, 0);
  ExpectGridBitIdentical(left, MakePlainRight("plain_right"), {"k", "k2"},
                         {"lval", "v2"});
}

TEST_F(JoinFoldTest, SeedVectorShorterThanWorldsIsInvalidArgument) {
  // 64 worlds over a 4-seed vector: rejected before either side is
  // realized.
  auto users = MakeUsersVGTable(8, 0.8, 5.0, 2.0);
  auto items = MakeScalingItemsVGTable(10);
  const std::vector<std::string> columns = {"requirement", "demand"};
  const SeedVector seeds(7, 4);
  ForEachJoinPath(BaseConfig(), [&](const RunConfig& config,
                                    WorldCache* cache) {
    ThreadPool pool(config.num_threads);
    auto got = FoldJoinedVGColumns(
        users, items, {"user_id", "item_id"}, columns, 64, seeds, config,
        config.num_threads > 1 ? &pool : nullptr, cache);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(),
              "fold over 64 worlds needs one seed per world; the seed "
              "vector holds 4");
    if (cache != nullptr) {
      EXPECT_EQ(cache->generation_count(), 0u);
    }
  });
}

// ---------------------------------------------------------------------------
// Error identity: the failing world's error text is the serial boxed
// loop's, on every path, whichever side fails first.
// ---------------------------------------------------------------------------

class JoinErrorTest : public JoinFoldTest {
 protected:
  void ExpectSameErrorEverywhere(const VGTableFunctionPtr& left,
                                 const VGTableFunctionPtr& right,
                                 const JoinSpec& keys,
                                 const std::vector<std::string>& columns,
                                 const std::string& expected_message) {
    auto reference = Reference(left, right, keys, columns);
    ASSERT_FALSE(reference.ok());
    EXPECT_EQ(reference.status().message(), expected_message);
    ForEachJoinPath(BaseConfig(),
                    [&](const RunConfig& config, WorldCache* cache) {
                      auto got = Fold(left, right, keys, columns, config,
                                      cache);
                      ASSERT_FALSE(got.ok());
                      EXPECT_EQ(got.status().code(),
                                reference.status().code());
                      EXPECT_EQ(got.status().message(), expected_message);
                    });
  }
};

TEST_F(JoinErrorTest, LeftGeneratorFailureSurfacesSerially) {
  // Left fails from world 5 on; right never fails. The serial loop hits
  // the left failure first in world 5 on every path.
  ExpectSameErrorEverywhere(
      MakeFailingTable("flaky_left", 5), MakePlainRight("plain_right"),
      {"k", "k2"}, {"v", "v2"},
      "VG generator 'flaky_left' failed in world 5");
}

TEST_F(JoinErrorTest, RightGeneratorFailureSurfacesSerially) {
  // Right fails from world 3 on while left keeps succeeding: the serial
  // order realizes left world 3 then right world 3, so the surfaced
  // error is the right side's — including on the interleaved columnar
  // realization path.
  auto plain_left = MakeFailingTable("plain_left", kWorlds + 1);
  Schema rschema({{"k2", ValueType::kInt}, {"v2", ValueType::kDouble}});
  auto flaky_right = std::make_shared<KeyedVGTable>(
      "flaky_right", rschema, [](std::size_t w, Table* out) -> Status {
        if (w >= 3) {
          return Status::ExecutionError(
              StrFormat("VG generator 'flaky_right' failed in world %zu", w));
        }
        for (std::size_t i = 0; i < 4; ++i) {
          JIGSAW_RETURN_IF_ERROR(
              out->AddRow({I(static_cast<std::int64_t>(i % 3)),
                           D(static_cast<double>(i))}));
        }
        return Status::OK();
      });
  ExpectSameErrorEverywhere(plain_left, flaky_right, {"k", "k2"},
                            {"v", "v2"},
                            "VG generator 'flaky_right' failed in world 3");
}

TEST_F(JoinErrorTest, EarlierLeftFailureWinsOverLaterRightFailure) {
  // Left fails from world 2, right from world 4: world 2's left
  // realization is the first serial failure.
  Schema rschema({{"k2", ValueType::kInt}, {"v2", ValueType::kDouble}});
  auto flaky_right = std::make_shared<KeyedVGTable>(
      "flaky_right", rschema, [](std::size_t w, Table* out) -> Status {
        if (w >= 4) {
          return Status::ExecutionError(
              StrFormat("VG generator 'flaky_right' failed in world %zu", w));
        }
        return out->AddRow({I(0), D(0.0)});
      });
  ExpectSameErrorEverywhere(MakeFailingTable("flaky_left", 2), flaky_right,
                            {"k", "k2"}, {"v", "v2"},
                            "VG generator 'flaky_left' failed in world 2");
}

TEST_F(JoinErrorTest, NullInFoldedColumnSurfacesInWorldOrder) {
  // `b` turns NULL at world 4, `a` (earlier in the schema) at world 9;
  // both fall in one chunk at batch 64. The world-major serial loop meets
  // b's NULL first, whatever order the columns fold in.
  ExpectSameErrorEverywhere(test::MakeNullingTable(9, 4),
                            MakePlainRight("plain_right"), {"k", "k2"},
                            {"a", "b"}, "column 'b' is not numeric");
  // Both NULL in the same world: the lower requested column reports.
  ExpectSameErrorEverywhere(test::MakeNullingTable(6, 6),
                            MakePlainRight("plain_right"), {"k", "k2"},
                            {"a", "b"}, "column 'a' is not numeric");
  // Same world with the NULL rows swapped, so `b`'s NULL comes first in
  // row order: the rule is world, then column, never row order.
  ExpectSameErrorEverywhere(test::MakeNullingTable(6, 6, /*a_null_row=*/2,
                                                   /*b_null_row=*/1),
                            MakePlainRight("plain_right"), {"k", "k2"},
                            {"a", "b"}, "column 'a' is not numeric");
}

TEST_F(JoinErrorTest, NullsAndGeneratorFailuresSurfaceInWorldOrder) {
  // The right side fails from world `fails_from`; `a` turns NULL on a
  // matched row from world `null_from`. The serial loop realizes, joins
  // and folds one world at a time, so whichever comes first in world
  // order reports, and in one world the failed realization comes first.
  const auto right_failing_from = [](std::size_t fails_from) {
    Schema rschema({{"k2", ValueType::kInt}, {"v2", ValueType::kDouble}});
    return std::make_shared<KeyedVGTable>(
        "flaky_right", rschema,
        [fails_from](std::size_t w, Table* out) -> Status {
          if (w >= fails_from) {
            return Status::ExecutionError(StrFormat(
                "VG generator 'flaky_right' failed in world %zu", w));
          }
          for (std::size_t i = 0; i < 5; ++i) {
            JIGSAW_RETURN_IF_ERROR(
                out->AddRow({I(static_cast<std::int64_t>((i + w) % 3)),
                             D(static_cast<double>(i))}));
          }
          return Status::OK();
        });
  };
  const std::size_t never = kWorlds + 1;
  ExpectSameErrorEverywhere(test::MakeNullingTable(2, never),
                            right_failing_from(5), {"k", "k2"}, {"a", "b"},
                            "column 'a' is not numeric");
  ExpectSameErrorEverywhere(test::MakeNullingTable(5, never),
                            right_failing_from(2), {"k", "k2"}, {"a", "b"},
                            "VG generator 'flaky_right' failed in world 2");
  ExpectSameErrorEverywhere(test::MakeNullingTable(3, never),
                            right_failing_from(3), {"k", "k2"}, {"a", "b"},
                            "VG generator 'flaky_right' failed in world 3");
}

TEST_F(JoinErrorTest, CertainColumnNullAgainstWorldZeroUncertainNull) {
  // `c` (certain) holds a NULL in every world and `u` (uncertain) from
  // world 0: both fail in world 0, so the lower requested column reports.
  ExpectSameErrorEverywhere(MakeCertainNullLeft(0), MakeCertainRight(),
                            {"k", "k2"}, {"u", "c"},
                            "column 'u' is not numeric");
  ExpectSameErrorEverywhere(MakeCertainNullLeft(0), MakeCertainRight(),
                            {"k", "k2"}, {"c", "u"},
                            "column 'c' is not numeric");
  // With `u` NULL only from world 5, `c`'s world-0 NULL comes first.
  ExpectSameErrorEverywhere(MakeCertainNullLeft(5), MakeCertainRight(),
                            {"k", "k2"}, {"u", "c"},
                            "column 'c' is not numeric");
}

TEST_F(JoinErrorTest, CertainColumnNullBeatsLaterGeneratorFailure) {
  ExpectSameErrorEverywhere(MakeCertainNullLeft(kWorlds + 1),
                            MakeCertainRight(3), {"k", "k2"}, {"u", "c"},
                            "column 'c' is not numeric");
}

TEST_F(JoinErrorTest, GeneratorFailureAtWorldZeroBeatsCertainColumnNull) {
  // No world completes, so the certain NULL is never folded.
  ExpectSameErrorEverywhere(MakeCertainNullLeft(kWorlds + 1),
                            MakeCertainRight(0), {"k", "k2"}, {"u", "c"},
                            "VG generator 'certain_right' failed in world 0");
}

TEST_F(JoinErrorTest, CertainColumnNullOverZeroWorldsFoldsZeroCounts) {
  RunConfig base = BaseConfig();
  base.num_samples = 0;
  const std::vector<std::string> columns = {"u", "c", "rv"};
  auto reference = Reference(MakeCertainNullLeft(0), MakeCertainRight(),
                             {"k", "k2"}, columns, base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const std::string& name : columns) {
    EXPECT_EQ(reference.value().at(name).count, 0) << name;
  }
  ExpectGridBitIdentical(MakeCertainNullLeft(0), MakeCertainRight(),
                         {"k", "k2"}, columns, base);
}

TEST_F(JoinErrorTest, CertainKeysWhoseRowCountMovesAreAnInternalError) {
  // A table that declares its key certain but realizes another row count
  // in a later world breaks the declaration. The pairs matched in a
  // cell's first world index rows, so the later world of the same cell
  // is refused rather than read through them.
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kDouble}});
  auto shrinking = std::make_shared<KeyedVGTable>(
      "shrinking", schema,
      [](std::size_t w, Table* out) -> Status {
        for (std::size_t i = 0; i + w < 6; ++i) {
          JIGSAW_RETURN_IF_ERROR(
              out->AddRow({I(static_cast<std::int64_t>(i % 3)),
                           D(static_cast<double>(i))}));
        }
        return Status::OK();
      },
      std::vector<std::size_t>{0});
  RunConfig config = BaseConfig();
  config.batch_size = 64;
  auto got = Fold(shrinking, MakeCertainRight(), {"k", "k2"}, {"v", "rv"},
                  config);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  EXPECT_EQ(got.status().message(),
            "tables with certain join keys realized 6 x 7 rows in world 0 "
            "but 5 x 7 in world 1");
}

TEST_F(JoinErrorTest, NonNumericAndUnknownFoldColumnsFailUpFront) {
  auto users = MakeUsersVGTable(8, 0.8, 5.0, 2.0);
  auto items = MakeScalingItemsVGTable(10);
  const JoinSpec keys{"user_id", "item_id"};
  ExpectSameErrorEverywhere(users, items, keys, {"region"},
                            "column 'region' is not numeric");
  ExpectSameErrorEverywhere(users, items, keys, {"no_such_column"},
                            "no column named 'no_such_column'");
  // Names resolve in request order against the full joined schema: the
  // first bad name reports, whichever way it is bad.
  ExpectSameErrorEverywhere(users, items, keys, {"region", "no_such_column"},
                            "column 'region' is not numeric");
  ExpectSameErrorEverywhere(users, items, keys, {"no_such_column", "region"},
                            "no column named 'no_such_column'");
}

TEST_F(JoinErrorTest, ResolveErrorsIdenticalOnEveryPath) {
  auto users = MakeUsersVGTable(8, 0.8, 5.0, 2.0);
  auto items = MakeScalingItemsVGTable(10);
  ExpectSameErrorEverywhere(
      users, items, {"user_id", "region"}, {"cost"},
      "join keys 'user_id' (INT) and 'region' (STRING) have mismatched "
      "types");
  ExpectSameErrorEverywhere(users, users, {"user_id", "user_id"},
                            {"requirement"},
                            "duplicate column 'user_id' in join output");
}

}  // namespace
}  // namespace jigsaw::pdb
