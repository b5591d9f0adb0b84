#pragma once

/// \file keyed_vg_table.h
/// Deterministic VG tables for the fold and join suites. The rows derive
/// arithmetically from the world id (duplicate keys, NULLs and varying
/// row counts included), so every execution path realizes identical
/// worlds by construction, without drawing randomness.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pdb/table.h"
#include "pdb/value.h"
#include "pdb/vg_table.h"
#include "random/seed_vector.h"
#include "util/status.h"

namespace jigsaw::test {

/// `certain` lists the slots the table declares world-invariant
/// (VGTableFunction::CertainColumns); `fill` must then write the same
/// values and NULLs, and the same row count, in every world it realizes.
class KeyedVGTable final : public pdb::VGTableFunction {
 public:
  using FillFn = std::function<Status(std::size_t world, pdb::Table* out)>;
  KeyedVGTable(std::string name, pdb::Schema schema, FillFn fill,
               std::vector<std::size_t> certain = {})
      : name_(std::move(name)),
        schema_(std::move(schema)),
        fill_(std::move(fill)),
        certain_(std::move(certain)) {}

  const std::string& name() const override { return name_; }
  const pdb::Schema& schema() const override { return schema_; }
  std::span<const std::size_t> CertainColumns() const override {
    return certain_;
  }
  Result<pdb::Table> Generate(std::size_t sample_id,
                              const SeedVector& /*seeds*/) const override {
    pdb::Table t(schema_);
    JIGSAW_RETURN_IF_ERROR(fill_(sample_id, &t));
    return t;
  }

 private:
  std::string name_;
  pdb::Schema schema_;
  FillFn fill_;
  std::vector<std::size_t> certain_;
};

/// Key `k` (INT, 0..2) and two non-key DOUBLE columns `a` and `b`, four
/// rows per world. Row `a_null_row`'s `a` is NULL from world `a_null_from`
/// on and row `b_null_row`'s `b` from world `b_null_from` on, so a fold
/// of either column fails from that world: the tables that pin which NULL
/// a fold reports first.
inline pdb::VGTableFunctionPtr MakeNullingTable(std::size_t a_null_from,
                                                std::size_t b_null_from,
                                                std::size_t a_null_row = 1,
                                                std::size_t b_null_row = 2) {
  pdb::Schema schema({{"k", pdb::ValueType::kInt},
                      {"a", pdb::ValueType::kDouble},
                      {"b", pdb::ValueType::kDouble}});
  return std::make_shared<KeyedVGTable>(
      "nulling", schema,
      [=](std::size_t w, pdb::Table* out) -> Status {
        for (std::size_t i = 0; i < 4; ++i) {
          const double v = static_cast<double>(10 * w + i);
          JIGSAW_RETURN_IF_ERROR(out->AddRow(
              {pdb::Value(static_cast<std::int64_t>(i % 3)),
               i == a_null_row && w >= a_null_from ? pdb::Value::Null()
                                                   : pdb::Value(v),
               i == b_null_row && w >= b_null_from ? pdb::Value::Null()
                                                   : pdb::Value(-v)}));
        }
        return Status::OK();
      });
}

}  // namespace jigsaw::test
