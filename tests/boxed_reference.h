#pragma once

/// \file boxed_reference.h
/// Test-only boxed references for the columnar possible-worlds paths.
/// The production join fold (pdb::FoldJoinedVGColumns, a one-point
/// pdb::FoldWorldCells) and the layered engine's cached VG scan realize
/// worlds as typed column chunks. The references here realize the same
/// worlds as boxed `Table`s through VGTableFunction::Generate, join them
/// with a serial nested-loop join, and extract columns through the
/// copying Table::NumericColumn — one world at a time, in world order,
/// on the caller's thread. They share no code with the columnar path
/// beyond ResolveJoin and the Estimator, so a grid that matches them bit
/// for bit checks the column chunks, the span join kernels and the
/// pooled per-column fold at once.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/run_config.h"
#include "pdb/join.h"
#include "pdb/operators.h"
#include "pdb/table.h"
#include "pdb/value.h"
#include "pdb/vg_table.h"
#include "random/seed_vector.h"
#include "util/status.h"

namespace jigsaw::test {

/// Boxed key equality. NULL keys never match anything (not even another
/// NULL); double NaN keys compare unequal to everything via IEEE ==, so
/// they never match either. ResolveJoin makes the key type common to
/// both sides, so no coercion happens here.
inline bool BoxedKeysMatch(const pdb::Value& a, const pdb::Value& b,
                           pdb::ValueType key_type) {
  if (a.is_null() || b.is_null()) return false;
  switch (key_type) {
    case pdb::ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case pdb::ValueType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case pdb::ValueType::kBool:
      return a.AsBool() == b.AsBool();
    case pdb::ValueType::kString:
      return a.AsString() == b.AsString();
    case pdb::ValueType::kNull:
      return false;
  }
  return false;
}

/// The serial nested-loop reference join: for each left row in order,
/// its concatenation with each matching right row in order — the
/// canonical order every span kernel must reproduce.
inline Result<pdb::Table> NestedLoopJoinOracle(const pdb::Table& left,
                                               const pdb::Table& right,
                                               const pdb::ResolvedJoin& join) {
  pdb::Table out(join.output);
  for (const pdb::Row& lrow : left.rows()) {
    for (const pdb::Row& rrow : right.rows()) {
      if (!BoxedKeysMatch(lrow[join.left_slot], rrow[join.right_slot],
                          join.key_type)) {
        continue;
      }
      pdb::Row joined;
      joined.reserve(lrow.size() + rrow.size());
      joined.insert(joined.end(), lrow.begin(), lrow.end());
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      out.AppendRowUnchecked(std::move(joined));
    }
  }
  return out;
}

/// Serial boxed fold of the worlds `realize` produces, one boxed table
/// per world: every requested column of every world, through the copying
/// Table::NumericColumn, into one Estimator per column. An unknown or
/// non-numeric column fails before any world is realized, as in the
/// production folds; otherwise the first error in (world, column) order
/// wins.
inline Result<std::map<std::string, OutputMetrics>> BoxedFoldWorlds(
    const pdb::Schema& schema, std::span<const std::string> column_names,
    std::size_t num_worlds, const SeedVector& seeds, const RunConfig& config,
    const std::function<Result<pdb::Table>(std::size_t world)>& realize) {
  for (const std::string& name : column_names) {
    JIGSAW_ASSIGN_OR_RETURN(std::size_t idx, schema.IndexOf(name));
    const pdb::ValueType t = schema.column(idx).type;
    if (t == pdb::ValueType::kString || t == pdb::ValueType::kNull) {
      return Status::ExecutionError("column '" + name + "' is not numeric");
    }
  }
  if (num_worlds > seeds.size()) {
    return Status::InvalidArgument("boxed reference needs a seed per world");
  }
  std::vector<Estimator> estimators(
      column_names.size(),
      Estimator(config.keep_samples, config.histogram_bins));
  for (std::size_t w = 0; w < num_worlds; ++w) {
    JIGSAW_ASSIGN_OR_RETURN(pdb::Table table, realize(w));
    for (std::size_t s = 0; s < column_names.size(); ++s) {
      JIGSAW_ASSIGN_OR_RETURN(std::vector<double> values,
                              table.NumericColumn(column_names[s]));
      estimators[s].AddSpan(values);
    }
  }
  std::map<std::string, OutputMetrics> out;
  for (std::size_t s = 0; s < column_names.size(); ++s) {
    out.emplace(column_names[s], estimators[s].Finalize());
  }
  return out;
}

/// Boxed reference for pdb::FoldJoinedVGColumns: both sides generated
/// boxed per world (left first), joined by NestedLoopJoinOracle.
inline Result<std::map<std::string, OutputMetrics>> BoxedFoldJoinedVGColumns(
    const pdb::VGTableFunction& left, const pdb::VGTableFunction& right,
    const pdb::JoinSpec& spec, std::span<const std::string> column_names,
    std::size_t num_worlds, const SeedVector& seeds,
    const RunConfig& config) {
  JIGSAW_ASSIGN_OR_RETURN(pdb::ResolvedJoin join,
                          pdb::ResolveJoin(left.schema(), right.schema(), spec));
  return BoxedFoldWorlds(
      join.output, column_names, num_worlds, seeds, config,
      [&](std::size_t w) -> Result<pdb::Table> {
        JIGSAW_ASSIGN_OR_RETURN(pdb::Table lt, left.Generate(w, seeds));
        JIGSAW_ASSIGN_OR_RETURN(pdb::Table rt, right.Generate(w, seeds));
        return NestedLoopJoinOracle(lt, rt, join);
      });
}

/// Boxed reference leaf for pdb::MakeCachedVGScan: generates world
/// `ctx.sample_id` boxed at Open, uncached, and streams its rows.
class BoxedVGScanNode final : public pdb::PlanNode {
 public:
  explicit BoxedVGScanNode(pdb::VGTableFunctionPtr fn) : fn_(std::move(fn)) {}

  const pdb::Schema& schema() const override { return fn_->schema(); }

  Status Open(pdb::EvalContext& ctx) override {
    if (ctx.seeds == nullptr) {
      return Status::ExecutionError("boxed VG scan requires a seed vector");
    }
    JIGSAW_ASSIGN_OR_RETURN(table_, fn_->Generate(ctx.sample_id, *ctx.seeds));
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(pdb::Row* out) override {
    if (pos_ >= table_.num_rows()) return false;
    *out = table_.row(pos_++);
    return true;
  }

  void Close() override { table_ = pdb::Table(); }

 private:
  pdb::VGTableFunctionPtr fn_;
  pdb::Table table_;
  std::size_t pos_ = 0;
};

inline pdb::PlanNodePtr MakeBoxedVGScan(pdb::VGTableFunctionPtr fn) {
  return std::make_unique<BoxedVGScanNode>(std::move(fn));
}

}  // namespace jigsaw::test
