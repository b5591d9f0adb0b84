#pragma once

/// \file operators.h
/// Volcano-style (open/next/close) physical operators over boxed rows —
/// the query-execution substrate of the mini-MCDB layer. Queries over a
/// sampled possible world run through these operators; the layered engine
/// of Figure 7 additionally re-plans and re-interprets them per
/// invocation, which is precisely the overhead the paper's lightweight
/// prototype avoided.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdb/expr.h"
#include "pdb/table.h"
#include "util/status.h"

namespace jigsaw::pdb {

class PlanNode {
 public:
  virtual ~PlanNode() = default;

  virtual const Schema& schema() const = 0;

  /// Prepares for iteration under `ctx` (same context drives stochastic
  /// expressions in children).
  virtual Status Open(EvalContext& ctx) = 0;

  /// Produces the next row into *out; returns false when exhausted.
  virtual Result<bool> Next(Row* out) = 0;

  virtual void Close() = 0;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// Scans a materialized (deterministic) table.
PlanNodePtr MakeTableScan(const Table* table);

/// Scans a table owned by the node (used for generated worlds).
PlanNodePtr MakeOwnedTableScan(Table table);

/// One-row, zero-column relation (SELECT without FROM — "DUAL").
PlanNodePtr MakeDualScan();

/// Computes the doubles of a one-row scan at Open time under the world's
/// EvalContext (the node guarantees a seed vector is present).
using SingleRowFn = std::function<Status(EvalContext&, std::vector<double>*)>;

/// One-row all-double leaf over a row program: `fill` evaluates the row
/// at Open; a context without a seed vector is an ExecutionError (row
/// programs are stochastic). This is how a row program rides inside the
/// layered engine's per-world Volcano plans.
PlanNodePtr MakeSingleRowScan(Schema schema, SingleRowFn fill);

/// sigma(predicate).
PlanNodePtr MakeFilter(PlanNodePtr input, ExprPtr predicate);

/// pi(exprs AS names). Later expressions may reference earlier aliases of
/// the same projection (Figure 1 semantics).
PlanNodePtr MakeProject(PlanNodePtr input, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names);

enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggKind kind = AggKind::kSum;
  ExprPtr arg;  ///< null for COUNT(*)
  std::string name;
};

/// Hash aggregation: GROUP BY group_exprs, computing aggs. With no group
/// expressions, produces a single global-aggregate row.
PlanNodePtr MakeHashAggregate(PlanNodePtr input,
                              std::vector<ExprPtr> group_exprs,
                              std::vector<std::string> group_names,
                              std::vector<AggSpec> aggs);

/// Drains a plan into a materialized table.
Result<Table> ExecuteToTable(PlanNode& plan, EvalContext& ctx);

}  // namespace jigsaw::pdb
