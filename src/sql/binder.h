#pragma once

/// \file binder.h
/// Semantic analysis: resolves a parsed Script against a ModelRegistry
/// into an executable BoundScript — a core::Scenario (parameter space +
/// compiled result columns), plus the OPTIMIZE / GRAPH specs and chain
/// metadata if present. All name/arity errors surface here as BindError
/// with context; execution never sees unresolved names.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/graph_spec.h"
#include "core/optimizer.h"
#include "core/scenario.h"
#include "models/black_box.h"
#include "pdb/batch_program.h"
#include "pdb/expr.h"
#include "pdb/join.h"
#include "pdb/vg_table.h"
#include "sql/ast.h"
#include "util/status.h"

namespace jigsaw::sql {

/// Chain (Figure 5) metadata: which parameter is chained, which column
/// feeds it, which parameter drives the steps.
struct BoundChain {
  std::size_t chain_param_index = 0;
  std::size_t driver_param_index = 0;
  std::size_t source_column_index = 0;
  double initial = 0.0;
};

/// The compiled projection shared by all column SimFunctions: inner
/// (subquery) expressions first, then outer expressions which may
/// reference inner columns and earlier outer aliases.
struct RowProgram {
  std::vector<pdb::ExprPtr> inner_exprs;
  std::vector<std::string> inner_names;
  std::vector<pdb::ExprPtr> outer_exprs;
  std::vector<std::string> outer_names;

  /// Compiled batch form, produced at bind time. Null when the compiler
  /// bailed — batch_fallback_reason then says why, and every consumer
  /// falls back to the interpreter transparently.
  pdb::BatchProgramPtr batch;
  std::string batch_fallback_reason;

  bool compiled() const { return batch != nullptr; }

  /// Evaluates outer column `j` for one (params, sample) pair; the salt
  /// lets the Markov executor vary randomness per chain step.
  Result<double> EvalColumn(std::size_t j, std::span<const double> params,
                            std::size_t sample_id, const SeedVector& seeds,
                            std::uint64_t stream_salt = 0) const;

  /// Evaluates every outer column at once on the interpreter (the bind
  /// probe, and EvalAllColumnsSpan when the program did not compile).
  Result<std::vector<double>> EvalAllColumns(
      std::span<const double> params, std::size_t sample_id,
      const SeedVector& seeds, std::uint64_t stream_salt = 0) const;

  /// Evaluates outer column `j` for samples [sample_begin, sample_begin +
  /// out.size()) into `out` — compiled BatchProgram when available, else
  /// a scalar EvalColumn loop. `lane_params` overrides parameters with
  /// per-lane values (the chain executor's per-instance state). Entry i
  /// is bit-identical to EvalColumn at sample_begin + i, and the error
  /// (if any) is the one the lowest failing sample would report.
  Status EvalColumnSpan(
      std::size_t j, std::span<const double> params,
      std::size_t sample_begin, const SeedVector& seeds,
      std::uint64_t stream_salt,
      std::span<const pdb::BatchProgram::LaneParam> lane_params,
      std::span<double> out) const;

  /// Span twin of EvalAllColumns: fills out[c][i] with column c of sample
  /// sample_begin + i, for i in [0, count) — one compiled BatchProgram run
  /// when available, else an EvalAllColumns loop. Every MONTECARLO row
  /// fold evaluates through it: the direct cell grid one chunk at a time,
  /// the layered engine's per-world plans one sample at a time. The error
  /// (if any) is the one the lowest failing sample would report.
  Status EvalAllColumnsSpan(std::span<const double> params,
                            std::size_t sample_begin, std::size_t count,
                            const SeedVector& seeds,
                            std::uint64_t stream_salt,
                            std::span<double* const> out) const;

 private:
  /// The interpreter walk behind EvalColumn and EvalAllColumns: the inner
  /// expressions, then outer columns [0, last] appended to `aliases`.
  /// With check_all every column must be numeric, else only `last` — the
  /// split BatchProgram::Exec makes for RunAll and RunColumn.
  Status Walk(std::size_t last, bool check_all,
              std::span<const double> params, std::size_t sample_id,
              const SeedVector& seeds, std::uint64_t stream_salt,
              std::vector<pdb::Value>& aliases) const;
};

/// Bound OVER clause of a MONTECARLO statement: the swept parameter
/// (resolved to its index) plus the materialized point values — an
/// explicit IN list, an expanded IN range, or the parameter's declared
/// domain. Never empty: an empty sweep is a bind error.
struct MonteCarloSweepSpec {
  std::size_t param_index = 0;
  std::string param_name;
  std::vector<double> points;
};

/// Bound FROM ... JOIN clause of a MONTECARLO statement: both VG tables
/// instantiated from the catalog, the key columns, and the join resolved
/// against their schemas (key slots, common key type, concatenated
/// output schema). Every name/type/duplicate error surfaced at bind time
/// with the pdb resolver's text, so execution never re-diagnoses.
struct MonteCarloJoinSpec {
  pdb::VGTableFunctionPtr left;
  pdb::VGTableFunctionPtr right;
  pdb::JoinSpec keys;
  pdb::ResolvedJoin resolved;
  std::string description;  ///< "users AS u JOIN items AS i ON u.a = i.b"
};

/// MONTECARLO statement: run the scenario's row program through the
/// possible-worlds fold — the direct pdb::FoldPointWorldSpans or (USING
/// LAYERED) the layered prototype engine — at a single valuation, or
/// with `over` at every point of the swept parameter. With `join`, the
/// statement instead folds the world-partitioned equi-join of two
/// uncertain relations (pdb::FoldJoinedVGColumns) — every joined tuple
/// of every sampled world — and the row program is not consulted.
struct MonteCarloSpec {
  bool layered = false;
  std::optional<MonteCarloJoinSpec> join;
  std::optional<MonteCarloSweepSpec> over;
};

struct BoundScript {
  Scenario scenario;
  std::shared_ptr<const RowProgram> program;
  std::optional<OptimizeSpec> optimize;
  std::optional<GraphSpec> graph;
  std::optional<BoundChain> chain;
  std::optional<MonteCarloSpec> montecarlo;
};

/// Rewrites `bound` to execute interpreted-only: strips the compiled
/// program and rebuilds the scenario's column SimFunctions on the
/// stripped copy. Tests and benches apply it before
/// ScriptRunner::RunBound or RunChainScenario to get the interpreted
/// reference twin of a compiled plan.
void UseInterpretedExpressions(BoundScript& bound);

class Binder {
 public:
  explicit Binder(const ModelRegistry* registry) : registry_(registry) {}

  Result<BoundScript> Bind(const Script& script);

 private:
  const ModelRegistry* registry_;
};

/// Convenience: parse + bind in one call.
Result<BoundScript> ParseAndBind(const std::string& text,
                                 const ModelRegistry& registry);

}  // namespace jigsaw::sql
