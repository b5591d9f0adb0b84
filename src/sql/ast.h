#pragma once

/// \file ast.h
/// Parse-level AST for the Jigsaw query language. The grammar covers the
/// paper's surface syntax:
///
///   DECLARE PARAMETER @p AS RANGE lo TO hi STEP BY s;
///   DECLARE PARAMETER @p AS SET (v1, v2, ...);
///   DECLARE PARAMETER @p AS CHAIN col FROM @driver : expr
///                         INITIAL VALUE v;                  -- Figure 5
///   SELECT expr AS alias, ... [FROM (SELECT ...)] INTO results;
///   OPTIMIZE SELECT @p, ... FROM results
///     WHERE MAX(EXPECT col) < 0.01 [AND ...]
///     GROUP BY p, ...
///     FOR MAX @p1, MIN @p2;                                 -- Figure 1
///   GRAPH OVER @p EXPECT col WITH style..., ...;            -- Section 2.2
///   MONTECARLO [FROM t1(args) [AS a] JOIN t2(args) [AS b] ON a.c = b.c]
///              [OVER @p [IN (v1, v2, ...) | IN lo TO hi [STEP BY s]]]
///              [USING DIRECT | LAYERED];                    -- Section 2.1

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/parameter_space.h"

namespace jigsaw::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct AstExpr;
using AstExprPtr = std::unique_ptr<AstExpr>;

enum class AstExprKind {
  kNumber,
  kString,
  kIdent,     ///< column / alias reference
  kParam,     ///< @parameter reference
  kCall,      ///< Model(args...)
  kBinary,
  kNot,
  kNegate,
  kCase,
};

struct AstExpr {
  AstExprKind kind = AstExprKind::kNumber;
  // kNumber
  double number = 0.0;
  // kString / kIdent / kParam / kCall (callee) / kBinary (operator text)
  std::string text;
  // kCall args, kBinary {lhs, rhs}, kNot/kNegate {operand},
  // kCase: pairs flattened as [when1, then1, when2, then2, ...] with
  // else_expr kept separately.
  std::vector<AstExprPtr> children;
  AstExprPtr else_expr;

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct ChainSpecAst {
  std::string column;        ///< result column chained back
  std::string driver_param;  ///< @driver
  AstExprPtr source_step;    ///< e.g. @current_week - 1
  double initial = 0.0;
};

/// RANGE and SET parse straight into the core domains they declare; the
/// binder checks them through ParameterDef::Validate.
struct DeclareStmt {
  std::string param;
  std::optional<RangeDomain> range;
  std::optional<SetDomain> set;
  std::optional<ChainSpecAst> chain;
};

struct SelectItemAst {
  AstExprPtr expr;
  std::string alias;  ///< empty -> synthesized from the expression
};

struct SelectStmt {
  std::vector<SelectItemAst> items;
  std::unique_ptr<SelectStmt> from_subquery;  ///< FROM (SELECT ...)
  std::string into_table;                     ///< INTO name ("" if absent)
};

struct ConstraintAst {
  std::string sweep_agg;  ///< MAX/MIN/AVG/SUM ("" -> MAX default)
  std::string metric;     ///< EXPECT / EXPECT_STDDEV / MEDIAN / P95 / ...
  std::string column;
  std::string cmp;        ///< < <= > >=
  double threshold = 0.0;
};

struct ObjectiveAst {
  std::string param;
  bool maximize = true;
};

struct OptimizeStmt {
  std::vector<std::string> select_params;
  std::string from_table;
  std::vector<ConstraintAst> constraints;
  std::vector<std::string> group_by;
  std::vector<ObjectiveAst> objectives;
};

struct GraphSeriesAst {
  std::string metric;
  std::string column;
  std::vector<std::string> style;  ///< WITH words, kept verbatim
};

struct GraphStmt {
  std::string x_param;
  std::vector<GraphSeriesAst> series;
};

/// OVER clause of a MONTECARLO statement: the swept parameter plus its
/// point list, parsed by the same rules as DECLARE's SET and RANGE.
/// Exactly one of `values` / `range` is set when an IN clause was
/// written; with neither, the sweep covers the parameter's declared
/// domain.
struct MonteCarloSweepAst {
  std::string param;
  std::optional<SetDomain> values;   ///< IN (v1, v2, ...)
  std::optional<RangeDomain> range;  ///< IN lo TO hi [STEP BY s]
};

/// One side of a MONTECARLO FROM ... JOIN clause: a VG (uncertain) table
/// from the catalog, its numeric constructor arguments, and the alias ON
/// columns reference it by (defaults to the table name).
struct MonteCarloTableAst {
  std::string table;
  std::vector<double> args;
  std::string alias;  ///< "" -> table name
};

/// FROM t1(...) AS a JOIN t2(...) AS b ON a.col = b.col: world-
/// partitioned equi-join of two uncertain relations. Each ON side is a
/// qualified alias.column reference, kept verbatim for the binder.
struct MonteCarloJoinAst {
  MonteCarloTableAst left;
  MonteCarloTableAst right;
  std::string on_left_alias;
  std::string on_left_column;
  std::string on_right_alias;
  std::string on_right_column;
};

/// MONTECARLO [FROM t1(...) [AS a] JOIN t2(...) [AS b] ON a.c1 = b.c2]
///            [OVER @p [IN ...]] [USING DIRECT | LAYERED]: evaluates the
/// scenario SELECT through the possible-worlds executor and reports full
/// per-column distribution summaries (Section 2.1's sampled databases,
/// as opposed to the fingerprint-reusing sweep). With an OVER clause the
/// estimate is produced at every point of the swept parameter — the
/// optimization workflow's "compare the output distribution at each
/// candidate setting" — fanning out across both points and worlds while
/// staying bit-identical to one standalone MONTECARLO per point.
struct MonteCarloStmt {
  bool layered = false;  ///< USING LAYERED routes through LayeredEngine
  std::optional<MonteCarloJoinAst> join;  ///< FROM ... JOIN ... ON ...
  std::optional<MonteCarloSweepAst> over;
};

struct Statement {
  // Exactly one is set.
  std::unique_ptr<DeclareStmt> declare;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<OptimizeStmt> optimize;
  std::unique_ptr<GraphStmt> graph;
  std::unique_ptr<MonteCarloStmt> montecarlo;
};

struct Script {
  std::vector<Statement> statements;
};

}  // namespace jigsaw::sql
