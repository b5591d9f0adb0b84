#pragma once

/// \file expr.h
/// Boxed-value expression trees — the interpreted evaluation path of the
/// mini-MCDB layer. The SQL front end compiles SELECT items into these;
/// the layered (Figure 7) engine interprets them row-at-a-time, while the
/// core engine wraps them into SimFunctions evaluated over raw doubles.
///
/// Stochastic model calls are expressions too: a ModelCallExpr draws from
/// the deterministic stream derived from (sample seed, call site), which
/// is how query-level fingerprints stay comparable across parameter
/// values (Section 3.1).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "models/black_box.h"
#include "pdb/table.h"
#include "random/seed_vector.h"
#include "util/status.h"

namespace jigsaw::pdb {

struct EvalContext {
  /// Current input row (null for table-less SELECTs).
  const Row* row = nullptr;
  /// Values of SELECT aliases already computed for this row; Figure 1's
  /// `overload` references its sibling aliases `capacity` and `demand`.
  const std::vector<Value>* aliases = nullptr;
  /// Scenario parameter valuation (positional, binder-resolved).
  std::span<const double> params;
  /// Monte Carlo sample (possible world) being evaluated.
  std::size_t sample_id = 0;
  const SeedVector* seeds = nullptr;
  /// Extra salt mixed into every stochastic call site; the Markov
  /// executor sets this per chain step so each step draws fresh (but
  /// deterministic) randomness. 0 for ordinary scenarios.
  std::uint64_t stream_salt = 0;
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;
class ExprVisitor;

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

const char* BinaryOpName(BinaryOp op);

class Expr {
 public:
  virtual ~Expr() = default;
  virtual Result<Value> Eval(EvalContext& ctx) const = 0;
  virtual std::string ToString() const = 0;

  /// Structural double-dispatch used by tree consumers that are not
  /// evaluators (the batch compiler, printers, analyzers). Each concrete
  /// node calls exactly one ExprVisitor method with its fields.
  virtual void Accept(ExprVisitor& visitor) const = 0;
};

/// One Visit method per concrete node shape. Child expressions are handed
/// back as Expr references (or ExprPtr spans) so visitors can recurse
/// without knowing the private node classes in expr.cc.
class ExprVisitor {
 public:
  virtual ~ExprVisitor() = default;

  virtual void VisitLiteral(const Value& value) = 0;
  virtual void VisitColumnRef(std::size_t index, const std::string& name) = 0;
  virtual void VisitAliasRef(std::size_t index, const std::string& name) = 0;
  virtual void VisitParamRef(std::size_t index, const std::string& name) = 0;
  virtual void VisitBinary(BinaryOp op, const Expr& left,
                           const Expr& right) = 0;
  virtual void VisitNot(const Expr& operand) = 0;
  /// `else_expr` is null when the CASE has no ELSE branch.
  virtual void VisitCase(
      const std::vector<std::pair<ExprPtr, ExprPtr>>& branches,
      const Expr* else_expr) = 0;
  virtual void VisitModelCall(const BlackBoxPtr& model,
                              const std::vector<ExprPtr>& args,
                              std::uint64_t call_site) = 0;
};

/// Constructors.
ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::size_t column_index, std::string name);
ExprPtr MakeAliasRef(std::size_t alias_index, std::string name);
ExprPtr MakeParamRef(std::size_t param_index, std::string name);
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeNot(ExprPtr operand);
/// CASE WHEN c1 THEN v1 [WHEN c2 THEN v2 ...] [ELSE e] END.
ExprPtr MakeCase(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                 ExprPtr else_expr);
/// Stochastic black-box invocation; `call_site` must be unique per lexical
/// occurrence within a scenario.
ExprPtr MakeModelCall(BlackBoxPtr model, std::vector<ExprPtr> args,
                      std::uint64_t call_site);

}  // namespace jigsaw::pdb
