#include "pdb/expr.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw::pdb {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

namespace {

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : v_(std::move(v)) {}
  Result<Value> Eval(EvalContext&) const override { return v_; }
  std::string ToString() const override { return v_.ToString(); }
  void Accept(ExprVisitor& v) const override { v.VisitLiteral(v_); }

 private:
  Value v_;
};

class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(std::size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}

  Result<Value> Eval(EvalContext& ctx) const override {
    if (ctx.row == nullptr || index_ >= ctx.row->size()) {
      return Status::ExecutionError("column '" + name_ +
                                    "' unavailable in this context");
    }
    return (*ctx.row)[index_];
  }
  std::string ToString() const override { return name_; }
  void Accept(ExprVisitor& v) const override {
    v.VisitColumnRef(index_, name_);
  }

 private:
  std::size_t index_;
  std::string name_;
};

class AliasRefExpr final : public Expr {
 public:
  AliasRefExpr(std::size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}

  Result<Value> Eval(EvalContext& ctx) const override {
    if (ctx.aliases == nullptr || index_ >= ctx.aliases->size()) {
      return Status::ExecutionError("alias '" + name_ +
                                    "' not yet computed");
    }
    return (*ctx.aliases)[index_];
  }
  std::string ToString() const override { return name_; }
  void Accept(ExprVisitor& v) const override {
    v.VisitAliasRef(index_, name_);
  }

 private:
  std::size_t index_;
  std::string name_;
};

class ParamRefExpr final : public Expr {
 public:
  ParamRefExpr(std::size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}

  Result<Value> Eval(EvalContext& ctx) const override {
    if (index_ >= ctx.params.size()) {
      return Status::ExecutionError("parameter '@" + name_ +
                                    "' not bound at execution");
    }
    return Value(ctx.params[index_]);
  }
  std::string ToString() const override { return "@" + name_; }
  void Accept(ExprVisitor& v) const override {
    v.VisitParamRef(index_, name_);
  }

 private:
  std::size_t index_;
  std::string name_;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Result<Value> Eval(EvalContext& ctx) const override {
    // Short-circuit logic ops.
    if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
      JIGSAW_ASSIGN_OR_RETURN(Value l, left_->Eval(ctx));
      if (l.is_null()) return Value::Null();
      const bool lb = l.AsBool();
      if (op_ == BinaryOp::kAnd && !lb) return Value(false);
      if (op_ == BinaryOp::kOr && lb) return Value(true);
      JIGSAW_ASSIGN_OR_RETURN(Value r, right_->Eval(ctx));
      if (r.is_null()) return Value::Null();
      return Value(r.AsBool());
    }
    JIGSAW_ASSIGN_OR_RETURN(Value l, left_->Eval(ctx));
    JIGSAW_ASSIGN_OR_RETURN(Value r, right_->Eval(ctx));
    switch (op_) {
      case BinaryOp::kAdd:
        return Add(l, r);
      case BinaryOp::kSub:
        return Subtract(l, r);
      case BinaryOp::kMul:
        return Multiply(l, r);
      case BinaryOp::kDiv:
        return Divide(l, r);
      default:
        break;
    }
    if (l.is_null() || r.is_null()) return Value::Null();
    const int cmp = Value::Compare(l, r);
    switch (op_) {
      case BinaryOp::kLt:
        return Value(cmp < 0);
      case BinaryOp::kLe:
        return Value(cmp <= 0);
      case BinaryOp::kGt:
        return Value(cmp > 0);
      case BinaryOp::kGe:
        return Value(cmp >= 0);
      case BinaryOp::kEq:
        return Value(cmp == 0);
      case BinaryOp::kNe:
        return Value(cmp != 0);
      default:
        return Status::Internal("unhandled binary op");
    }
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + " " + BinaryOpName(op_) + " " +
           right_->ToString() + ")";
  }

  void Accept(ExprVisitor& v) const override {
    v.VisitBinary(op_, *left_, *right_);
  }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}

  Result<Value> Eval(EvalContext& ctx) const override {
    JIGSAW_ASSIGN_OR_RETURN(Value v, operand_->Eval(ctx));
    if (v.is_null()) return Value::Null();
    return Value(!v.AsBool());
  }
  std::string ToString() const override {
    return "NOT " + operand_->ToString();
  }
  void Accept(ExprVisitor& v) const override { v.VisitNot(*operand_); }

 private:
  ExprPtr operand_;
};

class CaseExpr final : public Expr {
 public:
  CaseExpr(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
           ExprPtr else_expr)
      : branches_(std::move(branches)), else_(std::move(else_expr)) {}

  Result<Value> Eval(EvalContext& ctx) const override {
    for (const auto& [cond, result] : branches_) {
      JIGSAW_ASSIGN_OR_RETURN(Value c, cond->Eval(ctx));
      if (!c.is_null() && c.AsBool()) return result->Eval(ctx);
    }
    if (else_) return else_->Eval(ctx);
    return Value::Null();
  }

  std::string ToString() const override {
    std::string out = "CASE";
    for (const auto& [cond, result] : branches_) {
      out += " WHEN " + cond->ToString() + " THEN " + result->ToString();
    }
    if (else_) out += " ELSE " + else_->ToString();
    return out + " END";
  }

  void Accept(ExprVisitor& v) const override {
    v.VisitCase(branches_, else_.get());
  }

 private:
  std::vector<std::pair<ExprPtr, ExprPtr>> branches_;
  ExprPtr else_;
};

class ModelCallExpr final : public Expr {
 public:
  ModelCallExpr(BlackBoxPtr model, std::vector<ExprPtr> args,
                std::uint64_t call_site)
      : model_(std::move(model)),
        args_(std::move(args)),
        call_site_(call_site) {}

  Result<Value> Eval(EvalContext& ctx) const override {
    if (ctx.seeds == nullptr) {
      return Status::ExecutionError(
          "stochastic expression evaluated without a seed vector");
    }
    std::vector<double> argv;
    argv.reserve(args_.size());
    for (const auto& a : args_) {
      JIGSAW_ASSIGN_OR_RETURN(Value v, a->Eval(ctx));
      if (!v.IsNumeric()) {
        return Status::ExecutionError("non-numeric argument to " +
                                      model_->name());
      }
      argv.push_back(v.AsDouble());
    }
    RandomStream rng = ctx.seeds->StreamFor(
        ctx.sample_id, CombineSite(call_site_, ctx.stream_salt));
    return Value(model_->Eval(argv, rng));
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(args_.size());
    for (const auto& a : args_) parts.push_back(a->ToString());
    return model_->name() + "(" + Join(parts, ", ") + ")";
  }

  void Accept(ExprVisitor& v) const override {
    v.VisitModelCall(model_, args_, call_site_);
  }

 private:
  BlackBoxPtr model_;
  std::vector<ExprPtr> args_;
  std::uint64_t call_site_;
};

}  // namespace

ExprPtr MakeLiteral(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}
ExprPtr MakeColumnRef(std::size_t column_index, std::string name) {
  return std::make_shared<ColumnRefExpr>(column_index, std::move(name));
}
ExprPtr MakeAliasRef(std::size_t alias_index, std::string name) {
  return std::make_shared<AliasRefExpr>(alias_index, std::move(name));
}
ExprPtr MakeParamRef(std::size_t param_index, std::string name) {
  return std::make_shared<ParamRefExpr>(param_index, std::move(name));
}
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<BinaryExpr>(op, std::move(left), std::move(right));
}
ExprPtr MakeNot(ExprPtr operand) {
  return std::make_shared<NotExpr>(std::move(operand));
}
ExprPtr MakeCase(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                 ExprPtr else_expr) {
  return std::make_shared<CaseExpr>(std::move(branches),
                                    std::move(else_expr));
}
ExprPtr MakeModelCall(BlackBoxPtr model, std::vector<ExprPtr> args,
                      std::uint64_t call_site) {
  return std::make_shared<ModelCallExpr>(std::move(model), std::move(args),
                                         call_site);
}

}  // namespace jigsaw::pdb
