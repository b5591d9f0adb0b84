#include "pdb/batch_program.h"

#include <algorithm>

#include "random/draw_memo.h"
#include "util/logging.h"

namespace jigsaw::pdb {

namespace {

constexpr std::uint32_t kNoError = 0xffffffffu;

/// Sorted-unique union of two parameter-index sets (both tiny).
std::vector<std::size_t> UnionParams(const std::vector<std::size_t>& a,
                                     const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Walks Expr trees via ExprVisitor and emits BatchOps. Register ids are
/// SSA-ish (every node writes a fresh register except refs, which resolve
/// to the producing register directly), so alias/column references are
/// free and the interpreter's share-the-sibling-draws semantics falls out
/// of register reuse.
class BatchCompiler final : public ExprVisitor {
 public:
  Result<BatchProgramPtr> Compile(std::span<const ExprPtr> inner_exprs,
                                  std::span<const ExprPtr> outer_exprs,
                                  std::span<const std::string> outer_names) {
    JIGSAW_CHECK(outer_exprs.size() == outer_names.size());
    auto program = std::make_shared<BatchProgram>();
    program_ = program.get();

    for (const auto& e : inner_exprs) {
      JIGSAW_ASSIGN_OR_RETURN(std::uint32_t reg, Gen(*e, kBatchNoMask));
      inner_regs_.push_back(reg);
    }
    for (std::size_t j = 0; j < outer_exprs.size(); ++j) {
      JIGSAW_ASSIGN_OR_RETURN(std::uint32_t reg,
                              Gen(*outer_exprs[j], kBatchNoMask));
      alias_regs_.push_back(reg);
      BatchOp check;
      check.code = BatchOpCode::kCheckNumeric;
      check.a = reg;
      check.error = "column '" + outer_names[j] + "' is not numeric";
      program_->ops_.push_back(std::move(check));
      BatchProgram::ColumnInfo info;
      info.reg = reg;
      info.end_op = program_->ops_.size();
      info.name = outer_names[j];
      program_->columns_.push_back(std::move(info));
    }
    program_->num_regs_ = next_reg_;
    program_->num_masks_ = next_mask_;
    return BatchProgramPtr(std::move(program));
  }

 private:
  // -- visitor dispatch -----------------------------------------------------
  // Each Visit method services the innermost pending Gen call: it reads
  // mask_ and must set result_ or status_.

  Result<std::uint32_t> Gen(const Expr& expr, std::uint32_t mask) {
    const std::uint32_t saved_mask = mask_;
    mask_ = mask;
    expr.Accept(*this);
    mask_ = saved_mask;
    if (!status_.ok()) return status_;
    return result_;
  }

  void VisitLiteral(const Value& value) override {
    switch (value.type()) {
      case ValueType::kNull:
        result_ = EmitLoadNull();
        return;
      case ValueType::kDouble:
      case ValueType::kBool:
        result_ = EmitLoadConst(value.AsDouble());
        return;
      case ValueType::kInt:
        // INT+INT runs 64-bit integer arithmetic in the interpreter; a
        // double register cannot reproduce it past 2^53.
        status_ = Status::Unimplemented(
            "INT literal " + value.ToString() +
            " has 64-bit integer arithmetic semantics");
        return;
      case ValueType::kString:
        status_ = Status::Unimplemented("string literal '" +
                                        value.ToString() +
                                        "' has no numeric batch form");
        return;
    }
    status_ = Status::Internal("unhandled literal type");
  }

  void VisitColumnRef(std::size_t index, const std::string& name) override {
    if (index >= inner_regs_.size()) {
      status_ = Status::Unimplemented("column '" + name +
                                      "' resolves outside the row program");
      return;
    }
    result_ = inner_regs_[index];
  }

  void VisitAliasRef(std::size_t index, const std::string& name) override {
    if (index >= alias_regs_.size()) {
      status_ = Status::Unimplemented("alias '" + name +
                                      "' is not an earlier result column");
      return;
    }
    result_ = alias_regs_[index];
  }

  void VisitParamRef(std::size_t index, const std::string& name) override {
    BatchOp op;
    op.code = BatchOpCode::kLoadParam;
    op.dst = NewReg();
    op.a = static_cast<std::uint32_t>(index);
    op.mask = mask_;
    op.error = "parameter '@" + name + "' not bound at execution";
    const std::uint32_t dst = op.dst;
    program_->ops_.push_back(std::move(op));
    SetRegMeta(dst, {index}, /*has_model=*/false);
    result_ = dst;
  }

  void VisitBinary(BinaryOp op, const Expr& left,
                   const Expr& right) override {
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      GenLogic(op == BinaryOp::kAnd, left, right);
      return;
    }
    auto l = Gen(left, mask_);
    if (!l.ok()) {
      status_ = l.status();
      return;
    }
    auto r = Gen(right, mask_);
    if (!r.ok()) {
      status_ = r.status();
      return;
    }
    BatchOpCode code;
    switch (op) {
      case BinaryOp::kAdd:
        code = BatchOpCode::kAdd;
        break;
      case BinaryOp::kSub:
        code = BatchOpCode::kSub;
        break;
      case BinaryOp::kMul:
        code = BatchOpCode::kMul;
        break;
      case BinaryOp::kDiv:
        code = BatchOpCode::kDiv;
        break;
      case BinaryOp::kLt:
        code = BatchOpCode::kCmpLt;
        break;
      case BinaryOp::kLe:
        code = BatchOpCode::kCmpLe;
        break;
      case BinaryOp::kGt:
        code = BatchOpCode::kCmpGt;
        break;
      case BinaryOp::kGe:
        code = BatchOpCode::kCmpGe;
        break;
      case BinaryOp::kEq:
        code = BatchOpCode::kCmpEq;
        break;
      case BinaryOp::kNe:
        code = BatchOpCode::kCmpNe;
        break;
      default:
        status_ = Status::Internal("unhandled binary op");
        return;
    }
    result_ = EmitBinary(code, l.value(), r.value());
  }

  void VisitNot(const Expr& operand) override {
    auto a = Gen(operand, mask_);
    if (!a.ok()) {
      status_ = a.status();
      return;
    }
    result_ = EmitUnary(BatchOpCode::kNot, a.value());
  }

  void VisitCase(const std::vector<std::pair<ExprPtr, ExprPtr>>& branches,
                 const Expr* else_expr) override {
    const std::uint32_t outer_mask = mask_;
    // Default NULL so lanes where no branch matches reproduce the
    // interpreter's CASE-without-ELSE result.
    const std::uint32_t dst = EmitLoadNull();
    // Working mask of lanes still looking for a matching WHEN.
    const std::uint32_t remaining = NewMask();
    EmitMaskOp(BatchOpCode::kMaskCopy, remaining, outer_mask, 0);
    std::vector<std::size_t> params;
    bool has_model = false;
    for (const auto& [cond, value] : branches) {
      auto c = Gen(*cond, remaining);
      if (!c.ok()) {
        status_ = c.status();
        return;
      }
      const std::uint32_t taken = NewMask();
      EmitMaskOp(BatchOpCode::kMaskWhereTrue, taken, remaining, c.value());
      EmitMaskOp(BatchOpCode::kMaskAndNot, remaining, remaining, taken);
      auto v = Gen(*value, taken);
      if (!v.ok()) {
        status_ = v.status();
        return;
      }
      EmitCopy(dst, v.value(), taken);
      params = UnionParams(params, RegParams(c.value()));
      params = UnionParams(params, RegParams(v.value()));
      has_model = has_model || RegHasModel(c.value()) ||
                  RegHasModel(v.value());
    }
    if (else_expr != nullptr) {
      auto e = Gen(*else_expr, remaining);
      if (!e.ok()) {
        status_ = e.status();
        return;
      }
      EmitCopy(dst, e.value(), remaining);
      params = UnionParams(params, RegParams(e.value()));
      has_model = has_model || RegHasModel(e.value());
    }
    SetRegMeta(dst, std::move(params), has_model);
    result_ = dst;
  }

  void VisitModelCall(const BlackBoxPtr& model,
                      const std::vector<ExprPtr>& args,
                      std::uint64_t call_site) override {
    // Interpreter order: ModelCallExpr checks the seed vector before any
    // argument evaluates, and coerces (numeric-checks) each argument
    // before the next one runs — the emitted check ops keep that order
    // so a lane hitting several failures reports the interpreter's.
    {
      BatchOp seeds_check;
      seeds_check.code = BatchOpCode::kCheckSeeds;
      seeds_check.mask = mask_;
      seeds_check.error =
          "stochastic expression evaluated without a seed vector";
      program_->ops_.push_back(std::move(seeds_check));
    }
    BatchOp op;
    op.code = BatchOpCode::kModelCall;
    op.model = model;
    op.call_site = call_site;
    op.mask = mask_;
    op.uniform_args = true;
    for (const auto& arg : args) {
      auto a = Gen(*arg, mask_);
      if (!a.ok()) {
        status_ = a.status();
        return;
      }
      BatchOp arg_check;
      arg_check.code = BatchOpCode::kCheckArgNumeric;
      arg_check.a = a.value();
      arg_check.mask = mask_;
      arg_check.error = "non-numeric argument to " + model->name();
      program_->ops_.push_back(std::move(arg_check));
      op.args.push_back(a.value());
      op.arg_params = UnionParams(op.arg_params, RegParams(a.value()));
      op.uniform_args = op.uniform_args && !RegHasModel(a.value());
    }
    op.dst = NewReg();
    const std::uint32_t dst = op.dst;
    auto arg_params = op.arg_params;
    program_->ops_.push_back(std::move(op));
    SetRegMeta(dst, std::move(arg_params), /*has_model=*/true);
    result_ = dst;
  }

  // -- AND / OR -------------------------------------------------------------
  //
  //   dst seeded with the short-circuit value (NULL propagated from the
  //   left), then the right operand evaluates only on the lanes where the
  //   interpreter would have reached it, and overwrites dst there.

  void GenLogic(bool is_and, const Expr& left, const Expr& right) {
    auto l = Gen(left, mask_);
    if (!l.ok()) {
      status_ = l.status();
      return;
    }
    BatchOp seed;
    seed.code = BatchOpCode::kLogicSeed;
    seed.dst = NewReg();
    seed.a = l.value();
    seed.mask = mask_;
    seed.imm = is_and ? 0.0 : 1.0;  // AND: false wins; OR: true wins
    const std::uint32_t dst = seed.dst;
    program_->ops_.push_back(std::move(seed));

    const std::uint32_t continue_mask = NewMask();
    EmitMaskOp(is_and ? BatchOpCode::kMaskWhereTrue
                      : BatchOpCode::kMaskWhereFalse,
               continue_mask, mask_, l.value());
    auto r = Gen(right, continue_mask);
    if (!r.ok()) {
      status_ = r.status();
      return;
    }
    BatchOp cast;
    cast.code = BatchOpCode::kBoolCast;
    cast.dst = dst;
    cast.a = r.value();
    cast.mask = continue_mask;
    program_->ops_.push_back(std::move(cast));
    SetRegMeta(dst, UnionParams(RegParams(l.value()), RegParams(r.value())),
               RegHasModel(l.value()) || RegHasModel(r.value()));
    result_ = dst;
  }

  // -- emission helpers -----------------------------------------------------

  std::uint32_t NewReg() { return next_reg_++; }
  std::uint32_t NewMask() { return next_mask_++; }
  std::uint32_t op_dst_back() const { return program_->ops_.back().dst; }

  std::uint32_t EmitLoadConst(double value) {
    BatchOp op;
    op.code = BatchOpCode::kLoadConst;
    op.dst = NewReg();
    op.imm = value;
    op.mask = mask_;
    program_->ops_.push_back(std::move(op));
    return op_dst_back();
  }

  std::uint32_t EmitLoadNull() {
    BatchOp op;
    op.code = BatchOpCode::kLoadNull;
    op.dst = NewReg();
    op.mask = mask_;
    program_->ops_.push_back(std::move(op));
    return op_dst_back();
  }

  std::uint32_t EmitBinary(BatchOpCode code, std::uint32_t a,
                           std::uint32_t b) {
    BatchOp op;
    op.code = code;
    op.dst = NewReg();
    op.a = a;
    op.b = b;
    op.mask = mask_;
    if (code == BatchOpCode::kDiv) op.error = "division by zero";
    const std::uint32_t dst = op.dst;
    program_->ops_.push_back(std::move(op));
    SetRegMeta(dst, UnionParams(RegParams(a), RegParams(b)),
               RegHasModel(a) || RegHasModel(b));
    return dst;
  }

  std::uint32_t EmitUnary(BatchOpCode code, std::uint32_t a) {
    BatchOp op;
    op.code = code;
    op.dst = NewReg();
    op.a = a;
    op.mask = mask_;
    const std::uint32_t dst = op.dst;
    program_->ops_.push_back(std::move(op));
    SetRegMeta(dst, RegParams(a), RegHasModel(a));
    return dst;
  }

  void EmitCopy(std::uint32_t dst, std::uint32_t src, std::uint32_t mask) {
    BatchOp op;
    op.code = BatchOpCode::kCopy;
    op.dst = dst;
    op.a = src;
    op.mask = mask;
    program_->ops_.push_back(std::move(op));
  }

  void EmitMaskOp(BatchOpCode code, std::uint32_t dst, std::uint32_t a,
                  std::uint32_t b) {
    BatchOp op;
    op.code = code;
    op.dst = dst;
    op.a = a;
    op.b = b;
    program_->ops_.push_back(std::move(op));
  }

  // -- per-register metadata (drives the EvalBatch fast path) ---------------

  void SetRegMeta(std::uint32_t reg, std::vector<std::size_t> params,
                  bool has_model) {
    reg_params_.resize(std::max<std::size_t>(reg_params_.size(), reg + 1));
    reg_has_model_.resize(
        std::max<std::size_t>(reg_has_model_.size(), reg + 1));
    reg_params_[reg] = std::move(params);
    reg_has_model_[reg] = has_model;
  }

  const std::vector<std::size_t>& RegParams(std::uint32_t reg) {
    reg_params_.resize(std::max<std::size_t>(reg_params_.size(), reg + 1));
    return reg_params_[reg];
  }

  bool RegHasModel(std::uint32_t reg) {
    reg_has_model_.resize(
        std::max<std::size_t>(reg_has_model_.size(), reg + 1));
    return reg_has_model_[reg] != 0;
  }

  BatchProgram* program_ = nullptr;
  std::uint32_t next_reg_ = 0;
  std::uint32_t next_mask_ = 0;
  std::uint32_t mask_ = kBatchNoMask;
  std::uint32_t result_ = 0;
  Status status_ = Status::OK();
  std::vector<std::uint32_t> inner_regs_;
  std::vector<std::uint32_t> alias_regs_;
  std::vector<std::vector<std::size_t>> reg_params_;
  std::vector<std::uint8_t> reg_has_model_;
};

Result<BatchProgramPtr> CompileBatchProgram(
    std::span<const ExprPtr> inner_exprs, std::span<const ExprPtr> outer_exprs,
    std::span<const std::string> outer_names) {
  BatchCompiler compiler;
  return compiler.Compile(inner_exprs, outer_exprs, outer_names);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Status BatchProgram::Exec(const Context& ctx, std::size_t n,
                          std::size_t end_op, bool run_all_checks,
                          BatchScratch& s) const {
  if (n == 0) return Status::OK();
  s.values.resize(static_cast<std::size_t>(num_regs_) * n);
  s.nulls.resize(static_cast<std::size_t>(num_regs_) * n);
  s.masks.resize(static_cast<std::size_t>(num_masks_) * n);
  s.err.assign(n, kNoError);
  s.any_error = false;

  auto val = [&](std::uint32_t reg) { return s.values.data() + reg * n; };
  auto nul = [&](std::uint32_t reg) { return s.nulls.data() + reg * n; };
  auto msk = [&](std::uint32_t m) { return s.masks.data() + m * n; };

  for (std::size_t i = 0; i < end_op; ++i) {
    const BatchOp& op = ops_[i];
    if (op.code == BatchOpCode::kCheckNumeric && !run_all_checks &&
        i + 1 != end_op) {
      continue;  // intermediate column: EvalColumn never checks it
    }

    // Runs `body(lane)` for every lane the op may touch: masked-out and
    // already-errored lanes are skipped, matching the interpreter (it
    // never reaches this op for those samples). The mask-free, error-free
    // common case is a branchless span loop.
    auto for_active = [&](auto&& body) {
      if (op.mask == kBatchNoMask && !s.any_error) {
        for (std::size_t l = 0; l < n; ++l) body(l);
        return;
      }
      const std::uint8_t* m =
          op.mask == kBatchNoMask ? nullptr : msk(op.mask);
      for (std::size_t l = 0; l < n; ++l) {
        if (s.err[l] == kNoError && (m == nullptr || m[l] != 0)) body(l);
      }
    };
    auto raise = [&](std::size_t lane) {
      if (s.err[lane] == kNoError) {
        s.err[lane] = static_cast<std::uint32_t>(i);
        s.any_error = true;
      }
    };

    switch (op.code) {
      case BatchOpCode::kLoadConst: {
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for_active([&](std::size_t l) {
          d[l] = op.imm;
          dn[l] = 0;
        });
        break;
      }
      case BatchOpCode::kLoadNull: {
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for_active([&](std::size_t l) {
          d[l] = 0.0;
          dn[l] = 1;
        });
        break;
      }
      case BatchOpCode::kLoadParam: {
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        const LaneParam* lane_override = nullptr;
        for (const LaneParam& lp : ctx.lane_params) {
          if (lp.param_index == op.a) lane_override = &lp;
        }
        if (lane_override != nullptr) {
          JIGSAW_DCHECK(lane_override->values.size() >= n);
          const double* src = lane_override->values.data();
          for_active([&](std::size_t l) {
            d[l] = src[l];
            dn[l] = 0;
          });
        } else if (op.a >= ctx.params.size()) {
          for_active([&](std::size_t l) { raise(l); });
        } else {
          const double v = ctx.params[op.a];
          for_active([&](std::size_t l) {
            d[l] = v;
            dn[l] = 0;
          });
        }
        break;
      }
      case BatchOpCode::kAdd:
      case BatchOpCode::kSub:
      case BatchOpCode::kMul: {
        const double* x = val(op.a);
        const double* y = val(op.b);
        const std::uint8_t* xn = nul(op.a);
        const std::uint8_t* yn = nul(op.b);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        const BatchOpCode c = op.code;
        for_active([&](std::size_t l) {
          dn[l] = xn[l] | yn[l];
          d[l] = c == BatchOpCode::kAdd   ? x[l] + y[l]
                 : c == BatchOpCode::kSub ? x[l] - y[l]
                                          : x[l] * y[l];
        });
        break;
      }
      case BatchOpCode::kDiv: {
        const double* x = val(op.a);
        const double* y = val(op.b);
        const std::uint8_t* xn = nul(op.a);
        const std::uint8_t* yn = nul(op.b);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for_active([&](std::size_t l) {
          if (xn[l] | yn[l]) {
            dn[l] = 1;
            d[l] = 0.0;
          } else if (y[l] == 0.0) {
            raise(l);
          } else {
            dn[l] = 0;
            d[l] = x[l] / y[l];
          }
        });
        break;
      }
      case BatchOpCode::kCmpLt:
      case BatchOpCode::kCmpLe:
      case BatchOpCode::kCmpGt:
      case BatchOpCode::kCmpGe:
      case BatchOpCode::kCmpEq:
      case BatchOpCode::kCmpNe: {
        const double* x = val(op.a);
        const double* y = val(op.b);
        const std::uint8_t* xn = nul(op.a);
        const std::uint8_t* yn = nul(op.b);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        const BatchOpCode c = op.code;
        for_active([&](std::size_t l) {
          dn[l] = xn[l] | yn[l];
          // Value::Compare's ordering exactly (NaN compares equal).
          const int cmp = x[l] < y[l] ? -1 : (x[l] > y[l] ? 1 : 0);
          bool r = false;
          switch (c) {
            case BatchOpCode::kCmpLt:
              r = cmp < 0;
              break;
            case BatchOpCode::kCmpLe:
              r = cmp <= 0;
              break;
            case BatchOpCode::kCmpGt:
              r = cmp > 0;
              break;
            case BatchOpCode::kCmpGe:
              r = cmp >= 0;
              break;
            case BatchOpCode::kCmpEq:
              r = cmp == 0;
              break;
            default:
              r = cmp != 0;
              break;
          }
          d[l] = r ? 1.0 : 0.0;
        });
        break;
      }
      case BatchOpCode::kNot: {
        const double* x = val(op.a);
        const std::uint8_t* xn = nul(op.a);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for_active([&](std::size_t l) {
          dn[l] = xn[l];
          d[l] = x[l] == 0.0 ? 1.0 : 0.0;
        });
        break;
      }
      case BatchOpCode::kBoolCast: {
        const double* x = val(op.a);
        const std::uint8_t* xn = nul(op.a);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for_active([&](std::size_t l) {
          dn[l] = xn[l];
          d[l] = x[l] != 0.0 ? 1.0 : 0.0;
        });
        break;
      }
      case BatchOpCode::kCopy: {
        const double* x = val(op.a);
        const std::uint8_t* xn = nul(op.a);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for_active([&](std::size_t l) {
          dn[l] = xn[l];
          d[l] = x[l];
        });
        break;
      }
      case BatchOpCode::kLogicSeed: {
        const std::uint8_t* xn = nul(op.a);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for_active([&](std::size_t l) {
          dn[l] = xn[l];
          d[l] = op.imm;
        });
        break;
      }
      case BatchOpCode::kMaskCopy: {
        std::uint8_t* d = msk(op.dst);
        if (op.a == kBatchNoMask) {
          std::fill(d, d + n, std::uint8_t{1});
        } else {
          const std::uint8_t* src = msk(op.a);
          std::copy(src, src + n, d);
        }
        break;
      }
      case BatchOpCode::kMaskWhereTrue:
      case BatchOpCode::kMaskWhereFalse: {
        std::uint8_t* d = msk(op.dst);
        const std::uint8_t* parent =
            op.a == kBatchNoMask ? nullptr : msk(op.a);
        const double* x = val(op.b);
        const std::uint8_t* xn = nul(op.b);
        const bool want = op.code == BatchOpCode::kMaskWhereTrue;
        for (std::size_t l = 0; l < n; ++l) {
          const bool live = parent == nullptr || parent[l] != 0;
          d[l] = (live && xn[l] == 0 && (x[l] != 0.0) == want) ? 1 : 0;
        }
        break;
      }
      case BatchOpCode::kMaskAndNot: {
        std::uint8_t* d = msk(op.dst);
        const std::uint8_t* a = op.a == kBatchNoMask ? nullptr : msk(op.a);
        const std::uint8_t* b = msk(op.b);
        for (std::size_t l = 0; l < n; ++l) {
          d[l] = ((a == nullptr || a[l] != 0) && b[l] == 0) ? 1 : 0;
        }
        break;
      }
      case BatchOpCode::kCheckSeeds: {
        // Lanes that reach a stochastic call without seeds fail exactly
        // like the interpreter; masked-out lanes stay clean.
        if (ctx.seeds == nullptr) {
          for_active([&](std::size_t l) { raise(l); });
        }
        break;
      }
      case BatchOpCode::kCheckArgNumeric: {
        const std::uint8_t* xn = nul(op.a);
        for_active([&](std::size_t l) {
          if (xn[l] != 0) raise(l);
        });
        break;
      }
      case BatchOpCode::kModelCall: {
        // The preceding kCheckSeeds errored every lane that could reach
        // this op without seeds, so no active lane dereferences them;
        // the guard only covers the degenerate everything-masked case.
        if (ctx.seeds == nullptr) break;
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        const std::uint64_t site = CombineSite(op.call_site, ctx.stream_salt);
        bool lane_param_conflict = false;
        for (const LaneParam& lp : ctx.lane_params) {
          lane_param_conflict =
              lane_param_conflict ||
              std::binary_search(op.arg_params.begin(), op.arg_params.end(),
                                 lp.param_index);
        }
        if (op.mask == kBatchNoMask && !s.any_error && op.uniform_args &&
            !lane_param_conflict) {
          // Arguments are identical across lanes: one EvalBatch over the
          // whole seed span (bit-identical to per-lane InvokeSeeded by
          // the EvalBatch contract). A fingerprint's draws, samples
          // [0, m) of a runner's seeds, come from the runner's memo when
          // an earlier point drew them.
          s.argv.clear();
          for (std::uint32_t arg : op.args) s.argv.push_back(val(arg)[0]);
          const std::span<double> lanes(d, n);
          DrawMemo* memo = ctx.seeds->draw_memo();
          if (memo != nullptr && ctx.sample_begin == 0 &&
              n == memo->fingerprint_size()) {
            s.draw_key.clear();
            op.model->AppendDrawKey(s.argv, &s.draw_key);
            if (!memo->Lookup(op.model.get(), site, s.draw_key, lanes)) {
              op.model->EvalBatch(s.argv, ctx.seeds->span(0, n), site, lanes);
              memo->Stage(op.model, site, s.draw_key, lanes);
            }
          } else {
            op.model->EvalBatch(s.argv,
                                ctx.seeds->span(ctx.sample_begin, n), site,
                                lanes);
          }
          std::fill(dn, dn + n, std::uint8_t{0});
        } else {
          for_active([&](std::size_t l) {
            s.argv.clear();
            for (std::uint32_t arg : op.args) s.argv.push_back(val(arg)[l]);
            RandomStream rng =
                ctx.seeds->StreamFor(ctx.sample_begin + l, site);
            d[l] = op.model->Eval(s.argv, rng);
            dn[l] = 0;
          });
        }
        break;
      }
      case BatchOpCode::kCheckNumeric: {
        const std::uint8_t* xn = nul(op.a);
        for_active([&](std::size_t l) {
          if (xn[l] != 0) raise(l);
        });
        break;
      }
    }
  }

  if (s.any_error) {
    for (std::size_t l = 0; l < n; ++l) {
      if (s.err[l] != kNoError) {
        return Status::ExecutionError(ops_[s.err[l]].error);
      }
    }
  }
  return Status::OK();
}

Status BatchProgram::RunAll(const Context& ctx, std::size_t n,
                            std::span<double* const> out,
                            BatchScratch& scratch) const {
  JIGSAW_CHECK(out.size() == columns_.size());
  JIGSAW_RETURN_IF_ERROR(
      Exec(ctx, n, ops_.size(), /*run_all_checks=*/true, scratch));
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    const double* src = scratch.values.data() + columns_[j].reg * n;
    std::copy(src, src + n, out[j]);
  }
  return Status::OK();
}

Status BatchProgram::RunColumn(std::size_t j, const Context& ctx,
                               std::size_t n, std::span<double> out,
                               BatchScratch& scratch) const {
  JIGSAW_CHECK(j < columns_.size());
  JIGSAW_CHECK(out.size() >= n);
  JIGSAW_RETURN_IF_ERROR(Exec(ctx, n, columns_[j].end_op,
                              /*run_all_checks=*/false, scratch));
  const double* src = scratch.values.data() + columns_[j].reg * n;
  std::copy(src, src + n, out.data());
  return Status::OK();
}

}  // namespace jigsaw::pdb
