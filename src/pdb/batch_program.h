#pragma once

/// \file batch_program.h
/// The expression batch compiler: lowers a bound row program (a list of
/// Expr trees over numeric columns, aliases, parameters and model calls)
/// into a flat register-based BatchProgram whose ops evaluate whole
/// sample spans over contiguous double buffers.
///
///  * literals / column refs / alias refs / param refs become broadcast
///    (or per-lane) register loads;
///  * binary arithmetic and comparisons become span kernels;
///  * AND / OR / CASE compile to mask registers so the interpreter's
///    short-circuit rules hold per lane (untaken operands are neither
///    evaluated nor allowed to raise);
///  * model calls dispatch through BlackBox::EvalBatch when their
///    arguments are lane-uniform, and otherwise re-derive the exact
///    per-sample (seed, call_site, stream_salt) stream the interpreter
///    would have used. A lane-uniform call over a fingerprint (samples
///    [0, m) of seeds that carry a DrawMemo) reads the memo first.
///
/// The compiled program is **bit-identical** to the Expr::Eval walk: the
/// same doubles, the same draws, and — on failure — the same
/// ExecutionError the serial interpreter would have reported first (the
/// lowest erroring lane wins, and within a lane the first error in
/// evaluation order). Expressions the compiler cannot prove equivalent
/// (string-valued subtrees, INT literals with 64-bit arithmetic
/// semantics) fail to compile with a human-readable reason so callers
/// can fall back to the interpreter transparently.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "models/black_box.h"
#include "pdb/expr.h"
#include "random/seed_vector.h"
#include "util/status.h"

namespace jigsaw::pdb {

/// Opcodes of the flat batch VM. Value ops read/write double registers
/// (with a per-lane null flag); mask ops maintain the active-lane sets
/// that implement short-circuit semantics.
enum class BatchOpCode : std::uint8_t {
  kLoadConst,      ///< dst <- imm (broadcast)
  kLoadNull,       ///< dst <- NULL
  kLoadParam,      ///< dst <- params[a] or the per-lane override span
  kAdd,            ///< dst <- a + b (nulls propagate)
  kSub,            ///< dst <- a - b
  kMul,            ///< dst <- a * b
  kDiv,            ///< dst <- a / b; lane error when b == 0
  kCmpLt,          ///< dst <- bool(a < b) via Value::Compare ordering
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kCmpEq,
  kCmpNe,
  kNot,            ///< dst <- !AsBool(a), null propagates
  kBoolCast,       ///< dst <- AsBool(a) as 0/1, null propagates
  kCopy,           ///< dst <- a (value + null flag)
  kLogicSeed,      ///< dst.null <- a.null; dst.value <- imm (AND/OR seed)
  kMaskCopy,       ///< mask dst <- mask a (or all-active)
  kMaskWhereTrue,  ///< mask dst <- mask a && !null(b) && AsBool(b)
  kMaskWhereFalse, ///< mask dst <- mask a && !null(b) && !AsBool(b)
  kMaskAndNot,     ///< mask dst <- mask a && !mask b
  kCheckSeeds,     ///< lane error when the context has no seed vector
  kCheckArgNumeric,///< lane error when model argument a is NULL
  kModelCall,      ///< dst <- model(args...) under per-lane streams
  kCheckNumeric,   ///< lane error when a is NULL (output column check)
};

inline constexpr std::uint32_t kBatchNoMask = 0xffffffffu;

struct BatchOp {
  BatchOpCode code = BatchOpCode::kLoadConst;
  std::uint32_t dst = 0;  ///< value register, or mask register for mask ops
  std::uint32_t a = 0;    ///< operand register / parent mask / param index
  std::uint32_t b = 0;    ///< second operand register / mask
  std::uint32_t mask = kBatchNoMask;  ///< active-lane mask (kBatchNoMask = all)
  double imm = 0.0;
  std::uint64_t call_site = 0;
  BlackBoxPtr model;
  std::vector<std::uint32_t> args;  ///< model-call argument registers
  /// True when no model call feeds the arguments (same values per lane
  /// unless a referenced parameter carries a per-lane override).
  bool uniform_args = false;
  std::vector<std::size_t> arg_params;  ///< parameter indices args read
  /// Pre-formatted ExecutionError message for error-raising ops; matches
  /// the interpreter's message for the same failure.
  std::string error;
};

/// Reusable per-thread evaluation buffers. Sized lazily by Run*; keep one
/// per worker (e.g. thread_local) to avoid per-call allocation.
class BatchScratch {
 public:
  BatchScratch() = default;

 private:
  friend class BatchProgram;
  std::vector<double> values;        ///< num_regs x n
  std::vector<std::uint8_t> nulls;   ///< num_regs x n
  std::vector<std::uint8_t> masks;   ///< num_masks x n
  std::vector<std::uint32_t> err;    ///< per lane: first erroring op index
  std::vector<double> argv;          ///< model-call argument gather
  std::vector<std::uint64_t> draw_key;  ///< model-call draw key
  bool any_error = false;
};

class BatchProgram {
 public:
  /// Per-lane override of one scenario parameter (the chain executor
  /// feeds each instance's state through the chain parameter).
  struct LaneParam {
    std::size_t param_index = 0;
    std::span<const double> values;  ///< one value per lane
  };

  /// Evaluation inputs shared by all lanes; lane i of a Run call is
  /// sample `sample_begin + i` under `seeds`, exactly like the
  /// interpreter's EvalContext.
  struct Context {
    std::span<const double> params;
    std::span<const LaneParam> lane_params;
    std::size_t sample_begin = 0;
    const SeedVector* seeds = nullptr;
    std::uint64_t stream_salt = 0;
  };

  std::size_t num_columns() const { return columns_.size(); }
  const std::string& column_name(std::size_t j) const {
    return columns_[j].name;
  }
  std::size_t num_ops() const { return ops_.size(); }

  /// Evaluates every output column for `n` consecutive samples; `out[j]`
  /// receives column j (n doubles). Mirrors RowProgram::EvalAllColumns:
  /// each column is checked numeric (non-NULL) before the next column's
  /// ops run.
  Status RunAll(const Context& ctx, std::size_t n,
                std::span<double* const> out, BatchScratch& scratch) const;

  /// Evaluates output column `j` (running columns 0..j, checking only
  /// column j numeric) for `n` consecutive samples. Mirrors
  /// RowProgram::EvalColumn.
  Status RunColumn(std::size_t j, const Context& ctx, std::size_t n,
                   std::span<double> out, BatchScratch& scratch) const;

 private:
  friend class BatchCompiler;

  struct ColumnInfo {
    std::uint32_t reg = 0;     ///< register holding the column value
    std::size_t end_op = 0;    ///< ops [0, end_op) produce-and-check it
    std::string name;
  };

  /// Runs ops [0, end_op). With run_all_checks, every kCheckNumeric op
  /// executes (EvalAllColumns semantics); otherwise only the final op
  /// (column j's own check) does.
  Status Exec(const Context& ctx, std::size_t n, std::size_t end_op,
              bool run_all_checks, BatchScratch& scratch) const;

  std::vector<BatchOp> ops_;
  std::vector<ColumnInfo> columns_;
  std::uint32_t num_regs_ = 0;
  std::uint32_t num_masks_ = 0;
};

using BatchProgramPtr = std::shared_ptr<const BatchProgram>;

/// Compiles a row program (inner subquery columns first, then outer
/// columns that may reference them and each other) into a BatchProgram.
/// On failure the status message is the fallback reason — the expression
/// is valid for the interpreter but has no bit-identical batch form.
Result<BatchProgramPtr> CompileBatchProgram(
    std::span<const ExprPtr> inner_exprs, std::span<const ExprPtr> outer_exprs,
    std::span<const std::string> outer_names);

}  // namespace jigsaw::pdb
