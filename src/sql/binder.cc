#include "sql/binder.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "sql/parser.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw::sql {

namespace {

using pdb::BinaryOp;
using pdb::EvalContext;
using pdb::ExprPtr;
using pdb::Value;

Result<BinaryOp> BinaryOpFromText(const std::string& op) {
  if (op == "+") return BinaryOp::kAdd;
  if (op == "-") return BinaryOp::kSub;
  if (op == "*") return BinaryOp::kMul;
  if (op == "/") return BinaryOp::kDiv;
  if (op == "<") return BinaryOp::kLt;
  if (op == "<=") return BinaryOp::kLe;
  if (op == ">") return BinaryOp::kGt;
  if (op == ">=") return BinaryOp::kGe;
  if (op == "=") return BinaryOp::kEq;
  if (op == "<>") return BinaryOp::kNe;
  if (EqualsIgnoreCase(op, "AND")) return BinaryOp::kAnd;
  if (EqualsIgnoreCase(op, "OR")) return BinaryOp::kOr;
  return Status::BindError("unknown operator '" + op + "'");
}

Result<MetricSelector> MetricFromText(const std::string& metric) {
  if (EqualsIgnoreCase(metric, "EXPECT")) return MetricSelector::kExpect;
  if (EqualsIgnoreCase(metric, "EXPECT_STDDEV")) {
    return MetricSelector::kStdDev;
  }
  if (EqualsIgnoreCase(metric, "STDERR")) return MetricSelector::kStdError;
  if (EqualsIgnoreCase(metric, "MEDIAN")) return MetricSelector::kMedian;
  if (EqualsIgnoreCase(metric, "P95")) return MetricSelector::kP95;
  return Status::BindError("unknown metric '" + metric + "'");
}

Result<SweepAgg> SweepAggFromText(const std::string& agg) {
  if (agg.empty() || EqualsIgnoreCase(agg, "MAX")) return SweepAgg::kMax;
  if (EqualsIgnoreCase(agg, "MIN")) return SweepAgg::kMin;
  if (EqualsIgnoreCase(agg, "AVG")) return SweepAgg::kAvg;
  if (EqualsIgnoreCase(agg, "SUM")) return SweepAgg::kSum;
  return Status::BindError("unknown sweep aggregate '" + agg + "'");
}

/// Reads a VG table's count argument (a row count or a depth) as an int.
/// Every count must be a finite integer in [1, INT_MAX]: the generators
/// take ints, and a non-finite or out-of-range double has no int value.
Result<int> CountArgument(const char* table, const char* argument,
                          double value) {
  if (!(value >= 1.0 && value <= INT_MAX) || value != std::floor(value)) {
    return Status::BindError(
        StrFormat("VG table '%s' needs %s to be an integer in [1, %d], got %g",
                  table, argument, INT_MAX, value));
  }
  return static_cast<int>(value);
}

/// What a VG table's distribution argument must be besides finite.
enum class ArgumentRange { kFinite, kNonNegative, kPositive };

/// Checks a VG table's distribution argument: every one must be finite,
/// a rate positive and a spread non-negative, else a BindError naming the
/// table and the argument (a non-finite or negative sigma draws NaN or
/// infinite worlds instead of failing).
Status CheckDistributionArgument(const char* table, const char* argument,
                                 double value, ArgumentRange range) {
  const bool ok = std::isfinite(value) &&
                  (range == ArgumentRange::kFinite ||
                   (range == ArgumentRange::kPositive ? value > 0.0
                                                      : value >= 0.0));
  if (ok) return Status::OK();
  const char* rule = range == ArgumentRange::kPositive      ? " and > 0"
                     : range == ArgumentRange::kNonNegative ? " and >= 0"
                                                            : "";
  return Status::BindError(
      StrFormat("VG table '%s' needs %s to be finite%s, got %g", table,
                argument, rule, value));
}

/// VG-table catalog for MONTECARLO FROM ... JOIN: table name (case-
/// insensitive) -> generator factory over positional numeric literal
/// arguments. The catalog is the bind-time boundary between SQL names
/// and pdb VG table functions; an unknown name, a bad arity, a count
/// argument out of range or a distribution argument that is not finite
/// (or is a non-positive rate or a negative spread) is a BindError
/// before any world is realized.
Result<pdb::VGTableFunctionPtr> MakeCatalogVGTable(
    const std::string& name, const std::vector<double>& args) {
  if (EqualsIgnoreCase(name, "users")) {
    if (args.size() < 4 || args.size() > 5) {
      return Status::BindError(
          "VG table 'users' takes (num_users, arrival_rate, base_demand, "
          "spread[, sim_depth])");
    }
    JIGSAW_ASSIGN_OR_RETURN(const int num_users,
                            CountArgument("users", "num_users", args[0]));
    JIGSAW_RETURN_IF_ERROR(CheckDistributionArgument(
        "users", "arrival_rate", args[1], ArgumentRange::kPositive));
    JIGSAW_RETURN_IF_ERROR(CheckDistributionArgument(
        "users", "base_demand", args[2], ArgumentRange::kFinite));
    JIGSAW_RETURN_IF_ERROR(CheckDistributionArgument(
        "users", "spread", args[3], ArgumentRange::kNonNegative));
    int sim_depth = 16;
    if (args.size() == 5) {
      JIGSAW_ASSIGN_OR_RETURN(sim_depth,
                              CountArgument("users", "sim_depth", args[4]));
    }
    return pdb::MakeUsersVGTable(num_users, args[1], args[2], args[3],
                                 sim_depth);
  }
  if (EqualsIgnoreCase(name, "items")) {
    if (args.empty() || args.size() > 4) {
      return Status::BindError(
          "VG table 'items' takes (num_rows[, demand_mu, demand_sigma, "
          "cost_base])");
    }
    JIGSAW_ASSIGN_OR_RETURN(const int num_rows,
                            CountArgument("items", "num_rows", args[0]));
    if (args.size() > 1) {
      JIGSAW_RETURN_IF_ERROR(CheckDistributionArgument(
          "items", "demand_mu", args[1], ArgumentRange::kFinite));
    }
    if (args.size() > 2) {
      JIGSAW_RETURN_IF_ERROR(CheckDistributionArgument(
          "items", "demand_sigma", args[2], ArgumentRange::kNonNegative));
    }
    if (args.size() > 3) {
      JIGSAW_RETURN_IF_ERROR(CheckDistributionArgument(
          "items", "cost_base", args[3], ArgumentRange::kFinite));
    }
    return pdb::MakeScalingItemsVGTable(
        static_cast<std::size_t>(num_rows), args.size() > 1 ? args[1] : 1.0,
        args.size() > 2 ? args[2] : 0.5, args.size() > 3 ? args[3] : 10.0);
  }
  return Status::BindError("unknown VG table '" + name + "'");
}

/// Binds a FROM ... JOIN ... ON clause: instantiates both catalog
/// tables, maps the ON sides onto them by alias (either order), and
/// resolves the equi-join against their schemas. Resolver failures
/// (unknown column, mismatched key types, duplicate output names) keep
/// the pdb resolver's text, surfaced at bind time as BindError.
Result<MonteCarloJoinSpec> BindMonteCarloJoin(const MonteCarloJoinAst& j) {
  MonteCarloJoinSpec join;
  JIGSAW_ASSIGN_OR_RETURN(join.left,
                          MakeCatalogVGTable(j.left.table, j.left.args));
  JIGSAW_ASSIGN_OR_RETURN(join.right,
                          MakeCatalogVGTable(j.right.table, j.right.args));
  if (EqualsIgnoreCase(j.left.alias, j.right.alias)) {
    return Status::BindError("JOIN sides share the alias '" + j.left.alias +
                             "'");
  }
  auto side_of = [&](const std::string& alias) -> Result<bool> {
    if (EqualsIgnoreCase(alias, j.left.alias)) return true;
    if (EqualsIgnoreCase(alias, j.right.alias)) return false;
    return Status::BindError("ON references unknown alias '" + alias + "'");
  };
  JIGSAW_ASSIGN_OR_RETURN(bool lhs_is_left, side_of(j.on_left_alias));
  JIGSAW_ASSIGN_OR_RETURN(bool rhs_is_left, side_of(j.on_right_alias));
  if (lhs_is_left == rhs_is_left) {
    return Status::BindError("ON must relate the two joined tables ('" +
                             j.on_left_alias + "' and '" + j.on_right_alias +
                             "' name the same side)");
  }
  join.keys.left_key = lhs_is_left ? j.on_left_column : j.on_right_column;
  join.keys.right_key = lhs_is_left ? j.on_right_column : j.on_left_column;
  auto resolved =
      pdb::ResolveJoin(join.left->schema(), join.right->schema(), join.keys);
  if (!resolved.ok()) {
    return Status::BindError(resolved.status().message());
  }
  join.resolved = std::move(resolved).value();
  join.description = StrFormat(
      "%s AS %s JOIN %s AS %s ON %s.%s = %s.%s", j.left.table.c_str(),
      j.left.alias.c_str(), j.right.table.c_str(), j.right.alias.c_str(),
      j.left.alias.c_str(), join.keys.left_key.c_str(),
      j.right.alias.c_str(), join.keys.right_key.c_str());
  return join;
}

Result<CmpOp> CmpFromText(const std::string& cmp) {
  if (cmp == "<") return CmpOp::kLt;
  if (cmp == "<=") return CmpOp::kLe;
  if (cmp == ">") return CmpOp::kGt;
  if (cmp == ">=") return CmpOp::kGe;
  return Status::BindError("unknown comparison '" + cmp + "'");
}

/// Compilation scope for one SELECT level.
struct ExprScope {
  const ParameterSpace* params = nullptr;
  /// Columns of the FROM subquery (resolve to ColumnRef).
  const std::vector<std::string>* input_columns = nullptr;
  /// Aliases of items already compiled at this level (AliasRef).
  const std::vector<std::string>* visible_aliases = nullptr;
};

class ExprCompiler {
 public:
  ExprCompiler(const ModelRegistry* registry, std::uint64_t* call_site_counter)
      : registry_(registry), call_sites_(call_site_counter) {}

  Result<ExprPtr> Compile(const AstExpr& ast, const ExprScope& scope) {
    switch (ast.kind) {
      case AstExprKind::kNumber:
        return pdb::MakeLiteral(Value(ast.number));
      case AstExprKind::kString:
        return pdb::MakeLiteral(Value(ast.text));
      case AstExprKind::kParam: {
        if (scope.params == nullptr) {
          return Status::BindError("parameter '@" + ast.text +
                                   "' not allowed here");
        }
        auto idx = scope.params->IndexOf(ast.text);
        if (!idx) {
          return Status::BindError("undeclared parameter '@" + ast.text +
                                   "'");
        }
        return pdb::MakeParamRef(*idx, ast.text);
      }
      case AstExprKind::kIdent: {
        // Aliases first (Figure 1's overload references its siblings),
        // then subquery columns.
        if (scope.visible_aliases != nullptr) {
          for (std::size_t i = 0; i < scope.visible_aliases->size(); ++i) {
            if (EqualsIgnoreCase((*scope.visible_aliases)[i], ast.text)) {
              return pdb::MakeAliasRef(i, ast.text);
            }
          }
        }
        if (scope.input_columns != nullptr) {
          for (std::size_t i = 0; i < scope.input_columns->size(); ++i) {
            if (EqualsIgnoreCase((*scope.input_columns)[i], ast.text)) {
              return pdb::MakeColumnRef(i, ast.text);
            }
          }
        }
        return Status::BindError("unresolved column '" + ast.text + "'");
      }
      case AstExprKind::kCall: {
        JIGSAW_ASSIGN_OR_RETURN(BlackBoxPtr model,
                                registry_->Lookup(ast.text));
        if (model->arity() != ast.children.size()) {
          return Status::BindError(StrFormat(
              "%s expects %zu argument(s), got %zu", model->name().c_str(),
              model->arity(), ast.children.size()));
        }
        std::vector<ExprPtr> args;
        args.reserve(ast.children.size());
        for (const auto& child : ast.children) {
          JIGSAW_ASSIGN_OR_RETURN(ExprPtr arg, Compile(*child, scope));
          args.push_back(std::move(arg));
        }
        const std::uint64_t site = ++*call_sites_;
        return pdb::MakeModelCall(std::move(model), std::move(args), site);
      }
      case AstExprKind::kBinary: {
        JIGSAW_ASSIGN_OR_RETURN(BinaryOp op, BinaryOpFromText(ast.text));
        JIGSAW_ASSIGN_OR_RETURN(ExprPtr lhs,
                                Compile(*ast.children[0], scope));
        JIGSAW_ASSIGN_OR_RETURN(ExprPtr rhs,
                                Compile(*ast.children[1], scope));
        return pdb::MakeBinary(op, std::move(lhs), std::move(rhs));
      }
      case AstExprKind::kNot: {
        JIGSAW_ASSIGN_OR_RETURN(ExprPtr operand,
                                Compile(*ast.children[0], scope));
        return pdb::MakeNot(std::move(operand));
      }
      case AstExprKind::kNegate: {
        JIGSAW_ASSIGN_OR_RETURN(ExprPtr operand,
                                Compile(*ast.children[0], scope));
        return pdb::MakeBinary(BinaryOp::kSub,
                               pdb::MakeLiteral(Value(0.0)),
                               std::move(operand));
      }
      case AstExprKind::kCase: {
        std::vector<std::pair<ExprPtr, ExprPtr>> branches;
        for (std::size_t i = 0; i + 1 < ast.children.size(); i += 2) {
          JIGSAW_ASSIGN_OR_RETURN(ExprPtr cond,
                                  Compile(*ast.children[i], scope));
          JIGSAW_ASSIGN_OR_RETURN(ExprPtr result,
                                  Compile(*ast.children[i + 1], scope));
          branches.emplace_back(std::move(cond), std::move(result));
        }
        ExprPtr else_expr;
        if (ast.else_expr) {
          JIGSAW_ASSIGN_OR_RETURN(else_expr,
                                  Compile(*ast.else_expr, scope));
        }
        return pdb::MakeCase(std::move(branches), std::move(else_expr));
      }
    }
    return Status::Internal("unhandled AST expression kind");
  }

 private:
  const ModelRegistry* registry_;
  std::uint64_t* call_sites_;
};

/// SimFunction over one outer column of a RowProgram. Runtime expression
/// failures abort with a message: the binder validates statically and
/// performs a probe evaluation at bind time, so an error here is a
/// programming bug, not user input.
class ColumnSimFunction final : public SimFunction {
 public:
  ColumnSimFunction(std::shared_ptr<const RowProgram> program,
                    std::size_t column, std::string label)
      : program_(std::move(program)),
        column_(column),
        label_(std::move(label)) {}

  const std::string& label() const override { return label_; }

  double Sample(std::span<const double> params, std::size_t sample_id,
                const SeedVector& seeds) const override {
    auto v = program_->EvalColumn(column_, params, sample_id, seeds);
    JIGSAW_CHECK_MSG(v.ok(), "column '" << label_ << "': "
                                        << v.status().ToString());
    return v.value();
  }

  /// The core engine's fingerprint/tail/sweep phases drive this: one
  /// compiled BatchProgram run per span instead of out.size() virtual
  /// tree walks (the interpreter's per-sample walk when the program did
  /// not compile).
  void SampleBatch(std::span<const double> params, std::size_t sample_begin,
                   const SeedVector& seeds,
                   std::span<double> out) const override {
    Status s = program_->EvalColumnSpan(column_, params, sample_begin,
                                        seeds, /*stream_salt=*/0, {}, out);
    JIGSAW_CHECK_MSG(s.ok(),
                     "column '" << label_ << "': " << s.ToString());
  }

 private:
  std::shared_ptr<const RowProgram> program_;
  std::size_t column_;
  std::string label_;
};

}  // namespace

Status RowProgram::Walk(std::size_t last, bool check_all,
                        std::span<const double> params,
                        std::size_t sample_id, const SeedVector& seeds,
                        std::uint64_t stream_salt,
                        std::vector<Value>& aliases) const {
  EvalContext ctx;
  ctx.params = params;
  ctx.sample_id = sample_id;
  ctx.seeds = &seeds;
  ctx.stream_salt = stream_salt;

  pdb::Row inner_row;
  if (!inner_exprs.empty()) {
    std::vector<Value> inner_aliases;
    inner_aliases.reserve(inner_exprs.size());
    EvalContext inner_ctx = ctx;
    inner_ctx.aliases = &inner_aliases;
    for (const auto& e : inner_exprs) {
      JIGSAW_ASSIGN_OR_RETURN(Value v, e->Eval(inner_ctx));
      inner_aliases.push_back(std::move(v));
    }
    inner_row = std::move(inner_aliases);
    ctx.row = &inner_row;
  }

  aliases.reserve(last + 1);
  ctx.aliases = &aliases;
  for (std::size_t i = 0; i <= last; ++i) {
    JIGSAW_ASSIGN_OR_RETURN(Value v, outer_exprs[i]->Eval(ctx));
    aliases.push_back(std::move(v));
    if ((check_all || i == last) && !aliases[i].IsNumeric()) {
      return Status::ExecutionError("column '" + outer_names[i] +
                                    "' is not numeric");
    }
  }
  return Status::OK();
}

Result<double> RowProgram::EvalColumn(std::size_t j,
                                      std::span<const double> params,
                                      std::size_t sample_id,
                                      const SeedVector& seeds,
                                      std::uint64_t stream_salt) const {
  std::vector<Value> aliases;
  JIGSAW_RETURN_IF_ERROR(Walk(j, /*check_all=*/false, params, sample_id,
                              seeds, stream_salt, aliases));
  return aliases[j].AsDouble();
}

Result<std::vector<double>> RowProgram::EvalAllColumns(
    std::span<const double> params, std::size_t sample_id,
    const SeedVector& seeds, std::uint64_t stream_salt) const {
  std::vector<Value> aliases;
  JIGSAW_RETURN_IF_ERROR(Walk(outer_exprs.size() - 1, /*check_all=*/true,
                              params, sample_id, seeds, stream_salt,
                              aliases));
  std::vector<double> out;
  out.reserve(aliases.size());
  for (const Value& v : aliases) out.push_back(v.AsDouble());
  return out;
}

Status RowProgram::EvalColumnSpan(
    std::size_t j, std::span<const double> params, std::size_t sample_begin,
    const SeedVector& seeds, std::uint64_t stream_salt,
    std::span<const pdb::BatchProgram::LaneParam> lane_params,
    std::span<double> out) const {
  if (compiled()) {
    pdb::BatchProgram::Context ctx;
    ctx.params = params;
    ctx.lane_params = lane_params;
    ctx.sample_begin = sample_begin;
    ctx.seeds = &seeds;
    ctx.stream_salt = stream_salt;
    thread_local pdb::BatchScratch scratch;
    return batch->RunColumn(j, ctx, out.size(), out, scratch);
  }
  // Interpreter fallback: scalar tree walks, lane params substituted into
  // a per-lane valuation copy — identical to what the compiled path
  // computes, one sample at a time.
  std::vector<double> lane_valuation(params.begin(), params.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::span<const double> valuation = params;
    if (!lane_params.empty()) {
      std::copy(params.begin(), params.end(), lane_valuation.begin());
      for (const auto& lp : lane_params) {
        lane_valuation[lp.param_index] = lp.values[i];
      }
      valuation = lane_valuation;
    }
    auto v = EvalColumn(j, valuation, sample_begin + i, seeds, stream_salt);
    JIGSAW_RETURN_IF_ERROR(v.status());
    out[i] = v.value();
  }
  return Status::OK();
}

Status RowProgram::EvalAllColumnsSpan(std::span<const double> params,
                                      std::size_t sample_begin,
                                      std::size_t count,
                                      const SeedVector& seeds,
                                      std::uint64_t stream_salt,
                                      std::span<double* const> out) const {
  if (compiled()) {
    pdb::BatchProgram::Context ctx;
    ctx.params = params;
    ctx.sample_begin = sample_begin;
    ctx.seeds = &seeds;
    ctx.stream_salt = stream_salt;
    thread_local pdb::BatchScratch scratch;
    return batch->RunAll(ctx, count, out, scratch);
  }
  for (std::size_t i = 0; i < count; ++i) {
    auto row = EvalAllColumns(params, sample_begin + i, seeds, stream_salt);
    JIGSAW_RETURN_IF_ERROR(row.status());
    for (std::size_t c = 0; c < out.size(); ++c) out[c][i] = row.value()[c];
  }
  return Status::OK();
}

void UseInterpretedExpressions(BoundScript& bound) {
  if (bound.program == nullptr) return;
  auto stripped = std::make_shared<RowProgram>(*bound.program);
  stripped->batch = nullptr;
  stripped->batch_fallback_reason = "compiled expressions disabled";
  bound.program = stripped;
  for (std::size_t j = 0; j < bound.scenario.columns.size(); ++j) {
    auto& col = bound.scenario.columns[j];
    col.fn = std::make_shared<ColumnSimFunction>(stripped, j, col.name);
  }
}

Result<BoundScript> Binder::Bind(const Script& script) {
  BoundScript bound;

  // Pass 1: parameter declarations.
  const DeclareStmt* chain_decl = nullptr;
  for (const auto& stmt : script.statements) {
    if (!stmt.declare) continue;
    const DeclareStmt& d = *stmt.declare;
    ParameterDef def;
    def.name = d.param;
    if (d.range) {
      def.domain = *d.range;
    } else if (d.set) {
      def.domain = *d.set;
    } else if (d.chain) {
      def.domain = ChainDomain{d.chain->column, d.chain->driver_param,
                               d.chain->initial};
      chain_decl = &d;
    } else {
      return Status::BindError("parameter '@" + d.param +
                               "' has no domain");
    }
    // Add's own codes (InvalidArgument, AlreadyExists) serve direct
    // callers; in a script, a bad declaration is a bind error like any
    // other.
    if (Status added = bound.scenario.params.Add(std::move(def));
        !added.ok()) {
      return Status::BindError(added.message());
    }
  }

  // Pass 2: the scenario SELECT (exactly one top-level SELECT expected).
  const SelectStmt* select = nullptr;
  for (const auto& stmt : script.statements) {
    if (stmt.select) {
      if (select != nullptr) {
        return Status::BindError(
            "multiple SELECT statements; one scenario per script");
      }
      select = stmt.select.get();
    }
  }
  if (select == nullptr) {
    return Status::BindError("script has no SELECT statement");
  }
  if (select->from_subquery && select->from_subquery->from_subquery) {
    return Status::Unimplemented(
        "nested FROM subqueries deeper than one level");
  }

  std::uint64_t call_site_counter = 0;
  ExprCompiler compiler(registry_, &call_site_counter);
  auto program = std::make_shared<RowProgram>();

  if (select->from_subquery) {
    const SelectStmt& sub = *select->from_subquery;
    ExprScope scope;
    scope.params = &bound.scenario.params;
    scope.visible_aliases = &program->inner_names;
    for (const auto& item : sub.items) {
      JIGSAW_ASSIGN_OR_RETURN(ExprPtr e, compiler.Compile(*item.expr, scope));
      program->inner_exprs.push_back(std::move(e));
      program->inner_names.push_back(
          item.alias.empty()
              ? StrFormat("col%zu", program->inner_names.size())
              : item.alias);
    }
  }

  {
    ExprScope scope;
    scope.params = &bound.scenario.params;
    scope.input_columns = &program->inner_names;
    scope.visible_aliases = &program->outer_names;
    for (const auto& item : select->items) {
      JIGSAW_ASSIGN_OR_RETURN(ExprPtr e, compiler.Compile(*item.expr, scope));
      program->outer_exprs.push_back(std::move(e));
      program->outer_names.push_back(
          item.alias.empty()
              ? StrFormat("col%zu", program->outer_names.size())
              : item.alias);
    }
  }

  bound.scenario.into_table = select->into_table;
  bound.program = program;
  for (std::size_t j = 0; j < program->outer_exprs.size(); ++j) {
    bound.scenario.columns.push_back(ScenarioColumn{
        program->outer_names[j],
        std::make_shared<ColumnSimFunction>(program, j,
                                            program->outer_names[j])});
  }

  // Probe evaluation: catch latent runtime errors (type mismatches,
  // division by zero on the initial valuation) at bind time.
  {
    SeedVector probe_seeds(0xB1FD0000DEADBEEFULL, 2);
    auto probe = program->EvalAllColumns(
        bound.scenario.params.ValuationAt(0), 0, probe_seeds);
    if (!probe.ok()) {
      return Status::BindError("scenario probe evaluation failed: " +
                               probe.status().message());
    }
  }

  // Lower the row program into its vectorized batch form. Failure is not
  // an error — the expression simply has no bit-identical batch
  // representation — but the reason is kept so the de-optimization is
  // visible (ScriptOutcome::Report surfaces it).
  {
    auto compiled = pdb::CompileBatchProgram(
        program->inner_exprs, program->outer_exprs, program->outer_names);
    if (compiled.ok()) {
      program->batch = std::move(compiled).value();
    } else {
      program->batch_fallback_reason = compiled.status().message();
    }
  }

  // Pass 3: chain metadata.
  if (chain_decl != nullptr) {
    const ChainSpecAst& c = *chain_decl->chain;
    BoundChain chain;
    chain.initial = c.initial;
    auto pidx = bound.scenario.params.IndexOf(chain_decl->param);
    JIGSAW_CHECK(pidx.has_value());
    chain.chain_param_index = *pidx;
    auto didx = bound.scenario.params.IndexOf(c.driver_param);
    if (!didx) {
      return Status::BindError("chain driver '@" + c.driver_param +
                               "' is not declared");
    }
    if (bound.scenario.params.def(*didx).is_chain()) {
      return Status::BindError("chain driver '@" + c.driver_param +
                               "' must not itself be a CHAIN parameter");
    }
    chain.driver_param_index = *didx;
    bool found_col = false;
    for (std::size_t j = 0; j < program->outer_names.size(); ++j) {
      if (EqualsIgnoreCase(program->outer_names[j], c.column)) {
        chain.source_column_index = j;
        found_col = true;
        break;
      }
    }
    if (!found_col) {
      return Status::BindError("chain column '" + c.column +
                               "' is not a result column");
    }
    // Only the previous-step form "@driver - 1" is supported (Figure 5).
    const AstExpr& src = *c.source_step;
    const bool prev_step_form =
        src.kind == AstExprKind::kBinary && src.text == "-" &&
        src.children[0]->kind == AstExprKind::kParam &&
        EqualsIgnoreCase(src.children[0]->text, c.driver_param) &&
        src.children[1]->kind == AstExprKind::kNumber &&
        src.children[1]->number == 1.0;
    if (!prev_step_form) {
      return Status::Unimplemented(
          "CHAIN source step must be '@driver - 1' (previous step)");
    }
    bound.chain = chain;
  }

  // Pass 4: OPTIMIZE.
  for (const auto& stmt : script.statements) {
    if (!stmt.optimize) continue;
    if (bound.optimize) {
      return Status::BindError("multiple OPTIMIZE statements");
    }
    const OptimizeStmt& o = *stmt.optimize;
    if (!bound.scenario.into_table.empty() &&
        !EqualsIgnoreCase(o.from_table, bound.scenario.into_table)) {
      return Status::BindError("OPTIMIZE reads table '" + o.from_table +
                               "' but the scenario writes INTO '" +
                               bound.scenario.into_table + "'");
    }
    const ParameterSpace& params = bound.scenario.params;
    OptimizeSpec spec;
    std::vector<std::size_t> group_idx;
    for (const auto& g : o.group_by) {
      const auto idx = params.IndexOf(g);
      if (!idx) {
        return Status::BindError("GROUP BY references undeclared '" + g +
                                 "'");
      }
      if (std::find(group_idx.begin(), group_idx.end(), *idx) !=
          group_idx.end()) {
        return Status::BindError("GROUP BY lists '@" + g + "' twice");
      }
      group_idx.push_back(*idx);
      spec.group_params.push_back(g);
    }
    // The result reports one valuation of the grouped parameters, so a
    // SELECTed parameter must be one of them.
    for (const auto& p : o.select_params) {
      const auto idx = params.IndexOf(p);
      if (!idx) {
        return Status::BindError("OPTIMIZE SELECT references undeclared '@" +
                                 p + "'");
      }
      if (std::find(group_idx.begin(), group_idx.end(), *idx) ==
          group_idx.end()) {
        return Status::BindError("OPTIMIZE SELECT parameter '@" + p +
                                 "' is not a GROUP BY parameter");
      }
    }
    for (const auto& c : o.constraints) {
      MetricConstraint mc;
      JIGSAW_ASSIGN_OR_RETURN(mc.agg, SweepAggFromText(c.sweep_agg));
      JIGSAW_ASSIGN_OR_RETURN(mc.metric, MetricFromText(c.metric));
      JIGSAW_ASSIGN_OR_RETURN(const ScenarioColumn* col,
                              bound.scenario.FindColumn(c.column));
      mc.column = col->name;
      JIGSAW_ASSIGN_OR_RETURN(mc.cmp, CmpFromText(c.cmp));
      mc.threshold = c.threshold;
      spec.constraints.push_back(std::move(mc));
    }
    for (const auto& obj : o.objectives) {
      const auto idx = params.IndexOf(obj.param);
      if (!idx) {
        return Status::BindError("FOR references undeclared '@" +
                                 obj.param + "'");
      }
      if (std::find(group_idx.begin(), group_idx.end(), *idx) ==
          group_idx.end()) {
        return Status::BindError("FOR parameter '@" + obj.param +
                                 "' is not a GROUP BY parameter");
      }
      spec.objectives.push_back(ObjectiveTerm{obj.param, obj.maximize});
    }
    bound.optimize = std::move(spec);
  }

  // Pass 5: MONTECARLO. The statement runs the already-compiled row
  // program; a CHAIN scenario is fine (the chain parameter holds its
  // INITIAL VALUE, as at ValuationAt(0)). An OVER clause resolves its
  // parameter and checks the swept domain here — an IN list or range, or
  // else the declared domain — by the rules DECLARE applies, under the
  // sweep's smaller cap, so execution never sees an unbound, empty,
  // non-finite or absurdly large sweep.
  constexpr std::size_t kMaxSweepPoints = 999999;
  for (const auto& stmt : script.statements) {
    if (!stmt.montecarlo) continue;
    if (bound.montecarlo) {
      return Status::BindError("multiple MONTECARLO statements");
    }
    MonteCarloSpec spec;
    spec.layered = stmt.montecarlo->layered;
    if (stmt.montecarlo->join) {
      JIGSAW_ASSIGN_OR_RETURN(spec.join,
                              BindMonteCarloJoin(*stmt.montecarlo->join));
    }
    if (stmt.montecarlo->over) {
      const MonteCarloSweepAst& over = *stmt.montecarlo->over;
      auto pidx = bound.scenario.params.IndexOf(over.param);
      if (!pidx) {
        return Status::BindError(
            "MONTECARLO OVER references undeclared '@" + over.param + "'");
      }
      ParameterDef swept = bound.scenario.params.def(*pidx);
      if (over.values) {
        swept.domain = *over.values;
      } else if (over.range) {
        swept.domain = *over.range;
      } else if (swept.is_chain()) {
        return Status::BindError("MONTECARLO OVER '@" + over.param +
                                 "' names a CHAIN parameter, which has no "
                                 "domain to sweep");
      }
      if (Status valid = swept.Validate(kMaxSweepPoints); !valid.ok()) {
        return Status::BindError("MONTECARLO OVER: " + valid.message());
      }
      spec.over = MonteCarloSweepSpec{*pidx, swept.name, swept.Values()};
    }
    bound.montecarlo = std::move(spec);
  }

  // Pass 6: GRAPH.
  for (const auto& stmt : script.statements) {
    if (!stmt.graph) continue;
    if (bound.graph) {
      return Status::BindError("multiple GRAPH statements");
    }
    const GraphStmt& g = *stmt.graph;
    GraphSpec spec;
    auto xidx = bound.scenario.params.IndexOf(g.x_param);
    if (!xidx) {
      return Status::BindError("GRAPH OVER references undeclared '@" +
                               g.x_param + "'");
    }
    spec.x_param = g.x_param;
    for (const auto& s : g.series) {
      GraphSeries series;
      JIGSAW_ASSIGN_OR_RETURN(series.metric, MetricFromText(s.metric));
      JIGSAW_ASSIGN_OR_RETURN(const ScenarioColumn* col,
                              bound.scenario.FindColumn(s.column));
      series.column = col->name;
      series.style = Join(s.style, " ");
      spec.series.push_back(std::move(series));
    }
    bound.graph = std::move(spec);
  }

  return bound;
}

Result<BoundScript> ParseAndBind(const std::string& text,
                                 const ModelRegistry& registry) {
  JIGSAW_ASSIGN_OR_RETURN(Script script, ParseScript(text));
  Binder binder(&registry);
  return binder.Bind(script);
}

}  // namespace jigsaw::sql
