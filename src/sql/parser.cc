#include "sql/parser.h"

#include "sql/lexer.h"
#include "util/string_util.h"

namespace jigsaw::sql {

std::string AstExpr::ToString() const {
  switch (kind) {
    case AstExprKind::kNumber:
      return DoubleToString(number);
    case AstExprKind::kString:
      return "'" + text + "'";
    case AstExprKind::kIdent:
      return text;
    case AstExprKind::kParam:
      return "@" + text;
    case AstExprKind::kCall: {
      std::vector<std::string> args;
      args.reserve(children.size());
      for (const auto& c : children) args.push_back(c->ToString());
      return text + "(" + Join(args, ", ") + ")";
    }
    case AstExprKind::kBinary:
      return "(" + children[0]->ToString() + " " + text + " " +
             children[1]->ToString() + ")";
    case AstExprKind::kNot:
      return "NOT " + children[0]->ToString();
    case AstExprKind::kNegate:
      return "-" + children[0]->ToString();
    case AstExprKind::kCase: {
      std::string out = "CASE";
      for (std::size_t i = 0; i + 1 < children.size(); i += 2) {
        out += " WHEN " + children[i]->ToString() + " THEN " +
               children[i + 1]->ToString();
      }
      if (else_expr) out += " ELSE " + else_expr->ToString();
      return out + " END";
    }
  }
  return "?";
}

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Script> ParseScript() {
    Script script;
    while (!AtEnd()) {
      if (AcceptSymbol(";")) continue;  // stray separators
      JIGSAW_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      script.statements.push_back(std::move(stmt));
      if (!AtEnd()) {
        JIGSAW_RETURN_IF_ERROR(ExpectSymbol(";"));
      }
    }
    return script;
  }

  Result<AstExprPtr> ParseSingleExpression() {
    JIGSAW_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
    if (!AtEnd()) {
      return Error("unexpected trailing " + Peek().Describe());
    }
    return e;
  }

 private:
  // -- token helpers -------------------------------------------------------

  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool PeekKeyword(const std::string& kw, std::size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdent && EqualsIgnoreCase(t.text, kw);
  }

  bool AcceptKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Error("expected '" + kw + "', found " + Peek().Describe());
    }
    return Status::OK();
  }

  bool PeekSymbol(const std::string& sym) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == sym;
  }

  bool AcceptSymbol(const std::string& sym) {
    if (PeekSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) {
      return Error("expected '" + sym + "', found " + Peek().Describe());
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdent(const std::string& what) {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected " + what + ", found " + Peek().Describe());
    }
    return Advance().text;
  }

  Result<std::string> ExpectParam() {
    if (Peek().kind != TokenKind::kParam) {
      return Error("expected @parameter, found " + Peek().Describe());
    }
    return Advance().text;
  }

  Result<double> ExpectNumber() {
    bool neg = false;
    if (Peek().kind == TokenKind::kSymbol && Peek().text == "-") {
      Advance();
      neg = true;
    }
    if (Peek().kind != TokenKind::kNumber) {
      return Error("expected number, found " + Peek().Describe());
    }
    const double v = Advance().number;
    return neg ? -v : v;
  }

  /// lo TO hi [STEP BY s] — DECLARE's RANGE and OVER's IN range.
  Result<RangeDomain> ParseRange() {
    RangeDomain range;
    JIGSAW_ASSIGN_OR_RETURN(range.lo, ExpectNumber());
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("TO"));
    JIGSAW_ASSIGN_OR_RETURN(range.hi, ExpectNumber());
    if (AcceptKeyword("STEP")) {
      JIGSAW_RETURN_IF_ERROR(ExpectKeyword("BY"));
      JIGSAW_ASSIGN_OR_RETURN(range.step, ExpectNumber());
    }
    return range;
  }

  /// (v1, v2, ...) — DECLARE's SET and OVER's IN list; never empty.
  Result<SetDomain> ParseValueList() {
    JIGSAW_RETURN_IF_ERROR(ExpectSymbol("("));
    SetDomain set;
    do {
      JIGSAW_ASSIGN_OR_RETURN(double v, ExpectNumber());
      set.values.push_back(v);
    } while (AcceptSymbol(","));
    JIGSAW_RETURN_IF_ERROR(ExpectSymbol(")"));
    return set;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(StrFormat("line %zu col %zu: %s", Peek().line,
                                        Peek().column, message.c_str()));
  }

  // -- statements ----------------------------------------------------------

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (PeekKeyword("DECLARE")) {
      JIGSAW_ASSIGN_OR_RETURN(auto d, ParseDeclare());
      stmt.declare = std::make_unique<DeclareStmt>(std::move(d));
      return stmt;
    }
    if (PeekKeyword("SELECT")) {
      JIGSAW_ASSIGN_OR_RETURN(auto s, ParseSelect());
      stmt.select = std::make_unique<SelectStmt>(std::move(s));
      return stmt;
    }
    if (PeekKeyword("OPTIMIZE")) {
      JIGSAW_ASSIGN_OR_RETURN(auto o, ParseOptimize());
      stmt.optimize = std::make_unique<OptimizeStmt>(std::move(o));
      return stmt;
    }
    if (PeekKeyword("GRAPH")) {
      JIGSAW_ASSIGN_OR_RETURN(auto g, ParseGraph());
      stmt.graph = std::make_unique<GraphStmt>(std::move(g));
      return stmt;
    }
    if (PeekKeyword("MONTECARLO")) {
      JIGSAW_ASSIGN_OR_RETURN(auto m, ParseMonteCarlo());
      stmt.montecarlo = std::make_unique<MonteCarloStmt>(std::move(m));
      return stmt;
    }
    return Error("expected DECLARE, SELECT, OPTIMIZE, GRAPH or MONTECARLO");
  }

  Result<DeclareStmt> ParseDeclare() {
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("DECLARE"));
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("PARAMETER"));
    DeclareStmt decl;
    JIGSAW_ASSIGN_OR_RETURN(decl.param, ExpectParam());
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("AS"));

    if (AcceptKeyword("RANGE")) {
      JIGSAW_ASSIGN_OR_RETURN(decl.range, ParseRange());
      return decl;
    }
    if (AcceptKeyword("SET")) {
      JIGSAW_ASSIGN_OR_RETURN(decl.set, ParseValueList());
      return decl;
    }
    if (AcceptKeyword("CHAIN")) {
      ChainSpecAst chain;
      JIGSAW_ASSIGN_OR_RETURN(chain.column, ExpectIdent("chain column"));
      JIGSAW_RETURN_IF_ERROR(ExpectKeyword("FROM"));
      JIGSAW_ASSIGN_OR_RETURN(chain.driver_param, ExpectParam());
      JIGSAW_RETURN_IF_ERROR(ExpectSymbol(":"));
      JIGSAW_ASSIGN_OR_RETURN(chain.source_step, ParseExpr());
      JIGSAW_RETURN_IF_ERROR(ExpectKeyword("INITIAL"));
      JIGSAW_RETURN_IF_ERROR(ExpectKeyword("VALUE"));
      JIGSAW_ASSIGN_OR_RETURN(chain.initial, ExpectNumber());
      decl.chain = std::move(chain);
      return decl;
    }
    return Error("expected RANGE, SET or CHAIN");
  }

  Result<SelectStmt> ParseSelect() {
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectStmt select;
    do {
      SelectItemAst item;
      JIGSAW_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("AS")) {
        JIGSAW_ASSIGN_OR_RETURN(item.alias, ExpectIdent("alias"));
      } else if (item.expr->kind == AstExprKind::kIdent) {
        item.alias = item.expr->text;
      }
      select.items.push_back(std::move(item));
    } while (AcceptSymbol(","));

    if (AcceptKeyword("FROM")) {
      JIGSAW_RETURN_IF_ERROR(ExpectSymbol("("));
      JIGSAW_ASSIGN_OR_RETURN(SelectStmt sub, ParseSelect());
      JIGSAW_RETURN_IF_ERROR(ExpectSymbol(")"));
      select.from_subquery = std::make_unique<SelectStmt>(std::move(sub));
    }
    if (AcceptKeyword("INTO")) {
      JIGSAW_ASSIGN_OR_RETURN(select.into_table, ExpectIdent("table name"));
    }
    return select;
  }

  Result<OptimizeStmt> ParseOptimize() {
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("OPTIMIZE"));
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    OptimizeStmt opt;
    do {
      if (Peek().kind == TokenKind::kParam) {
        opt.select_params.push_back(Advance().text);
      } else {
        JIGSAW_ASSIGN_OR_RETURN(std::string name,
                                ExpectIdent("parameter name"));
        opt.select_params.push_back(std::move(name));
      }
    } while (AcceptSymbol(","));

    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    JIGSAW_ASSIGN_OR_RETURN(opt.from_table, ExpectIdent("table name"));

    if (AcceptKeyword("WHERE")) {
      do {
        JIGSAW_ASSIGN_OR_RETURN(ConstraintAst c, ParseConstraint());
        opt.constraints.push_back(std::move(c));
      } while (AcceptKeyword("AND"));
    }

    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("GROUP"));
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      if (Peek().kind == TokenKind::kParam) {
        opt.group_by.push_back(Advance().text);
      } else {
        JIGSAW_ASSIGN_OR_RETURN(std::string name,
                                ExpectIdent("parameter name"));
        opt.group_by.push_back(std::move(name));
      }
    } while (AcceptSymbol(","));

    if (AcceptKeyword("FOR")) {
      do {
        ObjectiveAst obj;
        if (AcceptKeyword("MAX")) {
          obj.maximize = true;
        } else if (AcceptKeyword("MIN")) {
          obj.maximize = false;
        } else {
          return Error("expected MAX or MIN in FOR clause");
        }
        JIGSAW_ASSIGN_OR_RETURN(obj.param, ExpectParam());
        opt.objectives.push_back(std::move(obj));
      } while (AcceptSymbol(","));
    }
    return opt;
  }

  bool IsMetricKeyword(const Token& t) const {
    if (t.kind != TokenKind::kIdent) return false;
    return EqualsIgnoreCase(t.text, "EXPECT") ||
           EqualsIgnoreCase(t.text, "EXPECT_STDDEV") ||
           EqualsIgnoreCase(t.text, "STDERR") ||
           EqualsIgnoreCase(t.text, "MEDIAN") ||
           EqualsIgnoreCase(t.text, "P95");
  }

  Result<ConstraintAst> ParseConstraint() {
    ConstraintAst c;
    // Optional sweep aggregate wrapper: MAX( ... ), MIN(...), AVG, SUM.
    if ((PeekKeyword("MAX") || PeekKeyword("MIN") || PeekKeyword("AVG") ||
         PeekKeyword("SUM")) &&
        Peek(1).kind == TokenKind::kSymbol && Peek(1).text == "(") {
      c.sweep_agg = ToUpper(Advance().text);
      JIGSAW_RETURN_IF_ERROR(ExpectSymbol("("));
      if (!IsMetricKeyword(Peek())) {
        return Error("expected a metric (EXPECT, EXPECT_STDDEV, ...)")
            ;
      }
      c.metric = ToUpper(Advance().text);
      JIGSAW_ASSIGN_OR_RETURN(c.column, ExpectIdent("column name"));
      JIGSAW_RETURN_IF_ERROR(ExpectSymbol(")"));
    } else if (IsMetricKeyword(Peek())) {
      c.metric = ToUpper(Advance().text);
      JIGSAW_ASSIGN_OR_RETURN(c.column, ExpectIdent("column name"));
    } else {
      return Error("expected aggregate or metric in WHERE clause");
    }

    if (Peek().kind != TokenKind::kSymbol ||
        (Peek().text != "<" && Peek().text != "<=" && Peek().text != ">" &&
         Peek().text != ">=")) {
      return Error("expected comparison operator");
    }
    c.cmp = Advance().text;
    JIGSAW_ASSIGN_OR_RETURN(c.threshold, ExpectNumber());
    return c;
  }

  Result<GraphStmt> ParseGraph() {
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("GRAPH"));
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("OVER"));
    GraphStmt graph;
    JIGSAW_ASSIGN_OR_RETURN(graph.x_param, ExpectParam());
    do {
      GraphSeriesAst series;
      if (!IsMetricKeyword(Peek())) {
        return Error("expected a metric (EXPECT, EXPECT_STDDEV, ...)")
            ;
      }
      series.metric = ToUpper(Advance().text);
      JIGSAW_ASSIGN_OR_RETURN(series.column, ExpectIdent("column name"));
      if (AcceptKeyword("WITH")) {
        while (Peek().kind == TokenKind::kIdent &&
               !PeekKeyword("WITH")) {
          series.style.push_back(Advance().text);
        }
      }
      graph.series.push_back(std::move(series));
    } while (AcceptSymbol(","));
    return graph;
  }

  /// table(arg, ...) [AS alias] — one side of a FROM ... JOIN clause.
  Result<MonteCarloTableAst> ParseMonteCarloTable() {
    MonteCarloTableAst t;
    JIGSAW_ASSIGN_OR_RETURN(t.table, ExpectIdent("VG table name"));
    JIGSAW_RETURN_IF_ERROR(ExpectSymbol("("));
    if (!AcceptSymbol(")")) {
      do {
        JIGSAW_ASSIGN_OR_RETURN(double v, ExpectNumber());
        t.args.push_back(v);
      } while (AcceptSymbol(","));
      JIGSAW_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    if (AcceptKeyword("AS")) {
      JIGSAW_ASSIGN_OR_RETURN(t.alias, ExpectIdent("table alias"));
    } else {
      t.alias = t.table;
    }
    return t;
  }

  /// alias '.' column — a qualified ON-clause reference.
  Result<std::pair<std::string, std::string>> ParseQualifiedColumn() {
    std::pair<std::string, std::string> q;
    JIGSAW_ASSIGN_OR_RETURN(q.first, ExpectIdent("table alias"));
    JIGSAW_RETURN_IF_ERROR(ExpectSymbol("."));
    JIGSAW_ASSIGN_OR_RETURN(q.second, ExpectIdent("column name"));
    return q;
  }

  Result<MonteCarloStmt> ParseMonteCarlo() {
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("MONTECARLO"));
    MonteCarloStmt mc;
    if (AcceptKeyword("FROM")) {
      MonteCarloJoinAst join;
      JIGSAW_ASSIGN_OR_RETURN(join.left, ParseMonteCarloTable());
      JIGSAW_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      JIGSAW_ASSIGN_OR_RETURN(join.right, ParseMonteCarloTable());
      JIGSAW_RETURN_IF_ERROR(ExpectKeyword("ON"));
      JIGSAW_ASSIGN_OR_RETURN(auto lhs, ParseQualifiedColumn());
      JIGSAW_RETURN_IF_ERROR(ExpectSymbol("="));
      JIGSAW_ASSIGN_OR_RETURN(auto rhs, ParseQualifiedColumn());
      join.on_left_alias = std::move(lhs.first);
      join.on_left_column = std::move(lhs.second);
      join.on_right_alias = std::move(rhs.first);
      join.on_right_column = std::move(rhs.second);
      mc.join = std::move(join);
    }
    if (AcceptKeyword("OVER")) {
      MonteCarloSweepAst over;
      JIGSAW_ASSIGN_OR_RETURN(over.param, ExpectParam());
      if (AcceptKeyword("IN")) {
        if (PeekSymbol("(")) {
          JIGSAW_ASSIGN_OR_RETURN(over.values, ParseValueList());
        } else {
          JIGSAW_ASSIGN_OR_RETURN(over.range, ParseRange());
        }
      }
      mc.over = std::move(over);
    }
    if (AcceptKeyword("USING")) {
      if (AcceptKeyword("LAYERED")) {
        mc.layered = true;
      } else if (AcceptKeyword("DIRECT")) {
        mc.layered = false;
      } else {
        return Error("expected DIRECT or LAYERED after USING");
      }
    }
    return mc;
  }

  // -- expressions (precedence climbing) -----------------------------------

  Result<AstExprPtr> ParseExpr() { return ParseOr(); }

  Result<AstExprPtr> ParseOr() {
    JIGSAW_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAnd());
    while (PeekKeyword("OR")) {
      Advance();
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
      lhs = MakeBinary("OR", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseAnd() {
    JIGSAW_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseNot());
    while (PeekKeyword("AND")) {
      Advance();
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
      lhs = MakeBinary("AND", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr operand, ParseNot());
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kNot;
      e->children.push_back(std::move(operand));
      return e;
    }
    return ParseComparison();
  }

  Result<AstExprPtr> ParseComparison() {
    JIGSAW_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAdditive());
    if (Peek().kind == TokenKind::kSymbol) {
      const std::string& s = Peek().text;
      if (s == "<" || s == "<=" || s == ">" || s == ">=" || s == "=" ||
          s == "<>" || s == "!=") {
        const std::string op = Advance().text;
        JIGSAW_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAdditive());
        return MakeBinary(op == "!=" ? "<>" : op, std::move(lhs),
                          std::move(rhs));
      }
    }
    return lhs;
  }

  Result<AstExprPtr> ParseAdditive() {
    JIGSAW_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseMultiplicative());
    while (Peek().kind == TokenKind::kSymbol &&
           (Peek().text == "+" || Peek().text == "-")) {
      const std::string op = Advance().text;
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseMultiplicative() {
    JIGSAW_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseUnary());
    while (Peek().kind == TokenKind::kSymbol &&
           (Peek().text == "*" || Peek().text == "/")) {
      const std::string op = Advance().text;
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseUnary() {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == "-") {
      Advance();
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr operand, ParseUnary());
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kNegate;
      e->children.push_back(std::move(operand));
      return e;
    }
    return ParsePrimary();
  }

  Result<AstExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kNumber) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kNumber;
      e->number = Advance().number;
      return e;
    }
    if (t.kind == TokenKind::kString) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kString;
      e->text = Advance().text;
      return e;
    }
    if (t.kind == TokenKind::kParam) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kParam;
      e->text = Advance().text;
      return e;
    }
    if (t.kind == TokenKind::kSymbol && t.text == "(") {
      Advance();
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
      JIGSAW_RETURN_IF_ERROR(ExpectSymbol(")"));
      return e;
    }
    if (PeekKeyword("CASE")) return ParseCase();
    if (t.kind == TokenKind::kIdent) {
      std::string name = Advance().text;
      if (AcceptSymbol("(")) {
        auto e = std::make_unique<AstExpr>();
        e->kind = AstExprKind::kCall;
        e->text = std::move(name);
        if (!AcceptSymbol(")")) {
          do {
            JIGSAW_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
            e->children.push_back(std::move(arg));
          } while (AcceptSymbol(","));
          JIGSAW_RETURN_IF_ERROR(ExpectSymbol(")"));
        }
        return e;
      }
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kIdent;
      e->text = std::move(name);
      return e;
    }
    return Error("expected expression, found " + t.Describe());
  }

  Result<AstExprPtr> ParseCase() {
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("CASE"));
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kCase;
    if (!PeekKeyword("WHEN")) {
      return Error("CASE requires at least one WHEN branch");
    }
    while (AcceptKeyword("WHEN")) {
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr cond, ParseExpr());
      JIGSAW_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      JIGSAW_ASSIGN_OR_RETURN(AstExprPtr result, ParseExpr());
      e->children.push_back(std::move(cond));
      e->children.push_back(std::move(result));
    }
    if (AcceptKeyword("ELSE")) {
      JIGSAW_ASSIGN_OR_RETURN(e->else_expr, ParseExpr());
    }
    JIGSAW_RETURN_IF_ERROR(ExpectKeyword("END"));
    return e;
  }

  static AstExprPtr MakeBinary(std::string op, AstExprPtr lhs,
                               AstExprPtr rhs) {
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kBinary;
    e->text = std::move(op);
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Script> ParseScript(const std::string& text) {
  JIGSAW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  return parser.ParseScript();
}

Result<AstExprPtr> ParseExpression(const std::string& text) {
  JIGSAW_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  return parser.ParseSingleExpression();
}

}  // namespace jigsaw::sql
