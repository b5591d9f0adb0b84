#include "pdb/operators.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace jigsaw::pdb {

namespace {

class TableScanNode final : public PlanNode {
 public:
  explicit TableScanNode(const Table* table) : table_(table) {}
  TableScanNode(Table owned, bool)
      : owned_(std::move(owned)), table_(&*owned_) {}

  const Schema& schema() const override { return table_->schema(); }

  Status Open(EvalContext&) override {
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= table_->num_rows()) return false;
    *out = table_->row(pos_++);
    return true;
  }

  void Close() override {}

 private:
  std::optional<Table> owned_;
  const Table* table_;
  std::size_t pos_ = 0;
};

class DualScanNode final : public PlanNode {
 public:
  DualScanNode() : schema_(std::vector<Column>{}) {}

  const Schema& schema() const override { return schema_; }
  Status Open(EvalContext&) override {
    emitted_ = false;
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    if (emitted_) return false;
    emitted_ = true;
    out->clear();
    return true;
  }
  void Close() override {}

 private:
  Schema schema_;
  bool emitted_ = false;
};

class SingleRowScanNode final : public PlanNode {
 public:
  SingleRowScanNode(Schema schema, SingleRowFn fill)
      : schema_(std::move(schema)), fill_(std::move(fill)) {}

  const Schema& schema() const override { return schema_; }

  Status Open(EvalContext& ctx) override {
    if (ctx.seeds == nullptr) {
      return Status::ExecutionError(
          "row program evaluated without a seed vector");
    }
    values_.clear();
    JIGSAW_RETURN_IF_ERROR(fill_(ctx, &values_));
    done_ = false;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (done_) return false;
    done_ = true;
    Row row;
    row.reserve(values_.size());
    for (double v : values_) row.emplace_back(v);
    *out = std::move(row);
    return true;
  }

  void Close() override {}

 private:
  Schema schema_;
  SingleRowFn fill_;
  std::vector<double> values_;
  bool done_ = true;
};

class FilterNode final : public PlanNode {
 public:
  FilterNode(PlanNodePtr input, ExprPtr predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}

  const Schema& schema() const override { return input_->schema(); }

  Status Open(EvalContext& ctx) override {
    ctx_ = &ctx;
    return input_->Open(ctx);
  }

  Result<bool> Next(Row* out) override {
    for (;;) {
      JIGSAW_ASSIGN_OR_RETURN(bool has, input_->Next(out));
      if (!has) return false;
      EvalContext local = *ctx_;
      local.row = out;
      JIGSAW_ASSIGN_OR_RETURN(Value v, predicate_->Eval(local));
      if (!v.is_null() && v.AsBool()) return true;
    }
  }

  void Close() override { input_->Close(); }

 private:
  PlanNodePtr input_;
  ExprPtr predicate_;
  EvalContext* ctx_ = nullptr;
};

class ProjectNode final : public PlanNode {
 public:
  ProjectNode(PlanNodePtr input, std::vector<ExprPtr> exprs,
              std::vector<std::string> names)
      : input_(std::move(input)), exprs_(std::move(exprs)) {
    std::vector<Column> cols;
    cols.reserve(names.size());
    for (auto& n : names) cols.push_back(Column{std::move(n)});
    schema_ = Schema(std::move(cols));
  }

  const Schema& schema() const override { return schema_; }

  Status Open(EvalContext& ctx) override {
    ctx_ = &ctx;
    return input_->Open(ctx);
  }

  Result<bool> Next(Row* out) override {
    Row in;
    JIGSAW_ASSIGN_OR_RETURN(bool has, input_->Next(&in));
    if (!has) return false;
    std::vector<Value> aliases;
    aliases.reserve(exprs_.size());
    EvalContext local = *ctx_;
    local.row = &in;
    local.aliases = &aliases;
    for (const auto& e : exprs_) {
      JIGSAW_ASSIGN_OR_RETURN(Value v, e->Eval(local));
      aliases.push_back(std::move(v));
    }
    *out = std::move(aliases);
    return true;
  }

  void Close() override { input_->Close(); }

 private:
  PlanNodePtr input_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  EvalContext* ctx_ = nullptr;
};

struct AggState {
  double sum = 0.0;
  std::int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

class HashAggregateNode final : public PlanNode {
 public:
  HashAggregateNode(PlanNodePtr input, std::vector<ExprPtr> group_exprs,
                    std::vector<std::string> group_names,
                    std::vector<AggSpec> aggs)
      : input_(std::move(input)),
        group_exprs_(std::move(group_exprs)),
        aggs_(std::move(aggs)) {
    std::vector<Column> cols;
    for (auto& n : group_names) cols.push_back(Column{std::move(n)});
    for (const auto& a : aggs_) cols.push_back(Column{a.name});
    schema_ = Schema(std::move(cols));
  }

  const Schema& schema() const override { return schema_; }

  Status Open(EvalContext& ctx) override {
    JIGSAW_RETURN_IF_ERROR(input_->Open(ctx));
    groups_.clear();
    order_.clear();
    Row in;
    for (;;) {
      auto has = input_->Next(&in);
      if (!has.ok()) return has.status();
      if (!has.value()) break;
      EvalContext local = ctx;
      local.row = &in;
      Row key;
      key.reserve(group_exprs_.size());
      for (const auto& g : group_exprs_) {
        auto v = g->Eval(local);
        if (!v.ok()) return v.status();
        key.push_back(std::move(v).value());
      }
      std::string key_str;
      for (const auto& k : key) {
        key_str += k.ToString();
        key_str += '\x1f';
      }
      auto [it, inserted] = groups_.try_emplace(key_str);
      if (inserted) {
        it->second.key = std::move(key);
        it->second.states.resize(aggs_.size());
        order_.push_back(&it->second);
      }
      for (std::size_t i = 0; i < aggs_.size(); ++i) {
        AggState& st = it->second.states[i];
        double x = 1.0;
        if (aggs_[i].arg) {
          auto v = aggs_[i].arg->Eval(local);
          if (!v.ok()) return v.status();
          if (v.value().is_null()) continue;
          x = v.value().AsDouble();
        }
        st.sum += x;
        ++st.count;
        st.min = std::min(st.min, x);
        st.max = std::max(st.max, x);
      }
    }
    input_->Close();
    // Global aggregate over empty input still yields one row.
    if (group_exprs_.empty() && groups_.empty()) {
      auto [it, _] = groups_.try_emplace("");
      it->second.states.resize(aggs_.size());
      order_.push_back(&it->second);
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= order_.size()) return false;
    const Group& g = *order_[pos_++];
    *out = g.key;
    for (std::size_t i = 0; i < aggs_.size(); ++i) {
      const AggState& st = g.states[i];
      switch (aggs_[i].kind) {
        case AggKind::kCount:
          out->push_back(Value(st.count));
          break;
        case AggKind::kSum:
          out->push_back(Value(st.sum));
          break;
        case AggKind::kAvg:
          out->push_back(st.count ? Value(st.sum / st.count) : Value::Null());
          break;
        case AggKind::kMin:
          out->push_back(st.count ? Value(st.min) : Value::Null());
          break;
        case AggKind::kMax:
          out->push_back(st.count ? Value(st.max) : Value::Null());
          break;
      }
    }
    return true;
  }

  void Close() override {}

 private:
  struct Group {
    Row key;
    std::vector<AggState> states;
  };

  PlanNodePtr input_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  std::unordered_map<std::string, Group> groups_;
  std::vector<const Group*> order_;
  std::size_t pos_ = 0;
};

}  // namespace

PlanNodePtr MakeTableScan(const Table* table) {
  return std::make_unique<TableScanNode>(table);
}
PlanNodePtr MakeOwnedTableScan(Table table) {
  return std::make_unique<TableScanNode>(std::move(table), true);
}
PlanNodePtr MakeDualScan() { return std::make_unique<DualScanNode>(); }

PlanNodePtr MakeSingleRowScan(Schema schema, SingleRowFn fill) {
  return std::make_unique<SingleRowScanNode>(std::move(schema),
                                             std::move(fill));
}

PlanNodePtr MakeFilter(PlanNodePtr input, ExprPtr predicate) {
  return std::make_unique<FilterNode>(std::move(input), std::move(predicate));
}
PlanNodePtr MakeProject(PlanNodePtr input, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names) {
  return std::make_unique<ProjectNode>(std::move(input), std::move(exprs),
                                       std::move(names));
}
PlanNodePtr MakeHashAggregate(PlanNodePtr input,
                              std::vector<ExprPtr> group_exprs,
                              std::vector<std::string> group_names,
                              std::vector<AggSpec> aggs) {
  return std::make_unique<HashAggregateNode>(
      std::move(input), std::move(group_exprs), std::move(group_names),
      std::move(aggs));
}

Result<Table> ExecuteToTable(PlanNode& plan, EvalContext& ctx) {
  JIGSAW_RETURN_IF_ERROR(plan.Open(ctx));
  Table out(plan.schema());
  Row row;
  for (;;) {
    JIGSAW_ASSIGN_OR_RETURN(bool has, plan.Next(&row));
    if (!has) break;
    // Plan schemas are dynamically typed (ProjectNode declares kDouble by
    // default even when an expression emits strings), so materialization
    // bypasses AddRow's declared-type validation.
    out.AppendRowUnchecked(std::move(row));
    row = Row{};
  }
  plan.Close();
  return out;
}

}  // namespace jigsaw::pdb
