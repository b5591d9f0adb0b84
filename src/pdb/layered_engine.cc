#include "pdb/layered_engine.h"

#include <atomic>

#include "pdb/monte_carlo.h"
#include "util/logging.h"

namespace jigsaw::pdb {

namespace {

class CachedVGScanNode final : public PlanNode {
 public:
  CachedVGScanNode(VGTableFunctionPtr fn, WorldCache* cache)
      : fn_(std::move(fn)), cache_(cache) {}

  const Schema& schema() const override { return fn_->schema(); }

  Status Open(EvalContext& ctx) override {
    JIGSAW_CHECK(ctx.seeds != nullptr);
    // The realization lives as typed chunks and each Next boxes one row
    // on demand (the Volcano interface is the conversion boundary).
    JIGSAW_ASSIGN_OR_RETURN(
        columnar_,
        cache_->GetOrGenerateColumnar(*fn_, ctx.sample_id, *ctx.seeds));
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= columnar_->num_rows()) return false;
    columnar_->BoxRow(pos_++, out);
    return true;
  }

  void Close() override {}

 private:
  VGTableFunctionPtr fn_;
  WorldCache* cache_;
  const ColumnarTable* columnar_ = nullptr;
  std::size_t pos_ = 0;
};

}  // namespace

PlanNodePtr MakeCachedVGScan(VGTableFunctionPtr fn, WorldCache* cache) {
  return std::make_unique<CachedVGScanNode>(std::move(fn), cache);
}

Result<LayeredPointResult> LayeredEngine::RunPoint(
    const PlanFactory& make_plan, std::span<const double> params) {
  LayeredPointResult result;

  const std::uint64_t before = cache_->generation_count();
  // Pool tasks bump the counters concurrently; the totals are
  // deterministic on success (every world runs exactly once).
  std::atomic<std::uint64_t> plans_built{0};
  std::atomic<std::uint64_t> rows_serialized{0};

  auto run_world = [&](std::size_t world) -> Result<Table> {
    // Fresh plan per invocation: the layered prototype re-submits the
    // query to the DBMS for every sampled world.
    JIGSAW_ASSIGN_OR_RETURN(PlanNodePtr plan, make_plan());
    plans_built.fetch_add(1, std::memory_order_relaxed);

    EvalContext ctx;
    ctx.params = params;
    ctx.sample_id = world;
    ctx.seeds = &seeds_;
    JIGSAW_ASSIGN_OR_RETURN(Table t, ExecuteToTable(*plan, ctx));

    // Interop boundary: the result set leaves the "DBMS" as text and is
    // parsed back in the "client".
    const std::string wire = t.ToCsv();
    JIGSAW_ASSIGN_OR_RETURN(Table parsed, Table::FromCsv(wire, t.schema()));
    rows_serialized.fetch_add(parsed.num_rows(), std::memory_order_relaxed);
    return parsed;
  };

  auto folded = FoldWorlds(config_.num_samples, config_, pool_,
                           run_world);
  // Record the work actually performed even when a world errors out —
  // the serial loop counted per world before propagating failures.
  stats_.plans_built += plans_built.load();
  stats_.rows_serialized += rows_serialized.load();
  stats_.worlds_generated += cache_->generation_count() - before;
  JIGSAW_RETURN_IF_ERROR(folded.status());
  result.columns = std::move(folded).value();
  return result;
}

Result<std::vector<LayeredPointResult>> LayeredEngine::RunSweep(
    const PlanFactory& make_plan,
    std::span<const std::vector<double>> valuations) {
  std::vector<LayeredPointResult> out;
  out.reserve(valuations.size());
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    auto r = RunPoint(make_plan, valuations[i]);
    if (!r.ok()) {
      // Match the direct fold's contract: multi-point failures name
      // the point, a one-point sweep keeps RunPoint's raw error.
      if (valuations.size() > 1) return NameSweepPoint(i, r.status());
      return r.status();
    }
    out.push_back(std::move(r).value());
  }
  return out;
}

}  // namespace jigsaw::pdb
