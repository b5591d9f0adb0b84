// join_1e6: a MONTECARLO FROM ... JOIN statement folding 1,048,576
// joined tuples per operation (8192 x 8192 rows keyed 1:1, 128 worlds).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "decorators.h"
#include "digest.h"
#include "pdb/join.h"
#include "pdb/monte_carlo.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/script_runner.h"
#include "stats.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using jigsaw::Result;
using jigsaw::Status;

// The scenario SELECT is mandatory in every script; a joined MONTECARLO
// never evaluates it.
std::string JoinScript(int rows) {
  const std::string n = std::to_string(rows);
  return "SELECT 1 AS one INTO r;\n"
         "MONTECARLO FROM users(" + n + ", 0.8, 5.0, 2.0) AS u JOIN items(" +
         n + ") AS i ON u.user_id = i.item_id;\n";
}

class Join1e6 final : public BatchWorkload {
 public:
  explicit Join1e6(const WorkloadOptions& options)
      : rows_(options.tiny ? 64 : 8192), script_(JoinScript(rows_)) {
    config_.num_samples = options.tiny ? 16 : 128;
    config_.batch_size = options.tiny ? 8 : 64;
    config_.num_threads = 2;
    config_.master_seed = options.seed;
    tuples_ = static_cast<std::int64_t>(rows_) *
              static_cast<std::int64_t>(config_.num_samples);
  }

  const char* name() const override { return "join_1e6"; }
  double work_per_op() const override { return static_cast<double>(tuples_); }
  const char* work_unit() const override { return "joined tuples"; }

  Status SetUp(const WorkloadOptions& options) override {
    JIGSAW_ASSIGN_OR_RETURN(registry_, CloudModels(options.trace));
    if (options.trace) {
      pool_ = std::make_unique<jigsaw::ThreadPool>(config_.num_threads);
    }
    runner_ = std::make_unique<jigsaw::sql::ScriptRunner>(registry_.get(),
                                                          config_);
    return Status::OK();
  }

  Result<std::uint64_t> RunOp(std::size_t /*variant*/) override {
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::ScriptOutcome outcome,
                            runner_->Run(script_));
    report_bytes_ += outcome.Report().size();
    if (!outcome.montecarlo) return Status::ExecutionError("no MONTECARLO");
    return Check(outcome.montecarlo->columns);
  }

  /// The statement re-run layer by layer: both sides realized world by
  /// world into per-chunk WorldExtents on the pool, joined per chunk,
  /// folded in world order with the statement's fold kernel, then
  /// finalized per column — FoldJoinedVGColumns's columnar path.
  Result<std::uint64_t> RunTracedOp(std::size_t /*variant*/) override {
    OperationScope op;
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::Script script,
                            InSpan(SpanKind::kSqlParse, [&] {
                              return jigsaw::sql::ParseScript(script_);
                            }));
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::BoundScript bound,
                            InSpan(SpanKind::kSqlBind, [&] {
                              return jigsaw::sql::Binder(registry_.get())
                                  .Bind(script);
                            }));
    if (!bound.montecarlo || !bound.montecarlo->join) {
      return Status::ExecutionError("script has no joined MONTECARLO");
    }
    const jigsaw::sql::MonteCarloJoinSpec& join = *bound.montecarlo->join;
    std::vector<std::string> names;
    std::vector<std::size_t> slots;
    for (std::size_t c = 0; c < join.resolved.output.num_columns(); ++c) {
      if (join.resolved.output.column(c).type != jigsaw::pdb::ValueType::kString) {
        names.push_back(join.resolved.output.column(c).name);
        slots.push_back(c);
      }
    }

    const std::size_t worlds = config_.num_samples;
    const std::size_t batch = config_.batch_size;
    const std::size_t chunks = (worlds + batch - 1) / batch;
    const jigsaw::SeedVector seeds(config_.master_seed, worlds,
                                   config_.seed_schema);
    struct Cell {
      jigsaw::pdb::WorldExtent joined;
      Status status = Status::OK();
    };
    std::vector<Cell> cells(chunks);
    pool_->ParallelFor(chunks, [&](std::size_t chunk) {
      Cell& cell = cells[chunk];
      const std::size_t begin = chunk * batch;
      const std::size_t end = std::min(begin + batch, worlds);
      jigsaw::pdb::WorldExtent left, right;
      left.world_begin = begin;
      right.world_begin = begin;
      for (std::size_t w = begin; w < end && cell.status.ok(); ++w) {
        ScopedSpan span(SpanKind::kPdbRealize);
        const std::size_t before =
            left.data.num_rows() + right.data.num_rows();
        cell.status = left.AppendWorld(*join.left, w, seeds);
        if (cell.status.ok()) {
          cell.status = right.AppendWorld(*join.right, w, seeds);
        }
        span.set_items(static_cast<std::uint32_t>(
            left.data.num_rows() + right.data.num_rows() - before));
      }
      if (!cell.status.ok()) return;
      ScopedSpan span(SpanKind::kPdbJoin);
      cell.status = jigsaw::pdb::JoinWorlds(left, right, join.resolved,
                                            config_.join_algorithm,
                                            &cell.joined);
      span.set_items(static_cast<std::uint32_t>(cell.joined.data.num_rows()));
    });
    for (const Cell& cell : cells) JIGSAW_RETURN_IF_ERROR(cell.status);

    std::vector<jigsaw::Estimator> estimators(
        slots.size(),
        jigsaw::Estimator(config_.keep_samples, config_.histogram_bins));
    for (Cell& cell : cells) {
      ScopedSpan span(SpanKind::kPdbFold);
      for (std::size_t k = 0; k < cell.joined.row_offsets.size(); ++k) {
        const auto [first, last] = cell.joined.WorldRows(k);
        for (std::size_t s = 0; s < slots.size(); ++s) {
          JIGSAW_RETURN_IF_ERROR(jigsaw::pdb::internal::FoldChunkColumn(
              cell.joined.data.column(slots[s]), first, last, names[s],
              &estimators[s]));
        }
      }
      cell = Cell{};
    }
    jigsaw::sql::MonteCarloOutcome mc;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      ScopedSpan span(SpanKind::kCoreFinalize);
      mc.columns[names[s]] = estimators[s].Finalize();
    }

    mc.worlds = worlds;
    mc.num_threads = config_.num_threads;
    mc.join = join.description;
    mc.master_seed = config_.master_seed;
    jigsaw::sql::ScriptOutcome outcome;
    outcome.montecarlo = std::move(mc);
    outcome.bound = std::move(bound);
    report_bytes_ += outcome.Report().size();
    return Check(outcome.montecarlo->columns);
  }

  Result<std::uint64_t> SerialTwinDigest(std::size_t /*variant*/) override {
    return RunSerial();
  }

  /// util.pool_speedup: the statement's serial twin time over its
  /// threaded time (medians of a few runs each, untraced).
  void AddLayerCounters(WorkloadReport* report) override {
    std::vector<double> serial_ms, threaded_ms;
    for (int i = 0; i < 3; ++i) {
      std::int64_t t = NowNs();
      if (!RunSerial().ok()) report->Fail("serial twin failed");
      serial_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
      t = NowNs();
      if (!RunOp(0).ok()) report->Fail("threaded statement failed");
      threaded_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
    }
    report->Set("util.pool_speedup", Median(serial_ms) / Median(threaded_ms),
                "ratio");
    report->notes.push_back(
        "statement serial " + std::to_string(Median(serial_ms)) +
        " ms, threaded " + std::to_string(Median(threaded_ms)) + " ms");
  }

 private:
  Result<std::uint64_t> RunSerial() {
    jigsaw::RunConfig serial = config_;
    serial.num_threads = 1;
    JIGSAW_ASSIGN_OR_RETURN(auto models, CloudModels(false));
    jigsaw::sql::ScriptRunner twin(models.get(), serial);
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::ScriptOutcome outcome,
                            twin.Run(script_));
    if (!outcome.montecarlo) return Status::ExecutionError("no MONTECARLO");
    return Check(outcome.montecarlo->columns);
  }

  Result<std::uint64_t> Check(
      const std::map<std::string, jigsaw::OutputMetrics>& columns) const {
    if (columns.size() != 7) {
      return Status::ExecutionError("expected 7 numeric joined columns, got " +
                                    std::to_string(columns.size()));
    }
    for (const auto& [name, m] : columns) {
      if (m.count != tuples_) {
        return Status::ExecutionError(
            "column " + name + " folded " + std::to_string(m.count) +
            " tuples, expected " + std::to_string(tuples_));
      }
    }
    Digest d;
    d.Add(columns);
    return d.value();
  }

  int rows_;
  std::string script_;
  std::int64_t tuples_ = 0;
  jigsaw::RunConfig config_;
  std::unique_ptr<jigsaw::ModelRegistry> registry_;
  std::unique_ptr<jigsaw::sql::ScriptRunner> runner_;
  std::unique_ptr<jigsaw::ThreadPool> pool_;  ///< the traced re-run's workers
  std::size_t report_bytes_ = 0;
};

}  // namespace

std::unique_ptr<BatchWorkload> MakeJoin1e6(const WorkloadOptions& o) {
  return std::make_unique<Join1e6>(o);
}

}  // namespace perfbench
