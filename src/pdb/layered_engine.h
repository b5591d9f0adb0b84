#pragma once

/// \file layered_engine.h
/// Stand-in for the paper's original prototype — "a C# PDB layer built on
/// top of Microsoft SQL Server" whose timings were "polluted by noise from
/// interprocess communication and SQL interpretation and evaluation
/// overheads" (Section 6.1). We reproduce those structural overheads
/// honestly rather than with sleeps:
///
///  * the query plan is rebuilt for every invocation (SQL re-submission);
///  * evaluation is interpreted, row-at-a-time, over boxed Values;
///  * every result row crosses a string-serialization boundary and is
///    parsed back (the external-process interop);
///
/// and we also give it the genuine DBMS advantage: VG table realizations
/// are materialized once per world in a WorldCache and re-scanned
/// set-at-a-time, which is why this engine *wins* on the data-bound
/// UserSelection workload exactly as SQL Server beat the Ruby engine.
///
/// A SQL row program slots in at the leaf level as a one-row
/// MakeSingleRowScan node that evaluates the program for the plan's
/// world, compiled or interpreted, mirroring how the original DBMS
/// baseline still ran compiled scans inside its interpreted executor.
/// The per-world re-planning and the row serialization boundary — the
/// overheads this engine exists to model — apply to either leaf
/// unchanged, and results stay bit-identical between them. The worlds
/// fold through pdb::FoldWorlds.

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/run_config.h"
#include "pdb/operators.h"
#include "pdb/vg_table.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace jigsaw::pdb {

struct LayeredPointResult {
  std::map<std::string, OutputMetrics> columns;
};

struct LayeredEngineStats {
  std::uint64_t plans_built = 0;
  std::uint64_t rows_serialized = 0;
  std::uint64_t worlds_generated = 0;
};

class LayeredEngine {
 public:
  /// `shared_cache`, when non-null, replaces the engine's private
  /// WorldCache — the session server publishes one cache per catalog
  /// snapshot so realizations amortize across every session that runs the
  /// script. The cache keys realizations by (table, master seed, world),
  /// so engines running under different seed namespaces never collide in
  /// it; it must outlive the engine.
  explicit LayeredEngine(const RunConfig& config,
                         WorldCache* shared_cache = nullptr)
      : config_(config),
        seeds_(config.master_seed, config.num_samples) {
    if (config_.batch_size == 0) config_.batch_size = 1;
    cache_ = shared_cache != nullptr ? shared_cache : &owned_cache_;
    pool_ = ResolvePool(config_, &owned_pool_);
  }

  /// Builds the per-invocation plan for one (parameter valuation, world):
  /// called once per sample per point, modeling per-query SQL submission.
  /// The factory may capture the engine's WorldCache for VG scans. With
  /// num_threads > 1 worlds evaluate concurrently (the original prototype
  /// ran its per-world queries against a multi-session DBMS, after all),
  /// so the factory must be thread-safe; WorldCache already is.
  using PlanFactory = std::function<Result<PlanNodePtr>()>;

  /// Evaluates one parameter point with n interpreted possible-world
  /// queries. The plan must yield exactly one row.
  Result<LayeredPointResult> RunPoint(const PlanFactory& make_plan,
                                      std::span<const double> params);

  /// Sweep over explicit valuations (MONTECARLO OVER @p): one RunPoint
  /// per entry, in index order — points stay serial (the prototype
  /// re-submits each point's queries to the DBMS) while each point's
  /// worlds fan out on the engine's pool, and the WorldCache amortizes
  /// realizations across points. Entry k is bit-identical to a standalone
  /// RunPoint at valuations[k]; a failing point's error is prefixed with
  /// "sweep point k" when the sweep has more than one point, matching the
  /// direct fold's sweep contract (FoldPointWorldSpans).
  Result<std::vector<LayeredPointResult>> RunSweep(
      const PlanFactory& make_plan,
      std::span<const std::vector<double>> valuations);

  WorldCache& world_cache() { return *cache_; }
  const SeedVector& seeds() const { return seeds_; }
  /// Note: with a shared cache, `worlds_generated` counts cache-wide
  /// generations observed during this engine's runs — concurrent sibling
  /// sessions inflate it. Per-session result determinism is unaffected
  /// (stats never feed back into evaluation).
  const LayeredEngineStats& stats() const { return stats_; }

 private:
  RunConfig config_;
  SeedVector seeds_;
  WorldCache owned_cache_;
  WorldCache* cache_ = nullptr;  ///< owned_cache_ or the shared snapshot
  LayeredEngineStats stats_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  ///< owned_pool_ or config_.shared_pool
};

/// A VG scan node bound to a LayeredEngine world cache: scans the cached
/// realization of `fn` for the current world, generating it on first use.
PlanNodePtr MakeCachedVGScan(VGTableFunctionPtr fn, WorldCache* cache);

}  // namespace jigsaw::pdb
