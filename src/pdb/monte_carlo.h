#pragma once

/// \file monte_carlo.h
/// The possible-worlds executor of the mini-MCDB layer (Section 2.1):
/// "instantiates a finite set of databases by sampling randomly from the
/// set of possible worlds. Queries are run on each sampled world ... and
/// the results are aggregated into a metric or binned into a histogram."
///
/// The executor runs a caller-supplied per-world query plan n times (one
/// per sampled world), expects a single result row per world, and folds
/// each numeric output column into an OutputMetrics distribution summary.
///
/// Worlds are embarrassingly parallel: each world's randomness is a pure
/// function of its seed, so with RunConfig::num_threads > 1 the executor
/// fans batch_size-sized world chunks out on a ThreadPool and merges the
/// per-chunk staging buffers in world-index order — bit-identical to the
/// serial run at every (num_threads, batch_size) combination.

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
#include "random/seed_vector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace jigsaw::pdb {

/// Evaluates one possible world into its single-row result table. Invoked
/// concurrently from pool tasks when a ThreadPool is supplied, so the
/// callable must be thread-safe (each invocation builds its own plan and
/// evaluation state; shared caches such as WorldCache synchronize
/// internally).
using WorldFn = std::function<Result<Table>(std::size_t world)>;

/// Shared possible-worlds fold used by MonteCarloExecutor and
/// LayeredEngine. Runs `run_world` for every world in [0, num_worlds) and
/// folds each numeric output column into an OutputMetrics summary.
///
/// World 0 locks the output layout: non-numeric columns are excluded from
/// the result (they have no distribution to summarize), and a column
/// whose numeric-ness flips in a later world is an ExecutionError rather
/// than a silently skewed statistic. With a non-null `pool`, worlds are
/// partitioned into config.batch_size-sized chunks evaluated across the
/// pool into per-chunk per-column staging buffers, then merged in chunk
/// index order through Estimator::AddSpan — bit-identical to the serial
/// fold, which stages through the same buffers.
Result<std::map<std::string, OutputMetrics>> FoldWorlds(
    std::size_t num_worlds, const RunConfig& config, ThreadPool* pool,
    const WorldFn& run_world);

/// Batched world evaluator: fills `columns[slot][i]` with the value of
/// output column `slot` in world `world_begin + i`, for i in [0, count).
/// Used by compiled row programs, which evaluate a whole world chunk in
/// one BatchProgram run instead of one boxed plan per world. On error the
/// returned status must be the one the lowest failing world in the span
/// would have produced serially (BatchProgram::RunAll guarantees this).
using WorldSpanFn = std::function<Status(
    std::size_t world_begin, std::size_t count, std::span<double* const>
    columns)>;

/// Span twin of FoldWorlds for statically-known all-numeric layouts:
/// partitions [0, num_worlds) into the same batch_size chunks, evaluates
/// each chunk with one run_span call (fanned out on `pool` when present),
/// and merges the per-chunk buffers in chunk index order through
/// Estimator::AddSpan — bit-identical to FoldWorlds over the same values.
Result<std::map<std::string, OutputMetrics>> FoldWorldSpans(
    std::span<const std::string> column_names, std::size_t num_worlds,
    const RunConfig& config, ThreadPool* pool, const WorldSpanFn& run_span);

/// Per-point world evaluator for two-axis sweeps: evaluates world `world`
/// of sweep point `point` into its single-row result table. Cells are
/// evaluated concurrently from pool tasks, so the callable must be
/// thread-safe.
using PointWorldFn =
    std::function<Result<Table>(std::size_t point, std::size_t world)>;

/// Span twin for compiled programs: fills `columns[slot][i]` with output
/// column `slot` of world `world_begin + i` evaluated at sweep point
/// `point`.
using PointWorldSpanFn = std::function<Status(
    std::size_t point, std::size_t world_begin, std::size_t count,
    std::span<double* const> columns)>;

/// Prefixes a sweep-point failure with its point coordinate ("sweep
/// point k: ..."), preserving the status code. The single format every
/// sweep path uses — FoldPointWorlds/FoldPointWorldSpans and
/// LayeredEngine::RunSweep — so errors name the failing point
/// identically on both engines.
Status NameSweepPoint(std::size_t point, Status status);

/// Two-axis possible-worlds fold (MONTECARLO OVER @p): evaluates the
/// num_points x num_worlds cell grid by fanning every (point,
/// world-chunk) task out on `pool` at once, then merging chunks in world
/// order within each point and points in index order. Point k's summaries
/// are bit-identical to a standalone FoldWorlds over `run_world(k, .)` —
/// the per-point seed schema is unchanged, so point k's draws match a
/// standalone run at that valuation.
///
/// World 0 of every point runs up front (fanned out on `pool` when
/// present — prepasses touch independent per-point state) to lock that
/// point's column layout, mirroring FoldWorlds. On failure the
/// surfaced error is the one the serial point-by-point loop would report
/// — the lowest failing point's lowest failing world — prefixed (when the
/// sweep has more than one point) with "sweep point k" so two-axis
/// errors name both coordinates; a one-point sweep keeps the standalone
/// statement's raw error byte for byte.
Result<std::vector<std::map<std::string, OutputMetrics>>> FoldPointWorlds(
    std::size_t num_points, std::size_t num_worlds, const RunConfig& config,
    ThreadPool* pool, const PointWorldFn& run_world);

/// Span twin of FoldPointWorlds for statically-known all-numeric layouts:
/// per point, bit-identical to FoldWorldSpans over `run_span(k, ...)`,
/// with the same (point, world-chunk) task fan-out and error contract.
Result<std::vector<std::map<std::string, OutputMetrics>>>
FoldPointWorldSpans(std::span<const std::string> column_names,
                    std::size_t num_points, std::size_t num_worlds,
                    const RunConfig& config, ThreadPool* pool,
                    const PointWorldSpanFn& run_span);

/// Tuple-level possible-worlds fold: realizes `fn` in every world of
/// [0, num_worlds) and folds each requested numeric column's values —
/// every tuple of every world, concatenated in (world, row) order — into
/// an OutputMetrics distribution summary. This is the columnar hot loop
/// (internal::FoldRealizedWorlds): each batch_size world chunk is
/// realized into a WorldExtent owned by exactly one pool task (the
/// shard-ownership rule — zero cross-task writes), generators bulk-fill
/// column spans, and internal::FoldColumnsByWorld then folds and
/// finalizes each requested column as its own pool task, reading the
/// chunk buffers zero-copy through Estimator::AddSpan in world order.
/// Metrics, error text and error ordering are bit-identical to a serial
/// boxed fold over `Generate` and Table::NumericColumn (the serial run
/// stops at the first failing chunk; a parallel run surfaces the same
/// lowest failing chunk's error). `seeds` must hold a seed for every
/// world; a shorter vector is an InvalidArgument before any realization.
///
/// With a non-null `cache`, realizations go through the WorldCache
/// instead of per-fold extents, sharing worlds with other consumers of
/// the same seeds.
Result<std::map<std::string, OutputMetrics>> FoldVGColumns(
    const VGTableFunction& fn, std::span<const std::string> column_names,
    std::size_t num_worlds, const SeedVector& seeds, const RunConfig& config,
    ThreadPool* pool, WorldCache* cache = nullptr);

namespace internal {
/// Folds rows [first, last) of one realized chunk column into *est —
/// the tuple-level fold kernel shared by FoldVGColumns and the join fold
/// (pdb/join.h), so both report byte-identical "column 'X' is not
/// numeric" errors. kDouble with no nulls is the zero-copy AddSpan fast
/// path; int/bool widen through a copy; a null anywhere is non-numeric,
/// as in the boxed Table::NumericColumn walk.
Status FoldChunkColumn(const ColumnChunk& col, std::size_t first,
                       std::size_t last, const std::string& name,
                       Estimator* est);

/// Rows [first, last) of `table`: one realized world, either a world of a
/// shard's WorldExtent or a whole cached one-world table.
struct WorldSlice {
  const ColumnarTable* table = nullptr;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// The merge and finalize of the tuple-level folds
/// (FoldRealizedWorlds): output column s — column `slots[s]` of the
/// realized tables, result name `names[s]` — folds every world of
/// `worlds` in world order through FoldChunkColumn into an Estimator
/// reserved for exactly the worlds' tuple count, then the consuming
/// Estimator::Finalize runs on it. With a non-null `pool` each column is
/// one ThreadPool::ParallelFor task; without one the same per-column loop
/// runs on the caller. Each estimator sees the values a world-major fold
/// feeds it, in the same order, so the metrics are bit-identical to one.
/// On failure the error is the one a world-major fold hits first: the
/// lowest failing world, ties going to the lowest column. The tables
/// behind `worlds` must stay alive until the call returns.
Result<std::map<std::string, OutputMetrics>> FoldColumnsByWorld(
    std::span<const WorldSlice> worlds, std::span<const std::size_t> slots,
    std::span<const std::string> names, const RunConfig& config,
    ThreadPool* pool);

/// The worlds one pool task of a tuple-level fold realized, in world
/// order: appended to its own extent (a join appends only the requested
/// columns of its matched tuples), or borrowed whole from a WorldCache.
/// A chunk fills one or the other, never both.
struct RealizedChunk {
  WorldExtent extent;
  std::vector<const ColumnarTable*> cached;
};

/// Realizes worlds [begin, end) into `*out`, whose extent starts at
/// `begin`. Called concurrently for distinct chunks.
using RealizeChunkFn = std::function<Status(
    std::size_t begin, std::size_t end, RealizedChunk* out)>;

/// Resolves the columns a tuple-level fold requests against `schema`:
/// the slot of each name, in request order. A VG table's schema (and a
/// join's) is world-invariant, so the folds call this before realizing
/// anything; the first unknown name or non-numeric column fails, with
/// the boxed Table::NumericColumn text.
Result<std::vector<std::size_t>> ResolveFoldColumns(
    const Schema& schema, std::span<const std::string> column_names);

/// The body FoldVGColumns and FoldJoinedVGColumns share. Rejects a
/// `seeds` shorter than `num_worlds`, then runs `realize` once per
/// batch_size world chunk — one pool task per chunk when `pool` is
/// non-null and there are two or more, otherwise serially up to the
/// first failure — and returns the lowest failing chunk's error. On
/// success the realized worlds fold through FoldColumnsByWorld while
/// every chunk is still alive: output column s, named `column_names[s]`,
/// reads column `slots[s]` of the tables `realize` produced.
Result<std::map<std::string, OutputMetrics>> FoldRealizedWorlds(
    std::span<const std::size_t> slots,
    std::span<const std::string> column_names, std::size_t num_worlds,
    const SeedVector& seeds, const RunConfig& config, ThreadPool* pool,
    const RealizeChunkFn& realize);

/// Test hook: when nonzero, overrides the staged-doubles budget that
/// bounds how many sweep points the chunk-grid fold keeps in flight,
/// forcing multi-window execution at unit-test sizes. Not synchronized —
/// set it before any fold runs and restore it after.
extern std::size_t g_fold_staged_budget_override;
}  // namespace internal

struct MonteCarloResult {
  /// Per-output-column distribution summaries, keyed by column name.
  /// Only columns that are numeric in world 0 appear.
  std::map<std::string, OutputMetrics> columns;
  std::size_t worlds = 0;
};

class MonteCarloExecutor {
 public:
  explicit MonteCarloExecutor(const RunConfig& config)
      : config_(config),
        seeds_(config.master_seed, config.num_samples, config.seed_schema) {
    if (config_.batch_size == 0) config_.batch_size = 1;
    if (config_.num_threads > 1) {
      // A shared pool (session server) takes precedence over a private
      // one; either way chunk scheduling cannot perturb a draw.
      if (config_.shared_pool != nullptr) {
        pool_ = config_.shared_pool;
      } else {
        owned_pool_ = std::make_unique<ThreadPool>(config_.num_threads);
        pool_ = owned_pool_.get();
      }
    }
  }

  /// `make_plan` builds the per-world query plan (the plan may embed
  /// stochastic expressions and VG scans; the world is selected through
  /// EvalContext::sample_id). The plan must produce exactly one row.
  /// With num_threads > 1 the factory is invoked concurrently from pool
  /// tasks — it must be thread-safe and every call must return an
  /// independent plan (plans carry mutable evaluation state).
  using PlanFactory = std::function<Result<PlanNodePtr>()>;

  Result<MonteCarloResult> Run(const PlanFactory& make_plan,
                               std::span<const double> params);

  /// Compiled-path twin of Run: worlds evaluate as whole spans (one
  /// BatchProgram execution per chunk task) instead of one plan per
  /// world. `column_names` fixes the output layout up front — span
  /// programs are all-numeric by construction.
  Result<MonteCarloResult> RunSpans(std::span<const std::string> column_names,
                                    const WorldSpanFn& run_span);

  /// Sweep twin of Run (MONTECARLO OVER @p): evaluates the plan at every
  /// valuation, fanning (point, world-chunk) tasks out across the shared
  /// pool via FoldPointWorlds. Entry k is bit-identical to a standalone
  /// Run at valuations[k] — same seed vector for every point.
  Result<std::vector<MonteCarloResult>> RunSweep(
      const PlanFactory& make_plan,
      std::span<const std::vector<double>> valuations);

  /// Sweep twin of RunSpans: entry k is bit-identical to a standalone
  /// RunSpans over `run_span(k, ...)`.
  Result<std::vector<MonteCarloResult>> RunSweepSpans(
      std::span<const std::string> column_names, std::size_t num_points,
      const PointWorldSpanFn& run_span);

  const SeedVector& seeds() const { return seeds_; }
  const RunConfig& config() const { return config_; }

 private:
  RunConfig config_;
  SeedVector seeds_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  ///< owned_pool_ or config_.shared_pool
};

}  // namespace jigsaw::pdb
