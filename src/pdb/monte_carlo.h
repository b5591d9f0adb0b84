#pragma once

/// \file monte_carlo.h
/// The possible-worlds folds of the mini-MCDB layer (Section 2.1):
/// "instantiates a finite set of databases by sampling randomly from the
/// set of possible worlds. Queries are run on each sampled world ... and
/// the results are aggregated into a metric or binned into a histogram."
///
/// A row program yields one row per world; FoldPointWorldSpans folds it
/// over the points x worlds cell grid of a MONTECARLO [OVER @p]
/// statement, compiled or interpreted, and FoldWorlds folds a boxed
/// per-world plan for the layered Figure 7 baseline on top of it. VG
/// tables and their joins yield many tuples per world; FoldVGColumns and
/// FoldJoinedVGColumns (pdb/join.h) fold every one of them.
///
/// Worlds are embarrassingly parallel: each world's randomness is a pure
/// function of its seed, so with a ThreadPool the folds fan
/// batch_size-sized world chunks out as pool tasks and merge them in
/// world order — bit-identical to the serial fold at every (threads,
/// batch_size) combination.

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/run_config.h"
#include "pdb/vg_table.h"
#include "random/seed_vector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace jigsaw::pdb {

/// Per-point world evaluator: fills `columns[slot][i]` with output
/// column `slot` of world `world_begin + i` evaluated at sweep point
/// `point`, for i in [0, count). Cells are evaluated concurrently from
/// pool tasks, so the callable must be thread-safe. On error the returned
/// status must be the one the lowest failing world in the span would have
/// produced serially (BatchProgram::RunAll and the interpreter's
/// world-at-a-time loop both guarantee this).
using PointWorldSpanFn = std::function<Status(
    std::size_t point, std::size_t world_begin, std::size_t count,
    std::span<double* const> columns)>;

/// Prefixes a sweep-point failure with its point coordinate ("sweep
/// point k: ..."), preserving the status code. The single format every
/// sweep path uses — FoldPointWorldSpans, LayeredEngine::RunSweep and the
/// joined MONTECARLO OVER — so errors name the failing point identically
/// on both engines.
Status NameSweepPoint(std::size_t point, Status status);

/// The row-program possible-worlds fold (MONTECARLO [OVER @p]): evaluates
/// the num_points x num_worlds cell grid, one (point, batch_size world
/// chunk) cell per `run_span` call, fanning every cell out on `pool` at
/// once when present, and merges each point's chunks in world order
/// through Estimator::AddSpan into one OutputMetrics per name of
/// `column_names`. Point k's summaries are bit-identical to a one-point
/// fold over `run_span(k, ...)`, and to a world-at-a-time fold of the
/// same values, at every chunk partition. Points stream through windows
/// of about 128 MB of staged doubles, never less than one point.
///
/// On failure the surfaced error is the one the serial point-by-point,
/// world-at-a-time loop would report — the lowest failing point's lowest
/// failing world — prefixed (when there is more than one point) with
/// "sweep point k"; a one-point fold keeps the standalone statement's
/// raw error byte for byte. Zero worlds yield one empty map per point.
Result<std::vector<std::map<std::string, OutputMetrics>>>
FoldPointWorldSpans(std::span<const std::string> column_names,
                    std::size_t num_points, std::size_t num_worlds,
                    const RunConfig& config, ThreadPool* pool,
                    const PointWorldSpanFn& run_span);

/// Evaluates one possible world into its single-row result table. Called
/// concurrently from pool tasks when a ThreadPool is supplied, so the
/// callable must be thread-safe (each invocation builds its own plan and
/// evaluation state; shared caches such as WorldCache synchronize
/// internally).
using WorldFn = std::function<Result<Table>(std::size_t world)>;

/// Boxed per-world plan fold of the layered engine (the Figure 7
/// baseline): folds each numeric output column of `run_world`'s one-row
/// tables over [0, num_worlds). World 0 runs first, on the caller, and
/// locks the output layout: non-numeric columns are excluded from the
/// result (they have no distribution to summarize), and a later world
/// whose row count, width or per-column numeric-ness differs is an
/// ExecutionError rather than a silently skewed statistic. The remaining
/// worlds run as the one-point FoldPointWorldSpans, which reuses world
/// 0's row, so every world runs exactly once.
Result<std::map<std::string, OutputMetrics>> FoldWorlds(
    std::size_t num_worlds, const RunConfig& config, ThreadPool* pool,
    const WorldFn& run_world);

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
/// bounds how many sweep points FoldPointWorldSpans keeps in flight,
/// forcing multi-window execution at unit-test sizes. Not synchronized —
/// set it before any fold runs and restore it after.
extern std::size_t g_fold_staged_budget_override;
}  // namespace internal

}  // namespace jigsaw::pdb
