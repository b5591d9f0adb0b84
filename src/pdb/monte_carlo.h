#pragma once

/// \file monte_carlo.h
/// The possible-worlds folds of the mini-MCDB layer (Section 2.1):
/// "instantiates a finite set of databases by sampling randomly from the
/// set of possible worlds. Queries are run on each sampled world ... and
/// the results are aggregated into a metric or binned into a histogram."
///
/// Every fold here runs one cell-grid fold, FoldWorldCells: each
/// (sweep point, batch_size world chunk) cell fills a WorldExtent — one
/// double row per world for a row program, the gathered tuples of every
/// world for a join — and each point's columns then fold over its cells
/// in world order. In U-relations terms both are world-partitioned
/// relations ("Fast and Simple Relational Processing of Uncertain
/// Data"), so one fold serves both. FoldPointWorldSpans adapts it to row
/// programs (MONTECARLO [OVER @p], compiled or interpreted), FoldWorlds
/// to the boxed per-world plans of the layered Figure 7 baseline, and
/// FoldJoinedVGColumns (pdb/join.h) to uncertain joins.
///
/// Worlds are embarrassingly parallel: each world's randomness is a pure
/// function of its seed, so with a ThreadPool the cells run as pool
/// tasks, each point's columns fold as pool tasks, and the merge reads
/// both in world order — bit-identical to the serial fold at every
/// (threads, batch_size) combination.

#include <cstdint>
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

/// Prefixes a sweep-point failure with its point coordinate ("sweep
/// point k: ..."), preserving the status code. The single format every
/// sweep path uses — FoldWorldCells, LayeredEngine::RunSweep and the
/// joined MONTECARLO OVER — so errors name the failing point identically
/// on both engines.
Status NameSweepPoint(std::size_t point, Status status);

/// Fills one cell of FoldWorldCells's grid: appends worlds [begin, end)
/// of sweep point `point` to `*cell`, in world order, recording each
/// world's first row in `cell->row_offsets`. `cell->data` arrives empty
/// with the fold's per-world columns, `cell->certain` with its certain
/// ones, and `cell->world_begin` is `begin`. The certain rows are staged
/// once, by the time the first world is recorded, and every recorded
/// world holds them.
/// Cells are filled concurrently from pool tasks, each into its own
/// extent, so the callable must be thread-safe. On error the returned
/// status must be the one the lowest failing world of the cell would
/// have produced serially, and the extent must hold no row of that
/// world or a later one (the earlier worlds it holds still fold, so a
/// NULL among them wins).
using WorldCellFn = std::function<Status(
    std::size_t point, std::size_t begin, std::size_t end,
    WorldExtent* cell)>;

/// The possible-worlds cell-grid fold every other fold runs. Evaluates the
/// num_points x num_worlds grid, one (point, batch_size world chunk)
/// cell per `fill` call, each into a WorldExtent it alone writes (the
/// shard-ownership rule). Output column s, named `columns.column(s).name`,
/// folds that column of every cell of a point in world order into one
/// Estimator, finalized where its values lie: a column whose cells are
/// all NULL-free doubles is borrowed from them (Estimator::AddBorrowed),
/// and any other is copied into an estimator buffer reserved for exactly
/// the point's rows.
/// The columns whose indices `certain` lists are world-invariant: a
/// cell's `certain` table holds them (in column order) once for all of
/// its worlds, its `data` holds the others, and each folds as one cell's
/// rows repeated once per completed world of the point
/// (Estimator::AddRepeated), with the same bits as folding every world's
/// copy.
/// With a non-null `pool` the cells run as one ThreadPool::ParallelFor,
/// then the (point, column) folds as another; without one the same loops
/// run on the caller, the cells stopping at the first failure. Point k's
/// summaries are bit-identical to a one-point fold of its cells, and to
/// a world-at-a-time fold of the same rows, at every chunk partition.
/// Points stream through windows of about 128 MB of staged cells, never
/// less than one point.
///
/// The surfaced error is the serial point-by-point, world-major loop's,
/// whatever the schedule: in the lowest failing point, the lowest world
/// that fails, either in `fill` or by holding a NULL in a folded column
/// (a world's `fill` error comes before its NULLs; NULLs in one world go
/// to the lowest column, never the earliest row; a NULL in a certain
/// column is in the point's first completed world). It is prefixed with
/// "sweep point k" only when there is more than one point, so a
/// one-point fold keeps the standalone statement's raw error byte for
/// byte. `columns` must be numeric (double, int or bool); zero worlds
/// yield a zero-count summary per column.
Result<std::vector<std::map<std::string, OutputMetrics>>> FoldWorldCells(
    const Schema& columns, std::span<const std::size_t> certain,
    std::size_t num_points, std::size_t num_worlds, const RunConfig& config,
    ThreadPool* pool, const WorldCellFn& fill);

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

/// The row-program possible-worlds fold (MONTECARLO [OVER @p]):
/// FoldWorldCells over one DOUBLE column per name of `column_names`,
/// each cell holding one row per world that `run_span` writes straight
/// into the cell's column spans. Errors and windows are FoldWorldCells's;
/// zero worlds yield one empty map per point.
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

namespace internal {
/// Folds rows [first, last) of one realized column into *est — the
/// tuple-level fold kernel FoldWorldCells runs on every cell column, so
/// every fold reports byte-identical "column 'X' is not numeric" errors.
/// kDouble reads the chunk's span directly; int/bool widen through a
/// bounded block of doubles, never a range-sized copy; a null anywhere is
/// non-numeric, as in the boxed Table::NumericColumn walk. With `copies`
/// other than 1 the rows fold as that many concatenated copies
/// (Estimator::AddRepeated); an int/bool range then widens whole.
Status FoldChunkColumn(const ColumnChunk& col, std::size_t first,
                       std::size_t last, const std::string& name,
                       Estimator* est, std::int64_t copies = 1);

/// Test hook: when nonzero, overrides the staged-bytes budget that
/// bounds how many sweep points FoldWorldCells keeps in flight, forcing
/// multi-window execution at unit-test sizes. Not synchronized — set it
/// before any fold runs and restore it after.
extern std::size_t g_fold_staged_budget_override;
}  // namespace internal

}  // namespace jigsaw::pdb
