#pragma once

/// \file join.h
/// World-partitioned equi-join over columnar possible-worlds storage —
/// the first relational operator above scan-project-fold on the
/// ColumnChunk representation. "Joining relations under discrete
/// uncertainty" compares sort- and index-based join algorithms; the join
/// here is sort-merge, which measured 1.5 to 2.6 times faster than a
/// hash join at every input size: per world, stable-sort the row indices
/// of each side by key (ties broken by row index, which stable sort
/// preserves for free), merge equal-key groups, then restore the
/// canonical (left row, right row) order.
///
/// The canonical output order is the serial boxed nested-loop order:
/// for each left row ascending, its matches with right rows ascending.
/// That nested-loop join is the tests' reference oracle
/// (tests/boxed_reference.h): every threads x batch combination must be
/// bit-identical to it — values, output row order,
/// error text and error ordering. NULL join keys never match anything
/// (not even another NULL), matching SQL semantics; NaN double keys
/// likewise never match.
///
/// Worlds never mix: the join runs within each world partition, so a
/// W-world join is W independent per-world joins — the U-relations view
/// of world membership as a condition column that both sides must agree
/// on ("Fast and Simple Relational Processing of Uncertain Data").
/// FoldJoinedVGColumns is a one-point FoldWorldCells (pdb/monte_carlo.h),
/// the cell-grid fold the row-program folds run too: each world-chunk
/// cell runs its worlds through a one-world-at-a-time pipeline (realize
/// both sides, match, gather only the folded columns), then each folded
/// column folds and finalizes as its own pool task. A NULL-free kDouble
/// column is finalized where the cells gathered it: the estimator
/// borrows each cell's span (Estimator::AddBorrowed), and the quantiles
/// and histogram read it there.
/// U-relations store certain attributes once, and so does the fold: when
/// both keys are certain (VGTableFunction::CertainColumns), every world
/// matches the same pairs, so a cell matches once, and a requested
/// column whose source is certain too is gathered once per cell and
/// folds as that one base, repeated once per world.

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/run_config.h"
#include "pdb/columnar.h"
#include "pdb/table.h"
#include "pdb/vg_table.h"
#include "random/seed_vector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace jigsaw::pdb {

/// Equi-join key specification: one key column per side, by name
/// (resolved case-insensitively, like every schema lookup).
struct JoinSpec {
  std::string left_key;
  std::string right_key;
};

/// A JoinSpec resolved against both input schemas: key slots, the common
/// key type, and the concatenated output schema. Resolution happens once
/// up front, so a bad key name, a key type mismatch or a duplicate
/// output column fails before any world is realized — with the same
/// error text and ordering on every execution path.
struct ResolvedJoin {
  std::size_t left_slot = 0;
  std::size_t right_slot = 0;
  ValueType key_type = ValueType::kDouble;
  Schema output;  ///< left columns then right columns
};

/// Resolves `spec` against the two input schemas. Errors, in resolution
/// order: unknown left key, unknown right key ("no column named 'x'"),
/// mismatched key types, duplicate output column name.
Result<ResolvedJoin> ResolveJoin(const Schema& left, const Schema& right,
                                 const JoinSpec& spec);

/// Span-kernel join of one world partition, the match-and-gather kernel
/// every join path runs: matches rows [left_first, left_last) of `left`
/// with rows [right_first, right_last) of `right` and appends, for each
/// matched pair in canonical nested-loop order, the join.output columns
/// listed in `output_columns` (join.output slots, in order; a slot may
/// repeat) to `*out`, whose column i must have the type of
/// join.output column output_columns[i]. Bit-identical to the
/// nested-loop join over the same partition, projected to the same
/// columns.
Status JoinPartition(const ColumnarTable& left, std::size_t left_first,
                     std::size_t left_last, const ColumnarTable& right,
                     std::size_t right_first, std::size_t right_last,
                     const ResolvedJoin& join,
                     std::span<const std::size_t> output_columns,
                     ColumnarTable* out);

/// World-partitioned join of two realized multi-world extents: world k
/// of `left` joins world k of `right` (both extents must cover the same
/// contiguous world range) through JoinPartition over every join.output
/// column, appending each world's joined partition to `*out` and its
/// first row to `out->row_offsets` — the joined relation keeps its world
/// partitioning, so it can feed further world-partitioned operators.
/// `out->data` is initialized to `join.output` if it has no columns yet.
/// `algorithm` has one value and is ignored.
Status JoinWorlds(const WorldExtent& left, const WorldExtent& right,
                  const ResolvedJoin& join, JoinAlgorithm algorithm,
                  WorldExtent* out);

/// Tuple-level possible-worlds join + fold: realizes both tables in
/// every world of [0, num_worlds), joins each world's partitions, and
/// folds each requested numeric column of the joined relation — every
/// joined tuple of every world, concatenated in (world, row) order —
/// into an OutputMetrics summary. The join and the requested names
/// resolve against the full joined schema before any world is realized
/// (the first unknown or non-numeric name in request order fails), then
/// a `seeds` shorter than `num_worlds` is an InvalidArgument.
///
/// It is a one-point FoldWorldCells: each batch_size world chunk is one
/// cell (one pool task) that pipelines its worlds one at a time — realize
/// left, realize right (so generator errors surface in the serial
/// order), match, and append only the requested columns of the matched
/// tuples to the cell — so each task holds one world of input at a time
/// and the unrequested joined columns are never built. When both keys
/// are certain, the cell matches its first world's keys for all of its
/// worlds and gathers the requested certain columns once, from that
/// world; a later world with another row count is an Internal error (its
/// table broke its certainty declaration). Each requested column then
/// folds and finalizes as its own pool task, in world order. A NULL in a
/// folded column of a matched tuple surfaces the world-major loop's
/// error: lowest failing world first (a generator failure in a later
/// world never masks it; a certain column's NULL is in the first world),
/// then lowest requested column. Metrics, error text and error ordering
/// are bit-identical to a serial boxed fold over the nested-loop join;
/// zero worlds yield a zero-count summary per column.
/// With a non-null `cache`, each world's inputs are borrowed from the
/// WorldCache instead of realized locally.
Result<std::map<std::string, OutputMetrics>> FoldJoinedVGColumns(
    const VGTableFunctionPtr& left, const VGTableFunctionPtr& right,
    const JoinSpec& spec, std::span<const std::string> column_names,
    std::size_t num_worlds, const SeedVector& seeds, const RunConfig& config,
    ThreadPool* pool, WorldCache* cache = nullptr);

}  // namespace jigsaw::pdb
