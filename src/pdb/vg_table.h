#pragma once

/// \file vg_table.h
/// VG-function tables: the MCDB mechanism by which uncertain relations are
/// realized. "Each random table ... is represented on disk by its schema,
/// together with a set of black-box functions that are used to generate
/// realizations of uncertain attribute values" (Section 2.3). A
/// VGTableFunction generates one realization (one possible world's
/// instance) of its table for a given sample; a WorldCache memoizes
/// realizations per (table, sample) so that set-oriented engines touch the
/// generator once per world — the data-management advantage the paper's
/// SQL Server prototype shows on UserSelection (Figure 7).
///
/// Realizations are stored as contiguous `ColumnarTable`s (see
/// columnar.h). Generators that override `GenerateColumnarInto` write
/// model draws straight into column spans; the default adapter boxes
/// through `Generate`. Both must realize bit-identical values from
/// identical (seeds, sample_id): `Generate` is the boxed view of the same
/// draws, kept for the interop edges and as the tests' reference.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "pdb/columnar.h"
#include "pdb/table.h"
#include "random/seed_vector.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"

namespace jigsaw::pdb {

class VGTableFunction {
 public:
  virtual ~VGTableFunction() = default;

  virtual const std::string& name() const = 0;
  virtual const Schema& schema() const = 0;

  /// Generates the realization of this table in possible world
  /// `sample_id`. Randomness must derive from (seeds, sample_id) only.
  virtual Result<Table> Generate(std::size_t sample_id,
                                 const SeedVector& seeds) const = 0;

  /// Appends this table's realization in world `sample_id` to `*out`
  /// (which must have this function's schema; existing rows are kept, so
  /// a multi-world extent accumulates realizations back to back). The
  /// default adapter calls `Generate` and boxes row by row; generators on
  /// the hot path override it to bulk-fill column spans. Overrides MUST
  /// consume the random stream exactly as `Generate` does.
  virtual Status GenerateColumnarInto(std::size_t sample_id,
                                      const SeedVector& seeds,
                                      ColumnarTable* out) const;

  /// Convenience: one realization as a fresh ColumnarTable.
  Result<ColumnarTable> GenerateColumnar(std::size_t sample_id,
                                         const SeedVector& seeds) const;

  /// The certain (world-invariant) columns, as ascending schema slots:
  /// each holds the same values and NULLs in every world, and a table
  /// that names any realizes the same row count in every world. This is
  /// U-relations' split of certain from uncertain attributes ("Fast and
  /// Simple Relational Processing of Uncertain Data"): work that reads
  /// only certain columns may run once, on any one world, for all of
  /// them. Realization does not change; every world still writes these
  /// columns. By default a table names none.
  virtual std::span<const std::size_t> CertainColumns() const { return {}; }
};

using VGTableFunctionPtr = std::shared_ptr<const VGTableFunction>;

/// One pool task's disjoint shard of a multi-world columnar
/// materialization. The shard-ownership rule: FoldWorldCells
/// (monte_carlo.h) hands each (point, world chunk) cell one WorldExtent
/// covering a contiguous run of worlds — one row per world for a row
/// program, the gathered tuples of each world for a join — and only that
/// cell's task appends to it, so parallel realization needs no
/// synchronization and no cross-task writes. The worlds are contiguous,
/// so their offsets are the whole world annotation: `row_offsets[k]` is
/// the first row of world `world_begin + k`, with `data.num_rows()`
/// closing the last. A fold whose columns include certain ones stages
/// those once, in `certain`: every world of the extent holds its rows.
struct WorldExtent {
  std::size_t world_begin = 0;
  ColumnarTable data;
  std::vector<std::size_t> row_offsets;
  ColumnarTable certain;

  /// Realizes world `sample_id` at the end of `data` (initializing the
  /// schema from `fn` on first use) and records its first row.
  Status AppendWorld(const VGTableFunction& fn, std::size_t sample_id,
                     const SeedVector& seeds);

  /// Row range [first, last) of the k-th appended world.
  std::pair<std::size_t, std::size_t> WorldRows(std::size_t k) const {
    const std::size_t last =
        k + 1 < row_offsets.size() ? row_offsets[k + 1] : data.num_rows();
    return {row_offsets[k], last};
  }
};

/// Memoizes realizations per (table name, seed namespace, sample id).
/// Safe to share across the pool tasks of a parallel possible-worlds run
/// AND across concurrent sessions (the session server publishes one cache
/// per catalog snapshot): lookups and inserts are mutex-guarded,
/// generation runs outside the lock, and the first insert of a key wins
/// (so generation_count stays deterministic — one generation per distinct
/// world actually realized). The key includes the seed vector's master
/// seed, so sessions running under different seed namespaces realize
/// disjoint entries instead of silently reading each other's draws,
/// while same-namespace sessions share realizations. Returned pointers
/// stay valid for the cache's lifetime (entries own their tables behind
/// stable unique_ptrs).
class WorldCache {
 public:
  /// Returns the cached columnar realization, generating it on first use.
  Result<const ColumnarTable*> GetOrGenerateColumnar(
      const VGTableFunction& fn, std::size_t sample_id,
      const SeedVector& seeds) JIGSAW_EXCLUDES(mu_);

  std::size_t size() const JIGSAW_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return cache_.size();
  }
  std::uint64_t generation_count() const JIGSAW_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return generations_;
  }

 private:
  using Key = std::tuple<std::string, std::uint64_t, std::size_t>;

  static Key MakeKey(const VGTableFunction& fn, std::size_t sample_id,
                     const SeedVector& seeds);

  mutable Mutex mu_;
  /// Each realization lives behind a unique_ptr that is set once and
  /// never replaced, so pointers handed out under one lock scope stay
  /// valid after it — only the map structure needs the guard.
  std::map<Key, std::unique_ptr<const ColumnarTable>> cache_
      JIGSAW_GUARDED_BY(mu_);
  std::uint64_t generations_ JIGSAW_GUARDED_BY(mu_) = 0;
};

/// The synthetic user-population VG table behind the UserSelection
/// workload: one row per user with columns
///   (user_id INT, signup_week DOUBLE, requirement DOUBLE)
/// where `requirement` is the stochastic per-user demand draw for this
/// world (the peak of `sim_depth` intra-week LogNormal(0, spread) usage
/// draws, times the user's base demand) and the other attributes are
/// deterministic population data. The columnar realization takes the
/// peaks through RandomStream::MaxLogNormal, which calls log, sqrt, cos
/// and exp only for the draws that can win (about 6% at depth 16),
/// bit-identical to `Generate`'s draw loop;
/// the world-invariant population (16 B per user) is derived once per
/// table, on its first realization, never at construction. `user_id`
/// and `signup_week` are its certain columns.
VGTableFunctionPtr MakeUsersVGTable(int num_users, double arrival_rate,
                                    double base_demand, double spread,
                                    int sim_depth = 16);

/// A row-count-scaling uncertain inventory table for the
/// millions-of-tuples regime (Stochastic SketchRefine's target scale):
///   (item_id INT, demand DOUBLE, cost DOUBLE, in_stock BOOL,
///    region STRING)
/// `demand` and `cost` are per-world draws (two draws per row, so storage
/// cost — not the generator — dominates at scale); `item_id`, `in_stock`
/// and the four-value `region` dictionary are deterministic attributes,
/// its certain columns.
VGTableFunctionPtr MakeScalingItemsVGTable(std::size_t num_rows,
                                           double demand_mu = 1.0,
                                           double demand_sigma = 0.5,
                                           double cost_base = 10.0);

}  // namespace jigsaw::pdb
