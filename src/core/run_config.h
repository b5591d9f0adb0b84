#pragma once

/// \file run_config.h
/// Knobs shared by the batch runner, the Markov-jump runner and the
/// interactive engine. Defaults mirror the paper's experimental setup
/// (Section 6): 1000 sample instances per parameter point, fingerprint
/// size 10.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/fingerprint_index.h"
#include "random/seed_vector.h"
#include "util/thread_pool.h"

namespace jigsaw {

/// The world-partitioned columnar equi-join's kernel (pdb/join.h), the
/// only one. The enum remains because RunConfig::join_algorithm and
/// JoinWorlds's algorithm parameter still name it.
enum class JoinAlgorithm : std::uint8_t {
  kSortMerge,  ///< per-world stable sort of row indices by key
};

struct RunConfig {
  /// n: Monte Carlo sample instances per parameter point.
  std::size_t num_samples = 1000;

  /// m: fingerprint size (the first m of the n samples).
  std::size_t fingerprint_size = 10;

  /// Master toggle: false reproduces the naive "generate everything"
  /// baseline of Figure 8.
  bool use_fingerprints = true;

  /// Index strategy over the basis fingerprints (Section 3.2).
  IndexKind index_kind = IndexKind::kNormalization;

  /// Seed of the global seed vector {sigma_k}.
  std::uint64_t master_seed = 0x5160534A00000001ULL;  // "JIGSAW"-ish tag

  /// Retain every sample in the output metrics (OutputMetrics::samples).
  bool keep_samples = false;

  /// Worker threads for sample evaluation (MCDB runs sampled worlds in
  /// parallel). Results are bit-identical regardless of thread count:
  /// each sample depends only on its seed, and samples are folded into
  /// the estimator in index order.
  std::size_t num_threads = 1;

  /// Samples per SampleBatch call on the hot path. Batching never changes
  /// any draw (sample k always comes from seed sigma_k), so results are
  /// bit-identical at every batch size; the knob only trades per-call
  /// overhead against buffer locality. 0 is treated as 1 (pure scalar).
  std::size_t batch_size = 64;

  /// Worker pool to fan work out on instead of constructing a private
  /// one. Non-owning; must outlive every component handed this config.
  /// When null (the default) and num_threads > 1, each executor creates
  /// its own pool — the standalone behavior. The session server sets it
  /// so every concurrent session submits world-chunk cells to one shared
  /// pool; scheduling never changes a draw, so results stay bit-identical
  /// either way.
  ThreadPool* shared_pool = nullptr;

  /// Bins of every estimator's output histogram. Not a setting: nothing
  /// ever chose another value.
  static constexpr int histogram_bins = 20;

  /// The draw derivation (random/seed_vector.h) and the join kernel
  /// (pdb/join.h). Neither is a setting: each has one value, named here
  /// only for callers that still pass it on.
  static constexpr SeedSchema seed_schema = SeedSchema::kV1;
  static constexpr JoinAlgorithm join_algorithm = JoinAlgorithm::kSortMerge;
};

/// The pool a component handed `config` fans its work out on: none when
/// num_threads <= 1; otherwise `shared_pool` when set, else a private
/// ThreadPool(num_threads) that `*owned` keeps alive.
inline ThreadPool* ResolvePool(const RunConfig& config,
                               std::unique_ptr<ThreadPool>* owned) {
  if (config.num_threads <= 1) return nullptr;
  if (config.shared_pool != nullptr) return config.shared_pool;
  *owned = std::make_unique<ThreadPool>(config.num_threads);
  return owned->get();
}

}  // namespace jigsaw
