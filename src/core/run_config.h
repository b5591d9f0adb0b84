#pragma once

/// \file run_config.h
/// Knobs shared by the batch runner, the Markov-jump runner and the
/// interactive engine. Defaults mirror the paper's experimental setup
/// (Section 6): 1000 sample instances per parameter point, fingerprint
/// size 10.

#include <cstddef>
#include <cstdint>

#include "core/fingerprint_index.h"
#include "random/draw_plane.h"

namespace jigsaw {

class ThreadPool;

/// Physical algorithm for the world-partitioned columnar equi-join
/// (pdb/join.h). Both are bit-identical — values, output row order,
/// errors — to the serial nested-loop join, so the knob only trades sort
/// locality against hash build cost; it can never change a result.
enum class JoinAlgorithm : std::uint8_t {
  kSortMerge,  ///< per-world stable sort of row indices by key
  kHash,       ///< per-world insertion-ordered hash build of the right side
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

  /// Relative tolerance used when validating candidate mappings
  /// (Algorithm 2's equality test, adapted to IEEE doubles).
  double tolerance = 1e-9;

  /// Quantization grid for index hash keys.
  double quantum = 1e-6;

  /// Seed of the global seed vector {sigma_k}.
  std::uint64_t master_seed = 0x5160534A00000001ULL;  // "JIGSAW"-ish tag

  /// Versioned draw-sequence derivation (the determinism contract's
  /// seed-schema gate). kV1 is the original seed-table derivation and
  /// stays byte-exact across releases; kV2 derives draws counter-based
  /// (draw planes, no per-sample setup) and therefore produces a
  /// *different but equally deterministic* draw sequence. Everything
  /// seeded by this config — runners, kernels, world caches, serve
  /// snapshots — must agree on the schema.
  SeedSchema seed_schema = SeedSchema::kV1;

  /// Estimator output shape.
  int histogram_bins = 20;
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

  /// Algorithm for the columnar world-partitioned equi-join. Interchangeable
  /// by contract: every algorithm produces bit-identical joined relations.
  JoinAlgorithm join_algorithm = JoinAlgorithm::kSortMerge;
};

}  // namespace jigsaw
