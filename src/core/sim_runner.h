#pragma once

/// \file sim_runner.h
/// The fingerprint-accelerated Monte Carlo driver — Algorithm 3
/// (FindMatch) embedded in the simulation loop of Figure 3. For each
/// parameter point the runner:
///
///   1. evaluates the first m seeded samples (the fingerprint), copying a
///      model call's draws from the runner's DrawMemo when an earlier
///      point with the same draw key made them;
///   2. asks the BasisStore for a mappable basis distribution;
///   3. on a hit, returns M_est(basis.metrics) — no further sampling;
///   4. on a miss, completes the remaining n-m samples, registers the new
///      basis, and returns the freshly-estimated metrics.
///
/// With use_fingerprints=false it degrades to the naive generate-
/// everything baseline the paper compares against.
///
/// One driver, RunPoints, runs these steps for a batch of points as a
/// phase pipeline (see RunPoints below); RunPoint is a one-point batch
/// and RunSweep a batch of every point of a space. With num_threads > 1
/// the pipeline's sampling phases fan the batch's points out on the
/// worker pool, and the results stay bit-identical at every thread count.
/// The fingerprints' memo misses are staged during step 1 and committed
/// after it, on the calling thread.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "util/thread_pool.h"

#include "core/basis_store.h"
#include "core/metrics.h"
#include "core/parameter_space.h"
#include "core/run_config.h"
#include "core/sim_function.h"
#include "random/draw_memo.h"
#include "random/seed_vector.h"
#include "util/status.h"

namespace jigsaw {

/// Per-point accounting, aggregated into the evaluation's reported
/// invocation counts and reuse rates.
struct RunnerStats {
  std::uint64_t points_evaluated = 0;
  std::uint64_t points_reused = 0;
  std::uint64_t blackbox_invocations = 0;
};

struct PointResult {
  OutputMetrics metrics;
  bool reused = false;          ///< true if served from a mapped basis
  BasisId basis_id = 0;         ///< basis that served (or was created)
  AffineMap mapping;            ///< mapping used (identity for new bases)
};

/// One point for RunPoints to evaluate: `fn` at the valuation `params`.
/// Both are borrowed and must outlive the call.
struct PointRequest {
  const SimFunction* fn = nullptr;
  std::span<const double> params;
};

class SimulationRunner {
 public:
  /// `config` must pass ValidateConfig; the constructor aborts otherwise.
  explicit SimulationRunner(const RunConfig& config);

  /// The constructor's preconditions as a status, for callers whose
  /// config comes from a user: InvalidArgument unless
  /// 2 <= fingerprint_size <= num_samples.
  static Status ValidateConfig(const RunConfig& config);

  /// Evaluates a batch of points and returns their results in request
  /// order, as a phase pipeline that is bit-identical at every thread
  /// count to evaluating the requests one at a time, in order:
  ///
  ///   1. the fingerprints of every request evaluate (each sample is a
  ///      pure function of its seed, so scheduling cannot perturb it),
  ///      reading the draw memo, whose staged misses are then committed;
  ///   2. the match/miss decisions run serially in request order against
  ///      the basis store, so reuse decisions, basis ids and store stats
  ///      are the one-at-a-time run's; a miss registers its fingerprint at
  ///      once (metrics deferred), so a later request may match it;
  ///   3. the misses' remaining n-m samples evaluate, each miss folding
  ///      its fingerprint, then its tail, in index order;
  ///   4. the hits map their basis' metrics.
  ///
  /// With use_fingerprints=false every request is one independent full
  /// simulation. Phases 1 and 3 (and the naive simulations) run on the
  /// pool when there is one, and in a plain loop otherwise.
  std::vector<PointResult> RunPoints(std::span<const PointRequest> requests);

  /// Evaluates one parameter point of `fn`: a one-request RunPoints.
  PointResult RunPoint(const SimFunction& fn,
                       std::span<const double> params);

  /// Sweeps an entire parameter space: a RunPoints over every valuation,
  /// returned in row-major enumeration order.
  std::vector<PointResult> RunSweep(const SimFunction& fn,
                                    const ParameterSpace& space);

  const RunConfig& config() const { return config_; }
  const SeedVector& seeds() const { return seeds_; }
  const BasisStore& basis_store() const { return basis_store_; }
  const RunnerStats& stats() const { return stats_; }
  /// The memo of fingerprint draws that seeds() carries to the batch
  /// kernels (random/draw_memo.h). A naive run attaches none.
  const DrawMemo& draw_memo() const { return draw_memo_; }

 private:
  /// Evaluates samples [begin, begin + out.size()) of `fn` into `out`,
  /// driving SampleBatch over batch_size chunks. Chunk boundaries never
  /// change a draw (sample k always comes from seed sigma_k), so output
  /// is bit-identical at every batch size.
  void SampleRange(const SimFunction& fn, std::span<const double> params,
                   std::size_t begin, std::span<double> out) const;

  /// Runs body(i) for every i in [0, count): on the pool when there is
  /// one and count > 1, in a plain loop otherwise.
  void ForEach(std::size_t count,
               const std::function<void(std::size_t)>& body) const;

  RunConfig config_;
  DrawMemo draw_memo_;
  SeedVector seeds_;
  BasisStore basis_store_;
  RunnerStats stats_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  ///< owned_pool_ or config_.shared_pool
};

}  // namespace jigsaw
