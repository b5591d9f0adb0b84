#pragma once

/// \file sim_runner.h
/// The fingerprint-accelerated Monte Carlo driver — Algorithm 3
/// (FindMatch) embedded in the simulation loop of Figure 3. For each
/// parameter point the runner:
///
///   1. evaluates the first m seeded samples (the fingerprint);
///   2. asks the BasisStore for a mappable basis distribution;
///   3. on a hit, returns M_est(basis.metrics) — no further sampling;
///   4. on a miss, completes the remaining n-m samples, registers the new
///      basis, and returns the freshly-estimated metrics.
///
/// With use_fingerprints=false it degrades to the naive generate-
/// everything baseline the paper compares against.
///
/// When num_threads > 1, RunSweep fans the sweep out across parameter
/// points on the worker pool while staying bit-identical to the serial
/// sweep (see RunSweep below for the phase protocol).

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "util/thread_pool.h"

#include "core/basis_store.h"
#include "core/metrics.h"
#include "core/parameter_space.h"
#include "core/run_config.h"
#include "core/sim_function.h"
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

class SimulationRunner {
 public:
  /// `config` must pass ValidateConfig; the constructor aborts otherwise.
  explicit SimulationRunner(const RunConfig& config);

  /// The constructor's preconditions as a status, for callers whose
  /// config comes from a user: InvalidArgument unless
  /// 2 <= fingerprint_size <= num_samples.
  static Status ValidateConfig(const RunConfig& config);

  /// Evaluates one parameter point of `fn` (Algorithm 3 + estimator).
  PointResult RunPoint(const SimFunction& fn,
                       std::span<const double> params);

  /// Sweeps an entire parameter space; returns metrics per valuation in
  /// row-major enumeration order.
  ///
  /// With num_threads > 1 the sweep runs as a deterministic phase
  /// pipeline that is bit-identical to the serial sweep at any thread
  /// count:
  ///
  ///   1. fingerprints of all points evaluate in parallel (each sample is
  ///      a pure function of its seed, so scheduling cannot perturb it);
  ///   2. match/miss decisions replay serially in point-index order
  ///      against the basis store — exactly the order the serial sweep
  ///      uses, so reuse decisions, basis ids and store stats coincide;
  ///      misses insert their fingerprint immediately (metrics deferred);
  ///   3. the expensive full simulations of all miss points fan out
  ///      across the pool, folding samples in index order per point;
  ///   4. results merge in point-index order: misses publish their
  ///      metrics, hits map their basis' now-materialized metrics.
  std::vector<PointResult> RunSweep(const SimFunction& fn,
                                    const ParameterSpace& space);

  const RunConfig& config() const { return config_; }
  const SeedVector& seeds() const { return seeds_; }
  const BasisStore& basis_store() const { return basis_store_; }
  const RunnerStats& stats() const { return stats_; }

 private:
  /// Evaluates samples [begin, begin + out.size()) of `fn` into `out`,
  /// driving SampleBatch over batch_size chunks and fanning the chunks
  /// out across the pool when configured. Chunk boundaries never change
  /// a draw (sample k always comes from seed sigma_k), so output is
  /// bit-identical at every batch size and thread count.
  void SampleRange(const SimFunction& fn, std::span<const double> params,
                   std::size_t begin, std::span<double> out);

  /// Serial SampleRange. Used inside pool tasks, where nesting a
  /// ParallelFor would deadlock (a worker blocked in WaitIdle still
  /// counts as in-flight).
  void SampleRangeSerial(const SimFunction& fn,
                         std::span<const double> params, std::size_t begin,
                         std::span<double> out);

  std::vector<PointResult> RunSweepSerial(const SimFunction& fn,
                                          const ParameterSpace& space);
  std::vector<PointResult> RunSweepParallel(const SimFunction& fn,
                                            const ParameterSpace& space);

  RunConfig config_;
  SeedVector seeds_;
  BasisStore basis_store_;
  RunnerStats stats_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  ///< owned_pool_ or config_.shared_pool
  /// Reusable sample buffer for the serial per-point path (the parallel
  /// sweep uses per-worker thread-local buffers instead).
  std::vector<double> scratch_;
};

}  // namespace jigsaw
