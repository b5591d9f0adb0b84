#pragma once

/// \file interactive_session.h
/// Online what-if exploration (Section 5, Algorithm 5). The session keeps
/// per-point state — a progressively grown fingerprint, a basis
/// distribution and a mapping — and advances in small pick-evaluate-update
/// ticks so a GUI can repaint between them:
///
///  - Refinement: new sample ids for the focused point; results are
///    mapped *back* into the basis through M^{-1}, so accuracy improves
///    for every point sharing the basis.
///  - Validation: re-evaluates sample ids already present in the basis;
///    the duplicates effectively extend the point's fingerprint. A
///    mismatch rebinds the point to a new basis.
///  - Exploration: heuristically picks a neighboring point the user is
///    likely to visit next and warms its fingerprint/basis.
///
/// The display estimate for a point is its mapped basis metric, available
/// after only a fingerprint-sized number of evaluations — that is the
/// "initial guess" the paper refines progressively.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/metrics.h"
#include "core/parameter_space.h"
#include "core/run_config.h"
#include "core/sim_function.h"
#include "random/random_stream.h"
#include "util/math_util.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace jigsaw {

struct InteractiveConfig {
  /// run.num_threads > 1 evaluates each tick's sample batch on a worker
  /// pool. Samples are pure functions of their ids and the fold back into
  /// basis/point state stays serial in id order, so every estimate and
  /// statistic is bit-identical to the single-threaded session.
  RunConfig run;
  /// Samples generated per tick (Algorithm 5 uses PickAtRandom(10, ...)).
  std::size_t batch_size = 10;
  /// Task mix. Remaining probability mass goes to refinement.
  double validation_weight = 0.2;
  double exploration_weight = 0.2;
  /// Maximum sample ids a basis may accumulate (bounds memory and puts a
  /// ceiling on refinement work per point).
  std::size_t max_samples = 1000;
};

enum class InteractiveTask { kRefinement, kValidation, kExploration };

struct DisplayEstimate {
  double mean = 0.0;
  double std_error = 0.0;
  std::int64_t support = 0;  ///< samples behind the estimate
  bool borrowed = false;     ///< true if served through a mapped basis
  bool available = false;    ///< false before any evaluation
};

struct InteractiveStats {
  std::uint64_t ticks = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t rebinds = 0;       ///< validation failures
  std::uint64_t basis_created = 0;
  std::uint64_t borrow_hits = 0;   ///< points served from a shared basis
};

class InteractiveSession {
 public:
  /// Explores `fn` over `space` (one scenario column; run several
  /// sessions for several columns).
  InteractiveSession(SimFunctionPtr fn, ParameterSpace space,
                     const InteractiveConfig& config);
  ~InteractiveSession();

  InteractiveSession(const InteractiveSession&) = delete;
  InteractiveSession& operator=(const InteractiveSession&) = delete;

  /// Focuses the user's point of interest (enumeration index within the
  /// space); subsequent ticks refine it and explore around it.
  Status SetFocus(std::size_t point_index);

  /// Seeds a point's state from an externally computed possible-worlds
  /// summary — one point of a `MONTECARLO OVER` sweep run with
  /// keep_samples=true and the same master seed, whose world ids are this
  /// session's sample ids. Retained sample i folds in as the evaluation
  /// of sample id i, exactly as if a tick had produced it: an unbound
  /// point binds and its estimate becomes addressable immediately
  /// (EstimateFor); an already-bound point refines its basis with the
  /// imported ids, rebinding if one contradicts the mapping. Later ticks
  /// validate/refine on top of the primed state. Fails if `metrics`
  /// retained no samples, or more than max_samples of them (nothing is
  /// silently truncated — trim or raise the cap instead).
  Status PrimeFromSweep(std::size_t point_index,
                        const OutputMetrics& metrics);

  /// One pick-evaluate-update iteration (Algorithm 5 loop body). Returns
  /// the task performed.
  InteractiveTask Tick();

  /// Convenience: run `n` ticks.
  void Run(std::size_t n);

  /// Current estimate for a point (cheap; no evaluation).
  DisplayEstimate EstimateFor(std::size_t point_index) const;

  std::size_t focus() const { return focus_; }
  std::size_t num_points() const;
  std::size_t basis_count() const;
  const InteractiveStats& stats() const { return stats_; }

 private:
  struct BasisRecord;
  struct PointState;

  PointState& StateFor(std::size_t point_index);
  /// Records one (sample id, value) evaluation in the point's state and
  /// folds it into the bound basis — validation with rebind-on-mismatch
  /// for ids the basis already holds, refinement through M^{-1} for new
  /// ids. Shared by ticks and PrimeFromSweep.
  void FoldSample(PointState& state, std::size_t id, double value);
  InteractiveTask PickTask(const PointState& state);
  std::size_t ExploreHeuristic(std::size_t point_index);
  void EvaluateBatch(std::size_t point_index,
                     const std::vector<std::size_t>& ids);
  void BindPoint(std::size_t point_index);

  SimFunctionPtr fn_;
  ParameterSpace space_;
  InteractiveConfig config_;
  SeedVector seeds_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  ///< owned_pool_ or run.shared_pool
  RandomStream heuristic_rng_;
  std::size_t focus_ = 0;
  std::map<std::size_t, std::unique_ptr<PointState>> points_;
  std::vector<std::shared_ptr<BasisRecord>> bases_;
  InteractiveStats stats_;
};

}  // namespace jigsaw
