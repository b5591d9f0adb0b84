#pragma once

/// \file chain_runner.h
/// Two executors for Markov processes over n Monte Carlo instances:
///
///  - NaiveChainRunner: advances every instance through every step — the
///    baseline of Figure 12.
///  - MarkovJumpRunner: Algorithm 4. Only a fingerprint-sized subset of
///    instances is stepped honestly; at exponentially spaced checkpoints
///    the fingerprint is compared against a synthesized non-Markovian
///    estimator, and whole regions of the chain are skipped whenever the
///    estimator remains mappable. On a mismatch the runner backtracks by
///    binary search to the last mappable step, reconstructs the full
///    state there via the mapped estimator, and resumes with a fresh
///    anchor.

#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "core/run_config.h"
#include "markov/markov_process.h"
#include "random/seed_vector.h"

namespace jigsaw {

/// Accounting for the evaluation section: the per-step cost model of
/// Figure 12 is (step_invocations + estimator_invocations) / target.
struct ChainRunStats {
  std::uint64_t step_invocations = 0;       ///< true chain transitions
  std::uint64_t estimator_invocations = 0;  ///< estimator evaluations
  std::uint64_t checkpoints = 0;            ///< fingerprint comparisons
  std::uint64_t mismatches = 0;             ///< estimator invalidations
  std::uint64_t full_rebuilds = 0;          ///< full-state reconstructions
};

struct ChainResult {
  std::vector<double> final_states;  ///< one per instance, at `target`
  ChainRunStats stats;
};

/// Baseline: every instance stepped through every step.
class NaiveChainRunner {
 public:
  explicit NaiveChainRunner(const RunConfig& config);

  ChainResult Run(const MarkovProcess& process, std::int64_t target);

  const SeedVector& seeds() const { return seeds_; }

 private:
  RunConfig config_;
  SeedVector seeds_;
};

/// Algorithm 4 (MarkovJump).
class MarkovJumpRunner {
 public:
  explicit MarkovJumpRunner(const RunConfig& config);

  ChainResult Run(const MarkovProcess& process, std::int64_t target);

  const SeedVector& seeds() const { return seeds_; }

 private:
  RunConfig config_;
  SeedVector seeds_;
};

/// Computes output metrics over final chain states (applies
/// MarkovProcess::Output per instance under the output salt).
OutputMetrics ChainOutputMetrics(const MarkovProcess& process,
                                 const ChainResult& result,
                                 std::int64_t target, const SeedVector& seeds,
                                 const RunConfig& config);

}  // namespace jigsaw
