#include "markov/chain_runner.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/fingerprint.h"
#include "core/mapping.h"
#include "util/logging.h"

namespace jigsaw {

namespace {

/// Invokes fn(k, len) for consecutive chunks of at most `batch` covering
/// [begin, end) — the chain runners' batching loop.
template <typename Fn>
void ForChunks(std::size_t begin, std::size_t end, std::size_t batch,
               Fn&& fn) {
  for (std::size_t k = begin; k < end; k += batch) {
    fn(k, std::min(batch, end - k));
  }
}

}  // namespace

NaiveChainRunner::NaiveChainRunner(const RunConfig& config)
    : config_(config), seeds_(config.master_seed, config.num_samples) {}

ChainResult NaiveChainRunner::Run(const MarkovProcess& process,
                                  std::int64_t target) {
  const std::size_t n = config_.num_samples;
  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);
  ChainResult result;
  result.final_states.assign(n, process.initial_state());
  for (std::int64_t step = 1; step <= target; ++step) {
    // In-place batch advance: StepBatch reads entry i before writing it.
    ForChunks(0, n, batch, [&](std::size_t k, std::size_t len) {
      const std::span<double> chunk(result.final_states.data() + k, len);
      process.StepBatch(chunk, step, k, seeds_, chunk);
    });
    result.stats.step_invocations += n;
  }
  return result;
}

MarkovJumpRunner::MarkovJumpRunner(const RunConfig& config)
    : config_(config), seeds_(config.master_seed, config.num_samples) {}

ChainResult MarkovJumpRunner::Run(const MarkovProcess& process,
                                  std::int64_t target) {
  const std::size_t n = config_.num_samples;
  const std::size_t m = std::min(config_.fingerprint_size, n);
  JIGSAW_CHECK_MSG(m >= 2, "fingerprint size must be >= 2");

  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);

  ChainResult result;
  result.final_states.assign(n, process.initial_state());
  std::vector<double>& state = result.final_states;
  ChainRunStats& stats = result.stats;

  std::int64_t anchor = 0;  // absolute step the full state is valid at

  // Rebuilds instances [m, n) through the estimator (in place, batched)
  // and maps each prediction into the true chain's domain.
  auto rebuild_tail = [&](std::int64_t abs_step, const AffineMap& map) {
    ForChunks(m, n, batch, [&](std::size_t k, std::size_t len) {
      const std::span<double> chunk(state.data() + k, len);
      process.EstimateBatch(chunk, anchor, abs_step, k, seeds_, chunk);
      for (double& v : chunk) v = map.Apply(v);
    });
    stats.estimator_invocations += n - m;
  };

  // Estimator fingerprint at an absolute step, anchored at the current
  // full state.
  auto estimator_fp = [&](std::int64_t step) {
    std::vector<double> values(m);
    process.EstimateBatch(std::span<const double>(state.data(), m), anchor,
                          step, 0, seeds_, values);
    stats.estimator_invocations += m;
    return Fingerprint(std::move(values));
  };

  while (anchor < target) {
    // Honest fingerprint trajectory from the anchor; traj[i] holds the m
    // instance states at absolute step anchor + i + 1.
    std::vector<std::vector<double>> traj;
    std::vector<double> fp_cursor(state.begin(),
                                  state.begin() + static_cast<long>(m));

    auto advance_fp_to = [&](std::int64_t rel) {
      while (static_cast<std::int64_t>(traj.size()) < rel) {
        const std::int64_t abs_step =
            anchor + static_cast<std::int64_t>(traj.size()) + 1;
        process.StepBatch(fp_cursor, abs_step, 0, seeds_, fp_cursor);
        stats.step_invocations += m;
        traj.push_back(fp_cursor);
      }
    };

    // Does the estimator map onto the honest fingerprint at relative
    // offset `rel`? Returns the mapping or nullopt.
    auto mapping_at = [&](std::int64_t rel) {
      advance_fp_to(rel);
      ++stats.checkpoints;
      const Fingerprint est = estimator_fp(anchor + rel);
      const Fingerprint real(traj[static_cast<std::size_t>(rel - 1)]);
      return FindLinearMapping(est, real, kMappingTolerance);
    };

    const std::int64_t remaining = target - anchor;

    // Exponential ramp: double the checkpoint distance while the
    // estimator stays mappable (Algorithm 4 lines 3-9).
    std::int64_t last_valid = 0;
    AffineMap last_valid_mapping;
    std::int64_t probe = 1;
    std::int64_t first_invalid = -1;
    while (probe < remaining) {
      if (const auto mapping = mapping_at(probe)) {
        last_valid = probe;
        last_valid_mapping = *mapping;
        probe *= 2;
      } else {
        ++stats.mismatches;
        first_invalid = probe;
        break;
      }
    }
    if (first_invalid < 0) {
      // Ramp reached the target without a mismatch: validate the target
      // itself and finish with one mapped-estimator rebuild (Algorithm 4
      // lines 6-7).
      if (const auto mapping = mapping_at(remaining)) {
        for (std::size_t k = 0; k < m; ++k) {
          state[k] = traj[static_cast<std::size_t>(remaining - 1)][k];
        }
        rebuild_tail(target, *mapping);
        ++stats.full_rebuilds;
        return result;
      }
      ++stats.mismatches;
      first_invalid = remaining;
    }

    // Binary search for the last mappable step in (last_valid,
    // first_invalid) (Algorithm 4 line 11).
    std::int64_t lo = last_valid;
    std::int64_t hi = first_invalid;
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (const auto mapping = mapping_at(mid)) {
        lo = mid;
        last_valid_mapping = *mapping;
      } else {
        hi = mid;
      }
    }

    if (lo == 0) {
      // The estimator fails immediately: advance the full state by one
      // honest step (Algorithm 4 line 12) and re-anchor.
      const std::int64_t abs_step = anchor + 1;
      for (std::size_t k = 0; k < m; ++k) {
        state[k] = traj[0][k];  // already stepped honestly
      }
      ForChunks(m, n, batch, [&](std::size_t k, std::size_t len) {
        const std::span<double> chunk(state.data() + k, len);
        process.StepBatch(chunk, abs_step, k, seeds_, chunk);
      });
      stats.step_invocations += n - m;
      anchor = abs_step;
    } else {
      // Jump: rebuild the full state at anchor+lo via the mapped
      // estimator (Algorithm 4 line 13) and re-anchor there.
      const std::int64_t abs_step = anchor + lo;
      for (std::size_t k = 0; k < m; ++k) {
        state[k] = traj[static_cast<std::size_t>(lo - 1)][k];
      }
      rebuild_tail(abs_step, last_valid_mapping);
      ++stats.full_rebuilds;
      anchor = abs_step;
    }
  }
  return result;
}

OutputMetrics ChainOutputMetrics(const MarkovProcess& process,
                                 const ChainResult& result,
                                 std::int64_t target, const SeedVector& seeds,
                                 const RunConfig& config) {
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  Estimator est(config.keep_samples, config.histogram_bins);
  std::vector<double> buf(std::min(batch, result.final_states.size()));
  ForChunks(0, result.final_states.size(), batch,
            [&](std::size_t k, std::size_t len) {
              const std::span<double> chunk(buf.data(), len);
              process.OutputBatch(
                  std::span<const double>(result.final_states.data() + k,
                                          len),
                  target, k, seeds, chunk);
              est.AddSpan(chunk);
            });
  return std::move(est).Finalize();
}

}  // namespace jigsaw
