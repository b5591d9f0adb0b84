#pragma once

/// \file grid_test_util.h
/// The acceptance grid every parallel/batched surface is verified on:
/// batch sizes {1, 7, 64} x thread counts {1, 2, 8}. The suites that
/// claim "bit-identical at every (num_threads, batch_size) combination"
/// (pdb_test, sql_test, batched_sampling_test) all walk this one grid so
/// a new surface cannot quietly test a narrower one.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "markov/markov_process.h"
#include "random/seed_vector.h"

namespace jigsaw::test {

/// Batch sizes covering the degenerate (1), straddling-remainder (7) and
/// default (64) chunkings.
inline constexpr std::array<std::size_t, 3> kGridBatchSizes = {1u, 7u, 64u};

/// Thread counts covering serial (1), minimal contention (2) and
/// oversubscription (8; the dev container may have fewer cores).
inline constexpr std::array<std::size_t, 3> kGridThreadCounts = {1u, 2u, 8u};

/// Parallel-only thread counts, for tests whose reference IS the
/// single-threaded run.
inline constexpr std::array<std::size_t, 2> kGridParallelThreadCounts = {2u,
                                                                        8u};

inline const std::array<std::size_t, 3>& GridBatchSizes() {
  return kGridBatchSizes;
}
inline const std::array<std::size_t, 3>& GridThreadCounts() {
  return kGridThreadCounts;
}
inline const std::array<std::size_t, 2>& GridParallelThreadCounts() {
  return kGridParallelThreadCounts;
}

/// Invokes fn(threads, batch) at every grid point, each call wrapped in a
/// SCOPED_TRACE naming the coordinates.
template <typename Fn>
void ForEachGridPoint(Fn&& fn) {
  for (std::size_t threads : GridThreadCounts()) {
    for (std::size_t batch : GridBatchSizes()) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " batch=" << batch);
      fn(threads, batch);
    }
  }
}

/// Grid walk without threads=1, for suites that diff against the serial
/// run itself.
template <typename Fn>
void ForEachParallelGridPoint(Fn&& fn) {
  for (std::size_t threads : GridParallelThreadCounts()) {
    for (std::size_t batch : GridBatchSizes()) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " batch=" << batch);
      fn(threads, batch);
    }
  }
}

/// Batch-axis walk at a fixed thread count (the chain runner and other
/// serial-only surfaces still verify every chunking).
template <typename Fn>
void ForEachGridBatch(Fn&& fn) {
  for (std::size_t batch : GridBatchSizes()) {
    SCOPED_TRACE(::testing::Message() << "batch=" << batch);
    fn(batch);
  }
}

/// The Markov process batch hook an oracle value stands for.
enum class ChainHook { kStep, kEstimate, kOutput };

/// What a Markov process's batch hook must give instance `k`: StepBatch
/// and OutputBatch from `state` at `step`; EstimateBatch from the anchor
/// `state` frozen since `anchor_step`.
using ChainHookOracle = std::function<double(
    ChainHook hook, double state, std::int64_t anchor_step,
    std::int64_t step, std::size_t k, const SeedVector& seeds)>;

/// A Markov process's batch hooks (StepBatch, EstimateBatch, OutputBatch)
/// against `oracle`, one instance at a time, bit for bit, for spans of
/// every grid batch size starting at instances 0, 3 and 5.
inline void ExpectChainHooksMatchOracle(const MarkovProcess& process,
                                        const ChainHookOracle& oracle) {
  SCOPED_TRACE(process.name());
  constexpr std::int64_t kAnchorStep = 4;
  constexpr std::int64_t kStep = 9;
  const SeedVector seeds(0x5160534A00000001ULL, 80);
  std::vector<double> states(seeds.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = process.initial_state() + 0.5 * static_cast<double>(i % 7);
  }
  for (std::size_t k_begin : {0u, 3u, 5u}) {
    for (std::size_t n : GridBatchSizes()) {
      SCOPED_TRACE(::testing::Message()
                   << "k_begin=" << k_begin << " n=" << n);
      const std::span<const double> in(states.data() + k_begin, n);
      std::vector<double> batched(n);
      const auto expect_oracle = [&](ChainHook hook) {
        for (std::size_t i = 0; i < n; ++i) {
          const double want =
              oracle(hook, in[i], kAnchorStep, kStep, k_begin + i, seeds);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batched[i]),
                    std::bit_cast<std::uint64_t>(want))
              << "hook " << static_cast<int>(hook) << " entry " << i;
        }
      };
      process.StepBatch(in, kStep, k_begin, seeds, batched);
      expect_oracle(ChainHook::kStep);
      process.EstimateBatch(in, kAnchorStep, kStep, k_begin, seeds, batched);
      expect_oracle(ChainHook::kEstimate);
      process.OutputBatch(in, kStep, k_begin, seeds, batched);
      expect_oracle(ChainHook::kOutput);
    }
  }
}

/// Session counts for the serving-layer grid: single tenant (1), modest
/// concurrency (4), and far more sessions than the widest pool (16 —
/// saturation, every session contending for the same workers).
inline constexpr std::array<std::size_t, 3> kGridSessionCounts = {1u, 4u,
                                                                  16u};

inline const std::array<std::size_t, 3>& GridSessionCounts() {
  return kGridSessionCounts;
}

/// Invokes fn(sessions, threads) at every (session count x pool width)
/// point — the acceptance grid of serve_test: every concurrency shape a
/// deployment can take, from one serial tenant to 16 sessions fighting
/// over 2 workers.
template <typename Fn>
void ForEachSessionGridPoint(Fn&& fn) {
  for (std::size_t sessions : GridSessionCounts()) {
    for (std::size_t threads : GridThreadCounts()) {
      SCOPED_TRACE(::testing::Message()
                   << "sessions=" << sessions << " threads=" << threads);
      fn(sessions, threads);
    }
  }
}

}  // namespace jigsaw::test
