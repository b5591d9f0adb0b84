#pragma once

/// \file point_loop_reference.h
/// The test-only twin of SimulationRunner::RunPoints: Algorithm 3 one
/// point at a time, with its own BasisStore. For each point it computes
/// the fingerprint and calls FindMatch, then either maps the basis'
/// metrics or finishes the simulation and Inserts the new basis with its
/// metrics at once. It draws every sample through the scalar
/// SimFunction::Sample and folds them one at a time, so it shares none of
/// the runner's batching, pool phases or deferred basis metrics. The
/// runner's grid tests compare every grid point against it.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/basis_store.h"
#include "core/fingerprint.h"
#include "core/metrics.h"
#include "core/parameter_space.h"
#include "core/run_config.h"
#include "core/sim_function.h"
#include "core/sim_runner.h"
#include "random/seed_vector.h"

namespace jigsaw::test {

class PointLoopReference {
 public:
  explicit PointLoopReference(const RunConfig& config)
      : config_(config),
        seeds_(config.master_seed, config.num_samples),
        store_(config.index_kind) {}

  PointResult Run(const SimFunction& fn, std::span<const double> params) {
    ++stats_.points_evaluated;
    const std::size_t n = config_.num_samples;
    const std::size_t m =
        config_.use_fingerprints ? config_.fingerprint_size : 0;
    std::vector<double> samples(n);
    for (std::size_t k = 0; k < m; ++k) {
      samples[k] = fn.Sample(params, k, seeds_);
    }
    stats_.blackbox_invocations += m;

    PointResult result;
    Fingerprint fp(std::vector<double>(samples.begin(), samples.begin() + m));
    if (config_.use_fingerprints) {
      if (const auto match = store_.FindMatch(fp)) {
        ++stats_.points_reused;
        result.metrics =
            store_.Get(match->basis_id).metrics.MappedBy(match->mapping);
        result.reused = true;
        result.basis_id = match->basis_id;
        result.mapping = match->mapping;
        return result;
      }
    }

    for (std::size_t k = m; k < n; ++k) {
      samples[k] = fn.Sample(params, k, seeds_);
    }
    stats_.blackbox_invocations += n - m;
    Estimator estimator(config_.keep_samples, RunConfig::histogram_bins);
    for (double x : samples) estimator.Add(x);
    result.metrics = estimator.Finalize();
    if (config_.use_fingerprints) {
      result.basis_id = store_.Insert(std::move(fp), result.metrics).id;
    }
    return result;
  }

  /// Every point of `space`, in row-major enumeration order.
  std::vector<PointResult> RunSweep(const SimFunction& fn,
                                    const ParameterSpace& space) {
    std::vector<PointResult> out;
    for (std::size_t i = 0; i < space.NumPoints(); ++i) {
      out.push_back(Run(fn, space.ValuationAt(i)));
    }
    return out;
  }

  const BasisStore& basis_store() const { return store_; }
  const RunnerStats& stats() const { return stats_; }

 private:
  RunConfig config_;
  SeedVector seeds_;
  BasisStore store_;
  RunnerStats stats_;
};

inline void ExpectBitIdenticalMetrics(const OutputMetrics& a,
                                      const OutputMetrics& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(bits(a.mean), bits(b.mean));
  EXPECT_EQ(bits(a.stddev), bits(b.stddev));
  EXPECT_EQ(bits(a.std_error), bits(b.std_error));
  EXPECT_EQ(bits(a.min), bits(b.min));
  EXPECT_EQ(bits(a.max), bits(b.max));
  EXPECT_EQ(bits(a.p50), bits(b.p50));
  EXPECT_EQ(bits(a.p95), bits(b.p95));
  ASSERT_EQ(a.histogram.has_value(), b.histogram.has_value());
  if (a.histogram) {
    EXPECT_TRUE(*a.histogram == *b.histogram);
  }
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    ASSERT_EQ(bits(a.samples[i]), bits(b.samples[i])) << "sample " << i;
  }
}

/// A runner's results and state after some points (`got`, `runner`)
/// against the reference's after the same points in the same order:
/// every result bit for bit, RunnerStats, BasisStoreStats and each
/// basis' reuse count.
inline void ExpectMatchesPointLoop(const std::vector<PointResult>& got,
                                   const SimulationRunner& runner,
                                   const std::vector<PointResult>& expected,
                                   const PointLoopReference& reference) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point " << i);
    EXPECT_EQ(got[i].reused, expected[i].reused);
    EXPECT_EQ(got[i].basis_id, expected[i].basis_id);
    EXPECT_EQ(bits(got[i].mapping.alpha), bits(expected[i].mapping.alpha));
    EXPECT_EQ(bits(got[i].mapping.beta), bits(expected[i].mapping.beta));
    ExpectBitIdenticalMetrics(got[i].metrics, expected[i].metrics);
  }

  const RunnerStats& rs = runner.stats();
  const RunnerStats& es = reference.stats();
  EXPECT_EQ(rs.points_evaluated, es.points_evaluated);
  EXPECT_EQ(rs.points_reused, es.points_reused);
  EXPECT_EQ(rs.blackbox_invocations, es.blackbox_invocations);

  const BasisStore& store = runner.basis_store();
  const BasisStore& ref_store = reference.basis_store();
  const BasisStoreStats& ps = store.stats();
  const BasisStoreStats& ss = ref_store.stats();
  EXPECT_EQ(ps.lookups, ss.lookups);
  EXPECT_EQ(ps.hits, ss.hits);
  EXPECT_EQ(ps.misses, ss.misses);
  EXPECT_EQ(ps.candidates_tested, ss.candidates_tested);
  EXPECT_EQ(ps.false_positive_candidates, ss.false_positive_candidates);
  ASSERT_EQ(store.size(), ref_store.size());
  for (std::size_t b = 0; b < store.size(); ++b) {
    const auto id = static_cast<BasisId>(b);
    EXPECT_EQ(store.Get(id).reuse_count, ref_store.Get(id).reuse_count)
        << "basis " << b;
  }
}

}  // namespace jigsaw::test
