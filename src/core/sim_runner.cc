#include "core/sim_runner.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw {

SimulationRunner::SimulationRunner(const RunConfig& config)
    : config_(config),
      seeds_(config.master_seed, config.num_samples),
      basis_store_(config.index_kind) {
  const Status valid = ValidateConfig(config_);
  JIGSAW_CHECK_MSG(valid.ok(), valid.message());
  if (config_.batch_size == 0) config_.batch_size = 1;
  pool_ = ResolvePool(config_, &owned_pool_);
}

Status SimulationRunner::ValidateConfig(const RunConfig& config) {
  if (config.fingerprint_size > config.num_samples) {
    return Status::InvalidArgument(StrFormat(
        "fingerprint size m = %zu must be <= sample count n = %zu",
        config.fingerprint_size, config.num_samples));
  }
  if (config.fingerprint_size < 2) {
    return Status::InvalidArgument(StrFormat(
        "fingerprint size m = %zu must be >= 2 to fit a mapping",
        config.fingerprint_size));
  }
  return Status::OK();
}

void SimulationRunner::SampleRangeSerial(const SimFunction& fn,
                                         std::span<const double> params,
                                         std::size_t begin,
                                         std::span<double> out) {
  const std::size_t batch = config_.batch_size;
  for (std::size_t i = 0; i < out.size(); i += batch) {
    const std::size_t len = std::min(batch, out.size() - i);
    fn.SampleBatch(params, begin + i, seeds_, out.subspan(i, len));
  }
}

void SimulationRunner::SampleRange(const SimFunction& fn,
                                   std::span<const double> params,
                                   std::size_t begin, std::span<double> out) {
  const std::size_t batch = config_.batch_size;
  const std::size_t chunks = (out.size() + batch - 1) / batch;
  if (pool_ == nullptr || chunks < 2 ||
      out.size() < 2 * config_.num_threads) {
    SampleRangeSerial(fn, params, begin, out);
    return;
  }
  // Samples are independent given their seeds; any chunk schedule
  // produces the same values, and the caller folds them in index order.
  pool_->ParallelFor(chunks, [&](std::size_t c) {
    const std::size_t i = c * batch;
    const std::size_t len = std::min(batch, out.size() - i);
    fn.SampleBatch(params, begin + i, seeds_, out.subspan(i, len));
  });
}

PointResult SimulationRunner::RunPoint(const SimFunction& fn,
                                       std::span<const double> params) {
  ++stats_.points_evaluated;
  const std::size_t n = config_.num_samples;
  const std::size_t m =
      config_.use_fingerprints ? config_.fingerprint_size : 0;

  PointResult result;
  Estimator estimator(config_.keep_samples, config_.histogram_bins);

  if (config_.use_fingerprints) {
    // The fingerprint is the first m rounds of this point's simulation.
    Fingerprint fp = ComputeFingerprint(fn, params, seeds_, m);
    stats_.blackbox_invocations += m;
    estimator.AddSpan(fp.values());

    if (auto match = basis_store_.FindMatch(fp)) {
      // Reuse: map the basis metrics into this point's domain. The
      // Selector only ever compares mapped outputs across parameter
      // values; it never mixes their samples (Section 6.2's correctness
      // argument).
      ++stats_.points_reused;
      result.metrics =
          basis_store_.Get(match->basis_id).metrics.MappedBy(match->mapping);
      result.reused = true;
      result.basis_id = match->basis_id;
      result.mapping = match->mapping;
      return result;
    }

    // Miss: finish the remaining rounds and register a new basis. The
    // scratch buffer is reused across points — the batched path never
    // reallocates on the hot loop.
    scratch_.resize(n - m);
    SampleRange(fn, params, m, scratch_);
    estimator.AddSpan(scratch_);
    stats_.blackbox_invocations += n - m;
    result.metrics = estimator.Finalize();
    const auto& basis = basis_store_.Insert(std::move(fp), result.metrics);
    result.basis_id = basis.id;
    return result;
  }

  // Naive baseline: generate everything.
  scratch_.resize(n);
  SampleRange(fn, params, 0, scratch_);
  estimator.AddSpan(scratch_);
  stats_.blackbox_invocations += n;
  result.metrics = estimator.Finalize();
  return result;
}

std::vector<PointResult> SimulationRunner::RunSweepSerial(
    const SimFunction& fn, const ParameterSpace& space) {
  std::vector<PointResult> out;
  const std::size_t n = space.NumPoints();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto valuation = space.ValuationAt(i);
    out.push_back(RunPoint(fn, valuation));
  }
  return out;
}

std::vector<PointResult> SimulationRunner::RunSweepParallel(
    const SimFunction& fn, const ParameterSpace& space) {
  const std::size_t n_points = space.NumPoints();
  const std::size_t n = config_.num_samples;
  std::vector<PointResult> out(n_points);

  std::vector<std::vector<double>> valuations(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    valuations[i] = space.ValuationAt(i);
  }

  if (!config_.use_fingerprints) {
    // Naive baseline: every point is independent, so the whole sweep is
    // embarrassingly parallel. Per-point sample folds stay in index
    // order, so metrics match the serial sweep bitwise. Each worker
    // reuses one thread-local sample buffer across all its points.
    pool_->ParallelFor(n_points, [&](std::size_t i) {
      thread_local std::vector<double> all;
      all.resize(n);
      Estimator estimator(config_.keep_samples, config_.histogram_bins);
      SampleRangeSerial(fn, valuations[i], 0, all);
      estimator.AddSpan(all);
      out[i].metrics = estimator.Finalize();
    });
    stats_.points_evaluated += n_points;
    stats_.blackbox_invocations += static_cast<std::uint64_t>(n_points) * n;
    return out;
  }

  const std::size_t m = config_.fingerprint_size;

  // Phase 1: fingerprints of every point, in parallel. Fingerprint
  // samples are pure functions of (params, sigma_k), so the schedule
  // cannot perturb them.
  std::vector<Fingerprint> fps(n_points);
  pool_->ParallelFor(n_points, [&](std::size_t i) {
    fps[i] = ComputeFingerprint(fn, valuations[i], seeds_, m);
  });

  // Phase 2: replay the match/miss decisions serially in point-index
  // order — the exact order the serial sweep consults the store — so
  // reuse decisions, basis ids, reuse counts and store stats coincide
  // with the serial run. Misses register their fingerprint now (making
  // it matchable by later points) with metrics deferred to phase 3. A
  // match is always a hit: an affine map transforms any basis metrics,
  // so the decision never needs them.
  std::vector<std::size_t> miss_points;
  for (std::size_t i = 0; i < n_points; ++i) {
    ++stats_.points_evaluated;
    stats_.blackbox_invocations += m;
    if (auto match = basis_store_.FindMatch(fps[i])) {
      ++stats_.points_reused;
      out[i].reused = true;
      out[i].basis_id = match->basis_id;
      out[i].mapping = match->mapping;
      continue;
    }
    out[i].basis_id = basis_store_.Insert(Fingerprint(fps[i]), {}).id;
    miss_points.push_back(i);
    stats_.blackbox_invocations += n - m;
  }

  // Phase 3: full simulation of every miss point, in parallel across
  // points. Each task folds fingerprint-then-tail samples in index
  // order, matching the serial estimator exactly.
  std::vector<OutputMetrics> miss_metrics(miss_points.size());
  pool_->ParallelFor(miss_points.size(), [&](std::size_t j) {
    const std::size_t i = miss_points[j];
    thread_local std::vector<double> tail;
    tail.resize(n - m);
    Estimator estimator(config_.keep_samples, config_.histogram_bins);
    estimator.AddSpan(fps[i].values());
    SampleRangeSerial(fn, valuations[i], m, tail);
    estimator.AddSpan(tail);
    miss_metrics[j] = estimator.Finalize();
  });
  for (std::size_t j = 0; j < miss_points.size(); ++j) {
    const std::size_t i = miss_points[j];
    out[i].metrics = miss_metrics[j];
    basis_store_.SetMetrics(out[i].basis_id, std::move(miss_metrics[j]));
  }

  // Phase 4: map the hits' metrics in point-index order. Every basis a
  // hit maps from was materialized either in a previous run or in phase
  // 3 above; miss points already carry their metrics.
  for (std::size_t i = 0; i < n_points; ++i) {
    if (out[i].reused) {
      out[i].metrics = basis_store_.Get(out[i].basis_id)
                           .metrics.MappedBy(out[i].mapping);
    }
  }
  return out;
}

std::vector<PointResult> SimulationRunner::RunSweep(
    const SimFunction& fn, const ParameterSpace& space) {
  // Few points can't keep the pool busy across points; the serial sweep
  // parallelizes *within* each point instead (SampleRange), which uses
  // the workers better there. Both paths produce identical output.
  if (pool_ == nullptr || space.NumPoints() < config_.num_threads) {
    return RunSweepSerial(fn, space);
  }
  return RunSweepParallel(fn, space);
}

}  // namespace jigsaw
