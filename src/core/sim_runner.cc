#include "core/sim_runner.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw {

SimulationRunner::SimulationRunner(const RunConfig& config)
    : config_(config),
      draw_memo_(config.fingerprint_size),
      seeds_(config.master_seed, config.num_samples),
      basis_store_(config.index_kind) {
  const Status valid = ValidateConfig(config_);
  JIGSAW_CHECK_MSG(valid.ok(), valid.message());
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.use_fingerprints) seeds_.set_draw_memo(&draw_memo_);
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

void SimulationRunner::SampleRange(const SimFunction& fn,
                                   std::span<const double> params,
                                   std::size_t begin,
                                   std::span<double> out) const {
  const std::size_t batch = config_.batch_size;
  for (std::size_t i = 0; i < out.size(); i += batch) {
    const std::size_t len = std::min(batch, out.size() - i);
    fn.SampleBatch(params, begin + i, seeds_, out.subspan(i, len));
  }
}

void SimulationRunner::ForEach(
    std::size_t count, const std::function<void(std::size_t)>& body) const {
  if (pool_ != nullptr && count > 1) {
    pool_->ParallelFor(count, body);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) body(i);
}

std::vector<PointResult> SimulationRunner::RunPoints(
    std::span<const PointRequest> requests) {
  const std::size_t n = config_.num_samples;
  const std::size_t m =
      config_.use_fingerprints ? config_.fingerprint_size : 0;
  std::vector<PointResult> out(requests.size());
  stats_.points_evaluated += requests.size();

  // A point's full simulation: its samples [m, n), folded after `head`
  // (its fingerprint, or nothing) in index order. Each thread reuses one
  // sample buffer across the points it simulates.
  auto simulate = [&](const PointRequest& request,
                      std::span<const double> head) {
    thread_local std::vector<double> tail;
    tail.resize(n - m);
    SampleRange(*request.fn, request.params, m, tail);
    Estimator estimator(config_.keep_samples, config_.histogram_bins);
    estimator.AddSpan(head);
    estimator.AddSpan(tail);
    return std::move(estimator).Finalize();
  };

  if (!config_.use_fingerprints) {
    // Naive baseline: every point is an independent full simulation.
    ForEach(requests.size(), [&](std::size_t i) {
      out[i].metrics = simulate(requests[i], {});
    });
    stats_.blackbox_invocations += requests.size() * n;
    return out;
  }

  // Phase 1: every request's fingerprint, the first m rounds of its
  // simulation. Model calls read the draw memo and stage its misses,
  // which join it now, between pool phases.
  std::vector<Fingerprint> fps(requests.size());
  ForEach(requests.size(), [&](std::size_t i) {
    fps[i] = ComputeFingerprint(*requests[i].fn, requests[i].params, seeds_,
                                m);
  });
  draw_memo_.Commit();

  // Phase 2: the match/miss decisions, serially in request order. A miss
  // registers its fingerprint now, making it matchable by later requests,
  // and its metrics in phase 3. A match is always a hit: an affine map
  // transforms any basis' metrics, so the decision never needs them.
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    stats_.blackbox_invocations += m;
    if (auto match = basis_store_.FindMatch(fps[i])) {
      ++stats_.points_reused;
      out[i].reused = true;
      out[i].basis_id = match->basis_id;
      out[i].mapping = match->mapping;
      continue;
    }
    out[i].basis_id = basis_store_.Insert(Fingerprint(fps[i]), {}).id;
    misses.push_back(i);
    stats_.blackbox_invocations += n - m;
  }

  // Phase 3: the misses' full simulations.
  ForEach(misses.size(), [&](std::size_t j) {
    const std::size_t i = misses[j];
    out[i].metrics = simulate(requests[i], fps[i].values());
  });
  for (std::size_t i : misses) {
    basis_store_.SetMetrics(out[i].basis_id, out[i].metrics);
  }

  // Phase 4: the hits map their basis' metrics. Reuse never mixes samples
  // across parameter values: the Selector only compares mapped outputs
  // (Section 6.2's correctness argument).
  for (PointResult& r : out) {
    if (r.reused) {
      r.metrics = basis_store_.Get(r.basis_id).metrics.MappedBy(r.mapping);
    }
  }
  return out;
}

PointResult SimulationRunner::RunPoint(const SimFunction& fn,
                                       std::span<const double> params) {
  const PointRequest request{&fn, params};
  return std::move(RunPoints({&request, 1}).front());
}

std::vector<PointResult> SimulationRunner::RunSweep(
    const SimFunction& fn, const ParameterSpace& space) {
  std::vector<std::vector<double>> valuations(space.NumPoints());
  std::vector<PointRequest> requests(valuations.size());
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    valuations[i] = space.ValuationAt(i);
    requests[i] = {&fn, valuations[i]};
  }
  return RunPoints(requests);
}

}  // namespace jigsaw
