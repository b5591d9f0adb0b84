#include "interactive/interactive_session.h"

#include <algorithm>

#include "core/fingerprint.h"
#include "core/mapping.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw {

/// One basis distribution shared by mapped points. Samples live in the
/// basis domain; refinement inserts M^{-1}(value) for new ids.
struct InteractiveSession::BasisRecord {
  std::map<std::size_t, double> samples;  // sample id -> basis-domain value
  WelfordAccumulator acc;
  std::size_t subscribers = 0;

  void AddSample(std::size_t id, double value) {
    if (samples.emplace(id, value).second) acc.Add(value);
  }
};

struct InteractiveSession::PointState {
  std::vector<double> valuation;
  /// Own evaluations of this point (the progressively grown fingerprint).
  std::map<std::size_t, double> own;
  /// Unbound while null; `mapping` is meaningful only when bound.
  std::shared_ptr<BasisRecord> basis;
  AffineMap mapping;  // basis -> point
};

InteractiveSession::InteractiveSession(SimFunctionPtr fn,
                                       ParameterSpace space,
                                       const InteractiveConfig& config)
    : fn_(std::move(fn)),
      space_(std::move(space)),
      config_(config),
      seeds_(config.run.master_seed, config.max_samples),
      heuristic_rng_(config.run.master_seed ^ 0x1A7EAC717E5A17ULL) {
  pool_ = ResolvePool(config_.run, &owned_pool_);
}

InteractiveSession::~InteractiveSession() = default;

std::size_t InteractiveSession::num_points() const {
  return space_.NumPoints();
}

std::size_t InteractiveSession::basis_count() const { return bases_.size(); }

Status InteractiveSession::SetFocus(std::size_t point_index) {
  if (point_index >= space_.NumPoints()) {
    return Status::OutOfRange("point index out of range");
  }
  focus_ = point_index;
  return Status::OK();
}

Status InteractiveSession::PrimeFromSweep(std::size_t point_index,
                                          const OutputMetrics& metrics) {
  if (point_index >= space_.NumPoints()) {
    return Status::OutOfRange("point index out of range");
  }
  if (metrics.samples.empty()) {
    return Status::InvalidArgument(
        "sweep metrics retained no samples; run the sweep with "
        "keep_samples");
  }
  // Silently importing a prefix would report less support than the sweep
  // produced; make the caller trim (or raise max_samples) explicitly.
  if (metrics.samples.size() > config_.max_samples) {
    return Status::InvalidArgument(StrFormat(
        "sweep retained %zu samples but the session caps sample ids at "
        "max_samples=%zu",
        metrics.samples.size(), config_.max_samples));
  }
  PointState& state = StateFor(point_index);
  // World id k of the sweep is sample id k of this session (both draw
  // sample k from seed sigma_k of the shared master seed), so the
  // imported values fold through the same path a tick's own evaluations
  // take: an already-bound point refines (or rebind-checks) its basis,
  // an unbound one binds below.
  for (std::size_t id = 0; id < metrics.samples.size(); ++id) {
    FoldSample(state, id, metrics.samples[id]);
  }
  if (state.basis == nullptr) BindPoint(point_index);
  return Status::OK();
}

InteractiveSession::PointState& InteractiveSession::StateFor(
    std::size_t point_index) {
  auto it = points_.find(point_index);
  if (it == points_.end()) {
    auto state = std::make_unique<PointState>();
    state->valuation = space_.ValuationAt(point_index);
    it = points_.emplace(point_index, std::move(state)).first;
  }
  return *it->second;
}

InteractiveTask InteractiveSession::PickTask(const PointState& state) {
  // A point without a binding always refines first (it needs a
  // fingerprint before anything else is meaningful).
  if (state.basis == nullptr) return InteractiveTask::kRefinement;
  const double r = heuristic_rng_.NextDouble();
  if (r < config_.exploration_weight) return InteractiveTask::kExploration;
  if (r < config_.exploration_weight + config_.validation_weight) {
    return InteractiveTask::kValidation;
  }
  return InteractiveTask::kRefinement;
}

std::size_t InteractiveSession::ExploreHeuristic(std::size_t point_index) {
  // Adjacent point in the (discrete) enumeration order — the paper's
  // example of "points likely to be of interest in the near future".
  const std::size_t n = space_.NumPoints();
  if (n <= 1) return point_index;
  if (heuristic_rng_.Bernoulli(0.5) && point_index + 1 < n) {
    return point_index + 1;
  }
  return point_index > 0 ? point_index - 1 : point_index + 1;
}

void InteractiveSession::EvaluateBatch(std::size_t point_index,
                                       const std::vector<std::size_t>& ids) {
  PointState& state = StateFor(point_index);

  // Evaluate first — in parallel when a pool is attached, since each
  // sample is a pure function of its id — then fold serially in id order
  // so basis updates and rebind decisions never depend on the schedule.
  std::vector<std::size_t> valid;
  valid.reserve(ids.size());
  for (std::size_t id : ids) {
    if (id < config_.max_samples) valid.push_back(id);
  }
  std::vector<double> values(valid.size());
  auto eval = [&](std::size_t i) {
    values[i] = fn_->Sample(state.valuation, valid[i], seeds_);
  };
  if (pool_ != nullptr && valid.size() >= 2) {
    pool_->ParallelFor(valid.size(), eval);
  } else {
    for (std::size_t i = 0; i < valid.size(); ++i) eval(i);
  }

  for (std::size_t i = 0; i < valid.size(); ++i) {
    ++stats_.evaluations;
    FoldSample(state, valid[i], values[i]);
  }
  if (state.basis == nullptr) BindPoint(point_index);
}

void InteractiveSession::FoldSample(PointState& state, std::size_t id,
                                    double value) {
  state.own[id] = value;
  if (state.basis == nullptr) return;
  auto bit = state.basis->samples.find(id);
  if (bit != state.basis->samples.end()) {
    // Validation: the duplicate sample extends the fingerprint.
    if (!ApproxEqual(state.mapping.Apply(bit->second), value,
                     kMappingTolerance)) {
      // Mapping no longer valid: detach and rebind below.
      --state.basis->subscribers;
      state.basis = nullptr;
      ++stats_.rebinds;
    }
  } else if (state.mapping.Invertible()) {
    // Refinement: map the fresh sample back into the basis domain so
    // every subscriber benefits (Algorithm 5 line 21).
    state.basis->AddSample(id, state.mapping.Invert(value));
  }
}

void InteractiveSession::BindPoint(std::size_t point_index) {
  PointState& state = StateFor(point_index);
  if (state.own.size() < 2) return;  // not enough for a mapping

  // Fingerprint over this point's own sample ids.
  std::vector<double> fp_values;
  std::vector<std::size_t> fp_ids;
  for (const auto& [id, v] : state.own) {
    fp_ids.push_back(id);
    fp_values.push_back(v);
  }
  const Fingerprint theta(fp_values);

  // Try to map an existing basis onto this point over the shared ids.
  for (const auto& basis : bases_) {
    std::vector<double> basis_values;
    basis_values.reserve(fp_ids.size());
    bool complete = true;
    for (std::size_t id : fp_ids) {
      auto it = basis->samples.find(id);
      if (it == basis->samples.end()) {
        complete = false;
        break;
      }
      basis_values.push_back(it->second);
    }
    if (!complete) continue;
    if (const auto m = FindLinearMapping(Fingerprint(basis_values), theta,
                                         kMappingTolerance)) {
      state.basis = basis;
      state.mapping = *m;
      ++basis->subscribers;
      ++stats_.borrow_hits;
      return;
    }
  }

  // No mappable basis: promote this point's own samples to a new basis.
  auto basis = std::make_shared<BasisRecord>();
  for (const auto& [id, v] : state.own) basis->AddSample(id, v);
  basis->subscribers = 1;
  bases_.push_back(basis);
  state.basis = std::move(basis);
  state.mapping = AffineMap{};
  ++stats_.basis_created;
}

InteractiveTask InteractiveSession::Tick() {
  ++stats_.ticks;
  PointState& state = StateFor(focus_);
  const InteractiveTask task = PickTask(state);
  std::size_t target = focus_;

  std::vector<std::size_t> candidate_ids;
  switch (task) {
    case InteractiveTask::kRefinement: {
      // Ids not yet in the basis (or not yet evaluated at all).
      const BasisRecord* basis = state.basis.get();
      for (std::size_t id = 0;
           id < config_.max_samples &&
           candidate_ids.size() < config_.batch_size;
           ++id) {
        const bool in_basis =
            basis != nullptr && basis->samples.count(id) > 0;
        if (!in_basis && state.own.count(id) == 0) {
          candidate_ids.push_back(id);
        }
      }
      break;
    }
    case InteractiveTask::kValidation: {
      // Ids in the basis but not in the point's own fingerprint.
      for (const auto& [id, _] : state.basis->samples) {
        if (state.own.count(id) == 0) candidate_ids.push_back(id);
        if (candidate_ids.size() >= config_.batch_size) break;
      }
      break;
    }
    case InteractiveTask::kExploration: {
      target = ExploreHeuristic(focus_);
      PointState& neighbor = StateFor(target);
      if (neighbor.own.empty()) {
        for (std::size_t id = 0; id < config_.batch_size; ++id) {
          candidate_ids.push_back(id);
        }
      } else {
        const BasisRecord* basis = neighbor.basis.get();
        for (std::size_t id = 0;
             id < config_.max_samples &&
             candidate_ids.size() < config_.batch_size;
             ++id) {
          const bool in_basis =
              basis != nullptr && basis->samples.count(id) > 0;
          if (!in_basis && neighbor.own.count(id) == 0) {
            candidate_ids.push_back(id);
          }
        }
      }
      break;
    }
  }

  if (!candidate_ids.empty()) EvaluateBatch(target, candidate_ids);
  return task;
}

void InteractiveSession::Run(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) Tick();
}

DisplayEstimate InteractiveSession::EstimateFor(
    std::size_t point_index) const {
  DisplayEstimate out;
  auto it = points_.find(point_index);
  if (it == points_.end()) return out;
  const PointState& state = *it->second;
  if (state.basis != nullptr) {
    const auto [alpha, beta] = state.mapping;
    out.mean = alpha * state.basis->acc.mean() + beta;
    out.std_error = std::fabs(alpha) * state.basis->acc.standard_error();
    out.support = state.basis->acc.count();
    out.borrowed = state.basis->subscribers > 1;
    out.available = true;
    return out;
  }
  if (!state.own.empty()) {
    WelfordAccumulator acc;
    for (const auto& [_, v] : state.own) acc.Add(v);
    out.mean = acc.mean();
    out.std_error = acc.standard_error();
    out.support = acc.count();
    out.available = true;
  }
  return out;
}

}  // namespace jigsaw
