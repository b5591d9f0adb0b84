#include "markov/markov_models.h"

#include <algorithm>
#include <cmath>

namespace jigsaw {

double MarkovStepProcess::Demand(double week, double release,
                                 RandomStream& rng) const {
  // One combined normal draw (see DemandModel in cloud_models.cc): the
  // sum-of-normals is sampled in a single draw so released/unreleased
  // regimes stay linearly mappable under shared seeds.
  double mean = cfg_.demand_mean_rate * week;
  double var = cfg_.demand_var_rate * week;
  if (week > release) {
    const double dt = week - release;
    mean += cfg_.feature_mean_rate * dt;
    var += cfg_.feature_var_rate * dt;
  }
  return rng.Normal(mean, std::sqrt(var));
}

double MarkovStepProcess::Step(double prev_release, std::int64_t step,
                               RandomStream& rng) const {
  const double week = static_cast<double>(step);
  const double demand = Demand(week, prev_release, rng);
  // Management pulls the release in the first time demand crosses the
  // threshold while the release is still in the future.
  if (demand > cfg_.demand_threshold &&
      week + cfg_.pull_in_lead_weeks < prev_release) {
    return week + cfg_.pull_in_lead_weeks;
  }
  return prev_release;
}

double MarkovStepProcess::Output(double release, std::int64_t step,
                                 RandomStream& rng) const {
  return Demand(static_cast<double>(step), release, rng);
}

double MarkovBranchProcess::Step(double prev_state, std::int64_t /*step*/,
                                 RandomStream& rng) const {
  if (rng.Bernoulli(cfg_.branching)) {
    return prev_state + cfg_.state_jump;
  }
  return prev_state;
}

double MarkovBranchProcess::Estimate(double anchor_state,
                                     std::int64_t /*anchor_step*/,
                                     std::int64_t /*step*/,
                                     RandomStream& /*rng*/) const {
  return anchor_state;
}

void MarkovBranchProcess::EstimateBatch(std::span<const double> anchor_states,
                                        std::int64_t /*anchor_step*/,
                                        std::int64_t /*step*/,
                                        std::size_t /*k_begin*/,
                                        const SeedVector& /*seeds*/,
                                        std::span<double> out) const {
  // The chain runner rebuilds in place (out aliases anchor_states), in
  // which case the copy is a no-op rather than a std::copy overlap.
  if (out.data() != anchor_states.data()) {
    std::copy(anchor_states.begin(), anchor_states.end(), out.begin());
  }
}

}  // namespace jigsaw
