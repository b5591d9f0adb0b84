#include "models/cloud_models.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "random/philox.h"
#include "util/logging.h"

namespace jigsaw {

namespace {

// Every native batch kernel below draws sample i from
// StreamForSigma(seeds[i], call_site), the stream the scalar Eval path
// gets, so it reproduces Eval bit-for-bit; only the parameter-dependent
// arithmetic around the draws is hoisted out of the sample loop.

/// Demand(current_week, feature_release): Algorithm 1 of the paper.
///
///   demand  = Normal(mu = 1 * w,             sigma^2 = 0.1 * w)
///   if w > feature:
///     demand += Normal(mu = 0.2 * (w - f),   sigma^2 = 0.2 * (w - f))
class DemandModel : public BlackBox {
 public:
  explicit DemandModel(const CloudModelConfig& cfg)
      : cfg_(cfg), name_("DemandModel"),
        params_{"current_week", "feature_release"} {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return params_;
  }

  double Eval(std::span<const double> p, RandomStream& rng) const override {
    JIGSAW_DCHECK(p.size() == 2);
    const double week = p[0];
    const double feature = p[1];
    // The sum of the two independent normals of Algorithm 1 is sampled as
    // one combined normal draw (identical distribution). Sampling it in
    // one draw is what makes every (week, feature) point linearly
    // mappable onto every other — the paper reports "only one basis
    // distribution for its entire ~5000 point parameter space", which
    // requires this draw structure. See DESIGN.md.
    double mean = cfg_.demand_mean_rate * week;
    double var = cfg_.demand_var_rate * week;
    if (week > feature) {
      const double dt = week - feature;
      mean += cfg_.feature_mean_rate * dt;
      var += cfg_.feature_var_rate * dt;
    }
    return rng.Normal(mean, std::sqrt(var));
  }

  /// Native kernel: mean/stddev and the feature branch are functions of
  /// the parameter point only, so the sample loop reduces to one seeded
  /// gaussian draw per seed.
  void EvalBatch(std::span<const double> p, SeedSpan seeds,
                 std::uint64_t call_site, std::span<double> out) const override {
    JIGSAW_DCHECK(p.size() == 2);
    const double week = p[0];
    const double feature = p[1];
    double mean = cfg_.demand_mean_rate * week;
    double var = cfg_.demand_var_rate * week;
    if (week > feature) {
      const double dt = week - feature;
      mean += cfg_.feature_mean_rate * dt;
      var += cfg_.feature_var_rate * dt;
    }
    const double sd = std::sqrt(var);
    for (std::size_t i = 0; i < out.size(); ++i) {
      RandomStream rng = StreamForSigma(seeds[i], call_site);
      out[i] = rng.Normal(mean, sd);
    }
  }

 private:
  CloudModelConfig cfg_;
  std::string name_;
  std::vector<std::string> params_;
};

/// Capacity(current_week, purchase1, purchase2): Figure 6 — "simulates a
/// series of purchases. Each purchase increases the capacity of the server
/// cluster after an exponentially distributed delay."
///
/// Both delays are always drawn (even for inactive purchases) so that the
/// draw order is independent of the activity pattern; the output then
/// depends only on the per-purchase deltas (w - p_i), which is what lets
/// many parameter points share a basis distribution ("four weeks after one
/// purchase" looks identical no matter when the purchase happened).
class CapacityModel : public BlackBox {
 public:
  explicit CapacityModel(const CloudModelConfig& cfg)
      : cfg_(cfg), name_("CapacityModel"),
        params_{"current_week", "purchase1", "purchase2"} {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return params_;
  }

  double Eval(std::span<const double> p, RandomStream& rng) const override {
    JIGSAW_DCHECK(p.size() == 3);
    const double week = p[0];
    double capacity = cfg_.base_capacity;
    for (std::size_t i = 1; i <= 2; ++i) {
      const double delay = rng.Exponential(1.0 / cfg_.settle_weeks);
      const double delta = week - p[i];
      if (delta >= 0.0 && delay <= delta) capacity += cfg_.purchase_volume;
    }
    return capacity;
  }

  /// Native kernel: the purchase deltas depend only on the parameter
  /// point; each sample draws the two settle delays and compares.
  void EvalBatch(std::span<const double> p, SeedSpan seeds,
                 std::uint64_t call_site, std::span<double> out) const override {
    JIGSAW_DCHECK(p.size() == 3);
    const double week = p[0];
    const double delta1 = week - p[1];
    const double delta2 = week - p[2];
    const double lambda = 1.0 / cfg_.settle_weeks;
    for (std::size_t i = 0; i < out.size(); ++i) {
      RandomStream rng = StreamForSigma(seeds[i], call_site);
      double capacity = cfg_.base_capacity;
      const double d1 = rng.Exponential(lambda);
      if (delta1 >= 0.0 && d1 <= delta1) capacity += cfg_.purchase_volume;
      const double d2 = rng.Exponential(lambda);
      if (delta2 >= 0.0 && d2 <= delta2) capacity += cfg_.purchase_volume;
      out[i] = capacity;
    }
  }

 private:
  CloudModelConfig cfg_;
  std::string name_;
  std::vector<std::string> params_;
};

/// Overload(current_week, purchase1, purchase2): Figure 6 — synthesized
/// from Capacity and Demand (the feature release is ignored, i.e. demand
/// never gets the post-release growth term). Returns 1 if demand exceeds
/// capacity. The boolean output discards the magnitudes, which is exactly
/// why fingerprint remapping helps Overload far less than its parents
/// (discussed with Figure 8 in the paper).
class OverloadModel : public BlackBox {
 public:
  explicit OverloadModel(const CloudModelConfig& cfg)
      : cfg_(cfg), name_("OverloadModel"),
        params_{"current_week", "purchase1", "purchase2"} {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return params_;
  }

  double Eval(std::span<const double> p, RandomStream& rng) const override {
    JIGSAW_DCHECK(p.size() == 3);
    const double week = p[0];
    const double demand = rng.Normal(
        cfg_.demand_mean_rate * week, std::sqrt(cfg_.demand_var_rate * week));
    double capacity = cfg_.base_capacity;
    for (std::size_t i = 1; i <= 2; ++i) {
      const double delay = rng.Exponential(1.0 / cfg_.settle_weeks);
      const double delta = week - p[i];
      if (delta >= 0.0 && delay <= delta) capacity += cfg_.purchase_volume;
    }
    return capacity < demand ? 1.0 : 0.0;
  }

  /// Native kernel: demand mean/stddev and purchase deltas hoisted; each
  /// sample is one gaussian plus two exponential draws and a compare.
  void EvalBatch(std::span<const double> p, SeedSpan seeds,
                 std::uint64_t call_site, std::span<double> out) const override {
    JIGSAW_DCHECK(p.size() == 3);
    const double week = p[0];
    const double mean = cfg_.demand_mean_rate * week;
    const double sd = std::sqrt(cfg_.demand_var_rate * week);
    const double delta1 = week - p[1];
    const double delta2 = week - p[2];
    const double lambda = 1.0 / cfg_.settle_weeks;
    for (std::size_t i = 0; i < out.size(); ++i) {
      RandomStream rng = StreamForSigma(seeds[i], call_site);
      const double demand = rng.Normal(mean, sd);
      double capacity = cfg_.base_capacity;
      const double d1 = rng.Exponential(lambda);
      if (delta1 >= 0.0 && d1 <= delta1) capacity += cfg_.purchase_volume;
      const double d2 = rng.Exponential(lambda);
      if (delta2 >= 0.0 && d2 <= delta2) capacity += cfg_.purchase_volume;
      out[i] = capacity < demand ? 1.0 : 0.0;
    }
  }

 private:
  CloudModelConfig cfg_;
  std::string name_;
  std::vector<std::string> params_;
};

/// UserSelection(current_week): Figure 6 — "simulates the per-user
/// requirements of each of a set of users". The user population itself is
/// data, not randomness: per-user attributes (signup week, base demand)
/// derive deterministically from the user id, so every sample sees the
/// same population. Each sample then draws one requirement multiplier per
/// active user, the peak of user_sim_depth lognormal draws; cost is
/// O(num_users), making this the data-bound workload of Figure 7.
class UserSelectionModel : public BlackBox {
 public:
  explicit UserSelectionModel(const CloudModelConfig& cfg)
      : cfg_(cfg), name_("UserSelectionModel"), params_{"current_week"} {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return params_;
  }

  double Eval(std::span<const double> p, RandomStream& rng) const override {
    JIGSAW_DCHECK(p.size() == 1);
    const double week = p[0];
    double total = 0.0;
    for (int u = 0; u < cfg_.num_users; ++u) {
      double signup = 0.0, base = 0.0;
      DeriveUserProfile(u, cfg_.user_arrival_rate, cfg_.user_base_demand,
                        &signup, &base);
      if (signup > week) continue;
      double peak = 0.0;
      rng.MaxLogNormal(cfg_.user_demand_spread, cfg_.user_sim_depth,
                       {&peak, 1});
      total += base * peak;
    }
    return total;
  }

  /// Native kernel: the active-user roster is data (a pure function of
  /// the parameter point), so it is derived once per batch instead of
  /// once per sample — the scalar path burns O(num_users) Philox blocks
  /// per sample just to re-skip inactive users. Draw order is preserved:
  /// the scalar loop skips a user *before* drawing, so the seeded draws
  /// happen for active users in id order, exactly as replayed here.
  void EvalBatch(std::span<const double> p, SeedSpan seeds,
                 std::uint64_t call_site, std::span<double> out) const override {
    JIGSAW_DCHECK(p.size() == 1);
    const double week = p[0];
    std::vector<double> active_bases;
    active_bases.reserve(static_cast<std::size_t>(cfg_.num_users));
    for (int u = 0; u < cfg_.num_users; ++u) {
      double signup = 0.0, base = 0.0;
      DeriveUserProfile(u, cfg_.user_arrival_rate, cfg_.user_base_demand,
                        &signup, &base);
      if (signup <= week) active_bases.push_back(base);
    }
    const double spread = cfg_.user_demand_spread;
    const int depth = cfg_.user_sim_depth;
    // One stream per sample, whose draws run user by user in roster
    // order; the kernel takes the whole roster's peaks in one call.
    std::vector<double> peaks(active_bases.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      RandomStream rng = StreamForSigma(seeds[i], call_site);
      rng.MaxLogNormal(spread, depth, peaks);
      double total = 0.0;
      for (std::size_t a = 0; a < active_bases.size(); ++a) {
        total += active_bases[a] * peaks[a];
      }
      out[i] = total;
    }
  }

 private:
  CloudModelConfig cfg_;
  std::string name_;
  std::vector<std::string> params_;
};

/// SynthBasis(point): Figure 6 — "a synthetic black box based on Demand,
/// but with a deterministic number of basis distributions". The domain is
/// partitioned into classes by point % num_basis. Every class consumes
/// exactly two gaussian draws (constant per-invocation cost, so index
/// benchmarks are not polluted by model-cost growth) but mixes them at a
/// class-specific angle: z(c) = z1*cos(phi_c) + z2*sin(phi_c). Two points
/// in the same class relate by an exact linear map; across classes the
/// mixtures are linearly independent of each other and of the constant
/// vector, so no affine mapping exists (angles are distinct modulo pi).
class SynthBasisModel : public BlackBox {
 public:
  explicit SynthBasisModel(const CloudModelConfig& cfg)
      : cfg_(cfg), name_("SynthBasisModel"), params_{"point"} {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return params_;
  }

  double Eval(std::span<const double> p, RandomStream& rng) const override {
    JIGSAW_DCHECK(p.size() == 1);
    const auto point = static_cast<std::int64_t>(p[0]);
    const int cls = static_cast<int>(
        point % static_cast<std::int64_t>(cfg_.synth_num_basis));
    const double phi = M_PI * (cls + 0.5) /
                       (static_cast<double>(cfg_.synth_num_basis) + 1.0);
    const double z1 = rng.Gaussian();
    const double z2 = rng.Gaussian();
    const double z = z1 * std::cos(phi) + z2 * std::sin(phi);
    return static_cast<double>(point + 1) * z + static_cast<double>(point);
  }

  /// Native kernel: class angle (and its cos/sin) plus the affine scale
  /// are per-point; the loop is two gaussians and a fused mix per seed.
  void EvalBatch(std::span<const double> p, SeedSpan seeds,
                 std::uint64_t call_site, std::span<double> out) const override {
    JIGSAW_DCHECK(p.size() == 1);
    const auto point = static_cast<std::int64_t>(p[0]);
    const int cls = static_cast<int>(
        point % static_cast<std::int64_t>(cfg_.synth_num_basis));
    const double phi = M_PI * (cls + 0.5) /
                       (static_cast<double>(cfg_.synth_num_basis) + 1.0);
    const double cos_phi = std::cos(phi);
    const double sin_phi = std::sin(phi);
    const double scale = static_cast<double>(point + 1);
    const double offset = static_cast<double>(point);
    for (std::size_t i = 0; i < out.size(); ++i) {
      RandomStream rng = StreamForSigma(seeds[i], call_site);
      const double z1 = rng.Gaussian();
      const double z2 = rng.Gaussian();
      out[i] = scale * (z1 * cos_phi + z2 * sin_phi) + offset;
    }
  }

 private:
  CloudModelConfig cfg_;
  std::string name_;
  std::vector<std::string> params_;
};

/// SeasonalDemand(current_week): example-only model — long-term growth
/// modulated by annual seasonality plus week-scaled gaussian noise.
class SeasonalDemandModel : public BlackBox {
 public:
  explicit SeasonalDemandModel(const CloudModelConfig& cfg)
      : cfg_(cfg), name_("SeasonalDemandModel"), params_{"current_week"} {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return params_;
  }

  double Eval(std::span<const double> p, RandomStream& rng) const override {
    JIGSAW_DCHECK(p.size() == 1);
    const double week = p[0];
    const double trend = cfg_.demand_mean_rate * week;
    const double season = 1.0 + 0.25 * std::sin(week * 2.0 * M_PI / 52.0);
    return trend * season +
           rng.Normal(0.0, std::sqrt(cfg_.demand_var_rate * (week + 1.0)));
  }

  /// Native kernel: trend/seasonality and the noise stddev are per-point.
  void EvalBatch(std::span<const double> p, SeedSpan seeds,
                 std::uint64_t call_site, std::span<double> out) const override {
    JIGSAW_DCHECK(p.size() == 1);
    const double week = p[0];
    const double level = cfg_.demand_mean_rate * week *
                         (1.0 + 0.25 * std::sin(week * 2.0 * M_PI / 52.0));
    const double sd = std::sqrt(cfg_.demand_var_rate * (week + 1.0));
    for (std::size_t i = 0; i < out.size(); ++i) {
      RandomStream rng = StreamForSigma(seeds[i], call_site);
      out[i] = level + rng.Normal(0.0, sd);
    }
  }

 private:
  CloudModelConfig cfg_;
  std::string name_;
  std::vector<std::string> params_;
};

/// Outage(current_week): example-only model — count of concurrently failed
/// racks, Poisson with slowly increasing rate as the fleet ages.
class OutageModel : public BlackBox {
 public:
  explicit OutageModel(const CloudModelConfig& cfg)
      : cfg_(cfg), name_("OutageModel"), params_{"current_week"} {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return params_;
  }

  double Eval(std::span<const double> p, RandomStream& rng) const override {
    JIGSAW_DCHECK(p.size() == 1);
    const double week = p[0];
    const double rate =
        cfg_.failure_rate * (cfg_.base_capacity / 100.0) * (1.0 + week / 52.0);
    return static_cast<double>(rng.Poisson(rate)) * cfg_.failure_cores;
  }

  /// Native kernel: the Poisson rate is per-point.
  void EvalBatch(std::span<const double> p, SeedSpan seeds,
                 std::uint64_t call_site, std::span<double> out) const override {
    JIGSAW_DCHECK(p.size() == 1);
    const double week = p[0];
    const double rate =
        cfg_.failure_rate * (cfg_.base_capacity / 100.0) * (1.0 + week / 52.0);
    for (std::size_t i = 0; i < out.size(); ++i) {
      RandomStream rng = StreamForSigma(seeds[i], call_site);
      out[i] = static_cast<double>(rng.Poisson(rate)) * cfg_.failure_cores;
    }
  }

 private:
  CloudModelConfig cfg_;
  std::string name_;
  std::vector<std::string> params_;
};

}  // namespace

BlackBoxPtr MakeDemandModel(const CloudModelConfig& cfg) {
  return std::make_shared<DemandModel>(cfg);
}
BlackBoxPtr MakeCapacityModel(const CloudModelConfig& cfg) {
  return std::make_shared<CapacityModel>(cfg);
}
BlackBoxPtr MakeOverloadModel(const CloudModelConfig& cfg) {
  return std::make_shared<OverloadModel>(cfg);
}
BlackBoxPtr MakeUserSelectionModel(const CloudModelConfig& cfg) {
  return std::make_shared<UserSelectionModel>(cfg);
}
BlackBoxPtr MakeSynthBasisModel(const CloudModelConfig& cfg) {
  return std::make_shared<SynthBasisModel>(cfg);
}
BlackBoxPtr MakeSeasonalDemandModel(const CloudModelConfig& cfg) {
  return std::make_shared<SeasonalDemandModel>(cfg);
}
BlackBoxPtr MakeOutageModel(const CloudModelConfig& cfg) {
  return std::make_shared<OutageModel>(cfg);
}

void DeriveUserProfile(int user, double arrival_rate, double base_demand,
                       double* signup_week, double* base) {
  std::uint64_t a = 0, b = 0;
  Philox4x32::Block64(static_cast<std::uint64_t>(user), 0,
                      /*key=*/0x5851f42d4c957f2dULL, &a, &b);
  const double u1 = static_cast<double>(a >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
  // Geometric-ish arrival: most users joined early, a tail keeps arriving.
  *signup_week =
      std::floor(-std::log(1.0 - u1 * 0.999999) / arrival_rate / 4.0);
  *base = base_demand * (0.5 + u2);
}

Status RegisterCloudModels(ModelRegistry* registry,
                           const CloudModelConfig& cfg) {
  JIGSAW_RETURN_IF_ERROR(registry->Register(MakeDemandModel(cfg)));
  JIGSAW_RETURN_IF_ERROR(registry->Register(MakeCapacityModel(cfg)));
  JIGSAW_RETURN_IF_ERROR(registry->Register(MakeOverloadModel(cfg)));
  JIGSAW_RETURN_IF_ERROR(registry->Register(MakeUserSelectionModel(cfg)));
  JIGSAW_RETURN_IF_ERROR(registry->Register(MakeSynthBasisModel(cfg)));
  JIGSAW_RETURN_IF_ERROR(registry->Register(MakeSeasonalDemandModel(cfg)));
  JIGSAW_RETURN_IF_ERROR(registry->Register(MakeOutageModel(cfg)));
  return Status::OK();
}

}  // namespace jigsaw
