#include "models/cloud_models.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "random/philox.h"
#include "util/logging.h"

namespace jigsaw {

namespace {

template <typename T, std::size_t... I>
constexpr bool InitializedByDoubles(std::index_sequence<I...>) {
  return requires { T{(static_cast<void>(I), std::declval<double>())...}; };
}

/// True when T is made only of doubles: a double, or a trivially copyable
/// aggregate that exactly sizeof(T) / sizeof(double) doubles initialize
/// without narrowing. A member of another type either narrows or leaves an
/// initializer over, and so does padding, so T's bytes are all value bits.
template <typename T>
constexpr bool kMadeOfDoubles =
    std::is_trivially_copyable_v<T> &&
    (std::is_same_v<T, double> || std::is_aggregate_v<T>) &&
    sizeof(T) % sizeof(double) == 0 &&
    InitializedByDoubles<T>(std::make_index_sequence<sizeof(T) /
                                                     sizeof(double)>{});

struct PaddedPoint {
  double value;
  int flag;
};
static_assert(!kMadeOfDoubles<PaddedPoint> && !kMadeOfDoubles<float> &&
              !kMadeOfDoubles<std::vector<double>>);

/// Implements BlackBox from a model's two members: `Prepare(params)` does
/// the work that depends only on the parameter point and returns it, and
/// `Draw(point, rng)` makes one sample's draws. `Eval` is
/// Draw(Prepare(params), rng); `EvalBatch` prepares once and draws sample
/// i from StreamForSigma(seeds[i], call_site), the stream InvokeSeeded
/// hands `Eval`, so the two paths agree bit for bit. `Draw` reads only
/// the point and the model's own config, so a point made only of doubles
/// is the model's draw key; any other point (UserSelection's roster) is
/// never built to make a key, and the params are the key.
template <typename Model>
class PreparedModel final : public BlackBox {
 public:
  using Point = decltype(std::declval<const Model&>().Prepare(
      std::span<const double>()));

  PreparedModel(std::string name, std::vector<std::string> param_names,
                Model model)
      : name_(std::move(name)),
        param_names_(std::move(param_names)),
        model_(std::move(model)) {}

  const std::string& name() const override { return name_; }
  const std::vector<std::string>& param_names() const override {
    return param_names_;
  }

  double Eval(std::span<const double> p, RandomStream& rng) const override {
    JIGSAW_DCHECK(p.size() == param_names_.size());
    return model_.Draw(model_.Prepare(p), rng);
  }

  void EvalBatch(std::span<const double> p, SeedSpan seeds,
                 std::uint64_t call_site, std::span<double> out) const override {
    JIGSAW_DCHECK(p.size() == param_names_.size());
    JIGSAW_DCHECK(seeds.size() == out.size());
    const auto point = model_.Prepare(p);
    for (std::size_t i = 0; i < out.size(); ++i) {
      RandomStream rng = StreamForSigma(seeds[i], call_site);
      out[i] = model_.Draw(point, rng);
    }
  }

  void AppendDrawKey(std::span<const double> p,
                     std::vector<std::uint64_t>* key) const override {
    if constexpr (kMadeOfDoubles<Point>) {
      const Point point = model_.Prepare(p);
      const std::size_t at = key->size();
      key->resize(at + sizeof(Point) / sizeof(std::uint64_t));
      std::memcpy(key->data() + at, &point, sizeof(Point));
    } else {
      BlackBox::AppendDrawKey(p, key);
    }
  }

 private:
  std::string name_;
  std::vector<std::string> param_names_;
  Model model_;
};

template <typename Model>
BlackBoxPtr MakePrepared(std::string name,
                         std::vector<std::string> param_names, Model model) {
  return std::make_shared<PreparedModel<Model>>(
      std::move(name), std::move(param_names), std::move(model));
}

/// Demand(current_week, feature_release): Algorithm 1 of the paper.
///
///   demand  = Normal(mu = 1 * w,             sigma^2 = 0.1 * w)
///   if w > feature:
///     demand += Normal(mu = 0.2 * (w - f),   sigma^2 = 0.2 * (w - f))
struct Demand {
  struct Point {
    double mean;
    double sd;
  };

  Point Prepare(std::span<const double> p) const {
    const double week = p[0];
    const double feature = p[1];
    // The sum of the two independent normals of Algorithm 1 is sampled as
    // one combined normal draw (identical distribution). Sampling it in
    // one draw is what makes every (week, feature) point linearly
    // mappable onto every other — the paper reports "only one basis
    // distribution for its entire ~5000 point parameter space", which
    // requires this draw structure. See DESIGN.md.
    double mean = cfg.demand_mean_rate * week;
    double var = cfg.demand_var_rate * week;
    if (week > feature) {
      const double dt = week - feature;
      mean += cfg.feature_mean_rate * dt;
      var += cfg.feature_var_rate * dt;
    }
    return {mean, std::sqrt(var)};
  }

  double Draw(const Point& point, RandomStream& rng) const {
    return rng.Normal(point.mean, point.sd);
  }

  CloudModelConfig cfg;
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
struct Capacity {
  struct Point {
    double deltas[2];  ///< weeks since each purchase (negative: not yet)
    double settle_rate;
  };

  Point Prepare(std::span<const double> p) const {
    return {{p[0] - p[1], p[0] - p[2]}, 1.0 / cfg.settle_weeks};
  }

  double Draw(const Point& point, RandomStream& rng) const {
    double capacity = cfg.base_capacity;
    for (const double delta : point.deltas) {
      const double delay = rng.Exponential(point.settle_rate);
      if (delta >= 0.0 && delay <= delta) capacity += cfg.purchase_volume;
    }
    return capacity;
  }

  CloudModelConfig cfg;
};

/// Overload(current_week, purchase1, purchase2): Figure 6 — synthesized
/// from Capacity and Demand (the feature release is ignored, i.e. demand
/// never gets the post-release growth term). Returns 1 if demand exceeds
/// capacity. The boolean output discards the magnitudes, which is exactly
/// why fingerprint remapping helps Overload far less than its parents
/// (discussed with Figure 8 in the paper).
struct Overload {
  struct Point {
    Demand::Point demand;
    Capacity::Point capacity;
  };

  Point Prepare(std::span<const double> p) const {
    // Demand under a feature release that never comes.
    const double no_release[] = {p[0],
                                 std::numeric_limits<double>::infinity()};
    return {demand.Prepare(no_release), capacity.Prepare(p)};
  }

  double Draw(const Point& point, RandomStream& rng) const {
    // Demand draws first: the draw order is part of the model's output.
    const double load = demand.Draw(point.demand, rng);
    return capacity.Draw(point.capacity, rng) < load ? 1.0 : 0.0;
  }

  Demand demand;
  Capacity capacity;
};

/// UserSelection(current_week): Figure 6 — "simulates the per-user
/// requirements of each of a set of users". The user population itself is
/// data, not randomness: per-user attributes (signup week, base demand)
/// derive deterministically from the user id, so every sample sees the
/// same population. Each sample then draws one requirement multiplier per
/// active user, the peak of user_sim_depth lognormal draws; cost is
/// O(num_users), making this the data-bound workload of Figure 7.
struct UserSelection {
  /// The active users' base demands in id order: the roster is a pure
  /// function of the week, so a batch derives it once, not per sample.
  std::vector<double> Prepare(std::span<const double> p) const {
    const double week = p[0];
    std::vector<double> active_bases;
    active_bases.reserve(static_cast<std::size_t>(cfg.num_users));
    for (int u = 0; u < cfg.num_users; ++u) {
      double signup = 0.0, base = 0.0;
      DeriveUserProfile(u, cfg.user_arrival_rate, cfg.user_base_demand,
                        &signup, &base);
      if (signup <= week) active_bases.push_back(base);
    }
    return active_bases;
  }

  double Draw(const std::vector<double>& active_bases,
              RandomStream& rng) const {
    // The sample's draws run user by user in roster order; one kernel
    // call takes the whole roster's peaks.
    std::vector<double> peaks(active_bases.size());
    rng.MaxLogNormal(cfg.user_demand_spread, cfg.user_sim_depth, peaks);
    double total = 0.0;
    for (std::size_t a = 0; a < active_bases.size(); ++a) {
      total += active_bases[a] * peaks[a];
    }
    return total;
  }

  CloudModelConfig cfg;
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
struct SynthBasis {
  /// The class angle's cosine and sine, and the point's affine map.
  struct Point {
    double cos_phi;
    double sin_phi;
    double scale;
    double offset;
  };

  Point Prepare(std::span<const double> p) const {
    const auto point = static_cast<std::int64_t>(p[0]);
    const int cls = static_cast<int>(
        point % static_cast<std::int64_t>(cfg.synth_num_basis));
    const double phi = M_PI * (cls + 0.5) /
                       (static_cast<double>(cfg.synth_num_basis) + 1.0);
    return {std::cos(phi), std::sin(phi), static_cast<double>(point + 1),
            static_cast<double>(point)};
  }

  double Draw(const Point& point, RandomStream& rng) const {
    const double z1 = rng.Gaussian();
    const double z2 = rng.Gaussian();
    return point.scale * (z1 * point.cos_phi + z2 * point.sin_phi) +
           point.offset;
  }

  CloudModelConfig cfg;
};

/// SeasonalDemand(current_week): example-only model — long-term growth
/// modulated by annual seasonality plus week-scaled gaussian noise.
struct SeasonalDemand {
  struct Point {
    double level;
    double sd;
  };

  Point Prepare(std::span<const double> p) const {
    const double week = p[0];
    const double trend = cfg.demand_mean_rate * week;
    const double season = 1.0 + 0.25 * std::sin(week * 2.0 * M_PI / 52.0);
    return {trend * season,
            std::sqrt(cfg.demand_var_rate * (week + 1.0))};
  }

  double Draw(const Point& point, RandomStream& rng) const {
    return point.level + rng.Normal(0.0, point.sd);
  }

  CloudModelConfig cfg;
};

/// Outage(current_week): example-only model — count of concurrently failed
/// racks, Poisson with slowly increasing rate as the fleet ages.
struct Outage {
  /// The week's Poisson rate.
  double Prepare(std::span<const double> p) const {
    const double week = p[0];
    return cfg.failure_rate * (cfg.base_capacity / 100.0) *
           (1.0 + week / 52.0);
  }

  double Draw(double rate, RandomStream& rng) const {
    return static_cast<double>(rng.Poisson(rate)) * cfg.failure_cores;
  }

  CloudModelConfig cfg;
};

static_assert(kMadeOfDoubles<Demand::Point> &&
              kMadeOfDoubles<Capacity::Point> &&
              kMadeOfDoubles<Overload::Point> &&
              kMadeOfDoubles<SynthBasis::Point> &&
              kMadeOfDoubles<SeasonalDemand::Point> &&
              kMadeOfDoubles<double>);

}  // namespace

BlackBoxPtr MakeDemandModel(const CloudModelConfig& cfg) {
  return MakePrepared("DemandModel", {"current_week", "feature_release"},
                      Demand{cfg});
}
BlackBoxPtr MakeCapacityModel(const CloudModelConfig& cfg) {
  return MakePrepared("CapacityModel",
                      {"current_week", "purchase1", "purchase2"},
                      Capacity{cfg});
}
BlackBoxPtr MakeOverloadModel(const CloudModelConfig& cfg) {
  return MakePrepared("OverloadModel",
                      {"current_week", "purchase1", "purchase2"},
                      Overload{Demand{cfg}, Capacity{cfg}});
}
BlackBoxPtr MakeUserSelectionModel(const CloudModelConfig& cfg) {
  return MakePrepared("UserSelectionModel", {"current_week"},
                      UserSelection{cfg});
}
BlackBoxPtr MakeSynthBasisModel(const CloudModelConfig& cfg) {
  return MakePrepared("SynthBasisModel", {"point"}, SynthBasis{cfg});
}
BlackBoxPtr MakeSeasonalDemandModel(const CloudModelConfig& cfg) {
  return MakePrepared("SeasonalDemandModel", {"current_week"},
                      SeasonalDemand{cfg});
}
BlackBoxPtr MakeOutageModel(const CloudModelConfig& cfg) {
  return MakePrepared("OutageModel", {"current_week"}, Outage{cfg});
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
