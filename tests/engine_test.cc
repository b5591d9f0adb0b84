// Tests for the simulation engine: parameter spaces, the Figure 6 model
// library's fingerprint behaviour, the fingerprint-accelerated runner
// (reuse correctness and invocation accounting) and the batch optimizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/optimizer.h"
#include "core/parameter_space.h"
#include "core/sim_runner.h"
#include "grid_test_util.h"
#include "markov/chain_runner.h"
#include "markov/markov_models.h"
#include "models/cloud_models.h"
#include "point_loop_reference.h"
#include "util/hash.h"

namespace jigsaw {
namespace {

// ---------------------------------------------------------------------------
// ParameterSpace
// ---------------------------------------------------------------------------

TEST(ParameterSpaceTest, RangeMaterializesInclusive) {
  ParameterDef def{"w", RangeDomain{0, 52, 4}};
  const auto values = def.Values();
  ASSERT_EQ(values.size(), 14u);
  EXPECT_DOUBLE_EQ(values.front(), 0.0);
  EXPECT_DOUBLE_EQ(values.back(), 52.0);
}

TEST(ParameterSpaceTest, SetDomainKeepsOrder) {
  ParameterDef def{"f", SetDomain{{12, 36, 44}}};
  const auto values = def.Values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 12.0);
  EXPECT_DOUBLE_EQ(values[2], 44.0);
}

TEST(ParameterSpaceTest, ChainContributesFactorOne) {
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{0, 9, 1}}).ok());
  ASSERT_TRUE(
      space.Add({"release", ChainDomain{"release", "week", 52.0}}).ok());
  EXPECT_EQ(space.NumPoints(), 10u);
  const auto v = space.ValuationAt(3);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 52.0);  // chain initial value
}

TEST(ParameterSpaceTest, RowMajorEnumerationLastVariesFastest) {
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"a", SetDomain{{0, 1}}}).ok());
  ASSERT_TRUE(space.Add({"b", SetDomain{{10, 20, 30}}}).ok());
  EXPECT_EQ(space.NumPoints(), 6u);
  EXPECT_EQ(space.ValuationAt(0), (std::vector<double>{0, 10}));
  EXPECT_EQ(space.ValuationAt(1), (std::vector<double>{0, 20}));
  EXPECT_EQ(space.ValuationAt(3), (std::vector<double>{1, 10}));
  EXPECT_EQ(space.ValuationAt(5), (std::vector<double>{1, 30}));
}

TEST(ParameterSpaceTest, RejectsDuplicatesAndBadDomains) {
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"a", RangeDomain{0, 5, 1}}).ok());
  EXPECT_EQ(space.Add({"A", RangeDomain{0, 5, 1}}).code(),
            StatusCode::kAlreadyExists);  // case-insensitive
  EXPECT_EQ(space.Add({"b", RangeDomain{0, 5, 0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(space.Add({"c", RangeDomain{5, 0, 1}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(space.Add({"d", SetDomain{{}}}).code(),
            StatusCode::kInvalidArgument);
  // Values() materializes the grid into a vector, so Add must bound it:
  // non-finite bounds and absurd spans fail cleanly at declaration.
  EXPECT_EQ(space.Add({"e", RangeDomain{
                               0, std::numeric_limits<double>::infinity(),
                               1}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(space.Add({"f", RangeDomain{0, 1e30, 1}}).code(),
            StatusCode::kInvalidArgument);
  // The cap counts values: a last grid point hi reaches only within the
  // 1e-9 * step tolerance is one of them.
  EXPECT_TRUE((ParameterDef{"g", RangeDomain{0, 2, 1}}).Validate(3).ok());
  const ParameterDef tolerant{"g", RangeDomain{0, 3 - 1e-12, 1}};
  EXPECT_EQ(tolerant.cardinality(), 4u);
  EXPECT_EQ(tolerant.Validate(3).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((ParameterDef{"h", SetDomain{{1, 2, 3}}}).Validate(3).ok());
  EXPECT_EQ((ParameterDef{"h", SetDomain{{1, 2, 3}}}).Validate(2).code(),
            StatusCode::kInvalidArgument);
  // Each 2^26-value range passes the span cap, but three of them make a
  // 2^78-point grid, which NumPoints() would wrap to 0: the third
  // declaration fails, naming itself, and the space keeps two.
  ParameterSpace grid;
  const RangeDomain wide{0, 67108863, 1};
  ASSERT_TRUE(grid.Add({"a", wide}).ok());
  ASSERT_TRUE(grid.Add({"b", wide}).ok());
  const Status overflow = grid.Add({"c", wide});
  EXPECT_EQ(overflow.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.message().find("'@c'"), std::string::npos)
      << overflow.ToString();
  EXPECT_EQ(grid.num_params(), 2u);
  EXPECT_EQ(grid.NumPoints(), std::size_t{1} << 52);
  // A CHAIN parameter adds no factor, so it still fits.
  EXPECT_TRUE(grid.Add({"r", ChainDomain{"r", "a", 52.0}}).ok());
}

TEST(ParameterSpaceTest, DegenerateHighMagnitudeRangeTerminates) {
  // lo + step rounds back to lo at this magnitude; the index-stepped
  // expansion must still produce exactly the points the span implies.
  ParameterDef def{"w", RangeDomain{1e16, 1e16, 1}};
  EXPECT_EQ(def.Values(), (std::vector<double>{1e16}));
}

TEST(ParameterSpaceTest, ValueAtAndCardinalityMatchValues) {
  // cardinality() counts and ValueAt(i) indexes a domain without building
  // it; both must agree with the materialized Values() bit for bit. The
  // inverse, PointIndexOf, maps each value to its first index in
  // Values(), also without building the domain.
  const std::vector<ParameterDef> defs = {
      {"tenth", RangeDomain{0.0, 1.0, 0.1}},
      // hi sits 1e-10 below the grid point 2.0, inside the 1e-9 * step
      // tolerance, so 2.0 is still the last value.
      {"tolerant", RangeDomain{0.0, 2.0 - 1e-10, 0.5}},
      // lo + step rounds back to lo at this magnitude, so adjacent
      // values collide.
      {"huge", RangeDomain{1e16, 1e16 + 4, 1}},
      {"set", SetDomain{{12, 36, 44}}},
      {"chain", ChainDomain{"c", "w", 52.0}},
      {"repeated", SetDomain{{36, 12, 36, 44, 12}}},
  };
  for (const ParameterDef& def : defs) {
    SCOPED_TRACE(def.name);
    const std::vector<double> values = def.Values();
    EXPECT_EQ(def.cardinality(), values.size());
    ParameterSpace space;
    ASSERT_TRUE(space.Add(def).ok());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(def.ValueAt(i)),
                std::bit_cast<std::uint64_t>(values[i]))
          << "i=" << i;
      const std::size_t first = static_cast<std::size_t>(
          std::find(values.begin(), values.end(), values[i]) -
          values.begin());
      const std::vector<double> valuation = {values[i]};
      auto index = space.PointIndexOf(valuation);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      EXPECT_EQ(index.value(), first) << "i=" << i;
    }
  }
  EXPECT_EQ(defs[0].cardinality(), 11u);
  EXPECT_EQ(defs[1].cardinality(), 5u);
  EXPECT_EQ(defs[1].ValueAt(4), 2.0);
  EXPECT_EQ(defs[2].cardinality(), 5u);
  // The collisions the inverse must resolve to a first index.
  EXPECT_EQ(defs[2].ValueAt(1), defs[2].ValueAt(0));
  EXPECT_EQ(defs[3].ValueAt(2), 44.0);
  EXPECT_EQ(defs[4].cardinality(), 0u);  // CHAIN: not enumerated
}

TEST(ParameterSpaceTest, LargeRangeCountsAndIndexesWithoutMaterializing) {
  // Just under ParameterSpace::Add's 1e8-value cap: counting and indexing
  // must not build the 99,999,991-value domain for each call.
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"w", RangeDomain{0, 99999990, 1}}).ok());
  ASSERT_TRUE(space.Add({"f", SetDomain{{36, 52}}}).ok());
  EXPECT_EQ(space.def(0).cardinality(), 99999991u);
  EXPECT_EQ(space.NumPoints(), 2u * 99999991u);
  EXPECT_EQ(space.ValuationAt(0), (std::vector<double>{0, 36}));
  EXPECT_EQ(space.ValuationAt(2 * 12345 + 1),
            (std::vector<double>{12345, 52}));
  EXPECT_EQ(space.ValuationAt(2u * 99999991u - 1),
            (std::vector<double>{99999990, 52}));
  // The inverse finds each index without building the domain either.
  for (const std::size_t idx : {std::size_t{0}, std::size_t{2 * 12345 + 1},
                                std::size_t{2u * 99999991u - 1}}) {
    auto back = space.PointIndexOf(space.ValuationAt(idx));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), idx);
  }
  const std::vector<double> off_grid = {12345.5, 52};
  const auto off = space.PointIndexOf(off_grid);
  EXPECT_EQ(off.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(off.status().message().find("'@w'"), std::string::npos)
      << off.status().ToString();
}

TEST(ParameterSpaceTest, IndexOfIsCaseInsensitive) {
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"Purchase1", RangeDomain{0, 1, 1}}).ok());
  EXPECT_TRUE(space.IndexOf("purchase1").has_value());
  EXPECT_FALSE(space.IndexOf("purchase2").has_value());
}

// ---------------------------------------------------------------------------
// Figure 6 models: structure that drives fingerprint reuse
// ---------------------------------------------------------------------------

TEST(ModelTest, RegistryRegistersAllCloudModels) {
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());
  EXPECT_TRUE(registry.Contains("DemandModel"));
  EXPECT_TRUE(registry.Contains("capacitymodel"));  // case-insensitive
  EXPECT_TRUE(registry.Contains("OverloadModel"));
  EXPECT_TRUE(registry.Contains("UserSelectionModel"));
  EXPECT_TRUE(registry.Contains("SynthBasisModel"));
  EXPECT_FALSE(registry.Lookup("NoSuchModel").ok());
  EXPECT_EQ(RegisterCloudModels(&registry).code(),
            StatusCode::kAlreadyExists);

  // Names come back in registration order, and RegisterOrReplace swaps a
  // model in place under its case-insensitive name.
  const std::vector<std::string> names = registry.ModelNames();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names.front(), "DemandModel");
  EXPECT_EQ(names.back(), "OutageModel");
  const auto replacement = std::make_shared<CallableBlackBox>(
      "demandmodel", std::vector<std::string>{"week", "feature"},
      [](std::span<const double>, RandomStream&) { return 1.0; });
  registry.RegisterOrReplace(replacement);
  EXPECT_EQ(registry.ModelNames().size(), names.size());
  EXPECT_EQ(registry.ModelNames().front(), "demandmodel");
  EXPECT_EQ(registry.Lookup("DemandModel").value(), replacement);
}

TEST(ModelTest, DemandGrowsLinearlyBeforeFeature) {
  CloudModelConfig cfg;
  auto model = MakeDemandModel(cfg);
  SeedVector seeds(1, 2000);
  double sum20 = 0, sum40 = 0;
  for (std::size_t k = 0; k < 2000; ++k) {
    sum20 += InvokeSeeded(*model, std::vector<double>{20.0, 52.0}, seeds.seed(k));
    sum40 += InvokeSeeded(*model, std::vector<double>{40.0, 52.0}, seeds.seed(k));
  }
  EXPECT_NEAR(sum20 / 2000, 20.0, 0.5);
  EXPECT_NEAR(sum40 / 2000, 40.0, 0.5);
}

TEST(ModelTest, DemandFeatureReleaseAddsGrowth) {
  CloudModelConfig cfg;
  auto model = MakeDemandModel(cfg);
  SeedVector seeds(2, 2000);
  double with = 0, without = 0;
  for (std::size_t k = 0; k < 2000; ++k) {
    without += InvokeSeeded(*model, std::vector<double>{40.0, 52.0},
                            seeds.seed(k));
    with += InvokeSeeded(*model, std::vector<double>{40.0, 20.0},
                         seeds.seed(k));
  }
  // Post-release extra growth: 0.2 * (40-20) = 4 expected cores.
  EXPECT_NEAR(with / 2000 - without / 2000, 4.0, 0.6);
}

TEST(ModelTest, CapacityStepsUpAfterPurchaseSettles) {
  CloudModelConfig cfg;
  auto model = MakeCapacityModel(cfg);
  SeedVector seeds(3, 2000);
  auto mean_at = [&](double week, double p1, double p2) {
    double sum = 0;
    for (std::size_t k = 0; k < 2000; ++k) {
      sum += InvokeSeeded(*model, std::vector<double>{week, p1, p2},
                          seeds.seed(k));
    }
    return sum / 2000;
  };
  // Before any purchase: base capacity.
  EXPECT_NEAR(mean_at(5, 10, 30), cfg.base_capacity, 1.0);
  // Long after both purchases: base + 2 * volume.
  EXPECT_NEAR(mean_at(52, 10, 30),
              cfg.base_capacity + 2 * cfg.purchase_volume, 2.0);
  // Right after the first purchase: partially settled.
  const double mid = mean_at(11, 10, 30);
  EXPECT_GT(mid, cfg.base_capacity + 1.0);
  EXPECT_LT(mid, cfg.base_capacity + cfg.purchase_volume);
}

TEST(ModelTest, OverloadIsBooleanAndMonotoneInWeek) {
  CloudModelConfig cfg;
  auto model = MakeOverloadModel(cfg);
  SeedVector seeds(4, 1000);
  auto rate_at = [&](double week) {
    double sum = 0;
    for (std::size_t k = 0; k < 1000; ++k) {
      const double v = InvokeSeeded(
          *model, std::vector<double>{week, 200.0, 200.0}, seeds.seed(k));
      EXPECT_TRUE(v == 0.0 || v == 1.0);
      sum += v;
    }
    return sum / 1000;
  };
  // With no purchases landing, demand (mean=week) crosses the base
  // capacity (40) around week 40.
  EXPECT_LT(rate_at(20), 0.01);
  EXPECT_GT(rate_at(70), 0.99);
}

TEST(ModelTest, UserSelectionGrowsWithActivePopulation) {
  CloudModelConfig cfg;
  cfg.num_users = 500;
  auto model = MakeUserSelectionModel(cfg);
  SeedVector seeds(5, 200);
  double early = 0, late = 0;
  for (std::size_t k = 0; k < 200; ++k) {
    early += InvokeSeeded(*model, std::vector<double>{1.0}, seeds.seed(k));
    late += InvokeSeeded(*model, std::vector<double>{200.0}, seeds.seed(k));
  }
  EXPECT_GT(late, early);
}

TEST(ModelTest, UserProfileIsDeterministicData) {
  double s1, b1, s2, b2;
  DeriveUserProfile(17, 0.05, 0.05, &s1, &b1);
  DeriveUserProfile(17, 0.05, 0.05, &s2, &b2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(b1, b2);
  DeriveUserProfile(18, 0.05, 0.05, &s2, &b2);
  EXPECT_TRUE(s1 != s2 || b1 != b2);
}

TEST(ModelTest, SynthBasisSameClassIsLinearlyMappable) {
  CloudModelConfig cfg;
  cfg.synth_num_basis = 4;
  auto model = MakeSynthBasisModel(cfg);
  BlackBoxSimFunction fn(model);
  SeedVector seeds(6, 100);
  // Points 3 and 7 share class 3 (mod 4); 3 and 6 do not.
  Fingerprint fp3 = ComputeFingerprint(fn, std::vector<double>{3.0}, seeds, 10);
  Fingerprint fp7 = ComputeFingerprint(fn, std::vector<double>{7.0}, seeds, 10);
  Fingerprint fp6 = ComputeFingerprint(fn, std::vector<double>{6.0}, seeds, 10);
  EXPECT_TRUE(FindLinearMapping(fp3, fp7, 1e-9));
  EXPECT_FALSE(FindLinearMapping(fp3, fp6, 1e-9));
}

// ---------------------------------------------------------------------------
// SimulationRunner: Algorithm 3 in the loop
// ---------------------------------------------------------------------------

RunConfig SmallConfig(std::size_t n = 200, std::size_t m = 10) {
  RunConfig cfg;
  cfg.num_samples = n;
  cfg.fingerprint_size = m;
  return cfg;
}

TEST(SimRunnerTest, ReusedMetricsEqualFullSimulation) {
  // The paper's correctness claim (Section 6.2): "outputs of Jigsaw are
  // equivalent to full simulation for each possible parameter value."
  // For the Demand model every week maps linearly, so reused metrics must
  // match a from-scratch naive run to numerical precision.
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);

  SimulationRunner jigsaw_runner(SmallConfig());
  RunConfig naive_cfg = SmallConfig();
  naive_cfg.use_fingerprints = false;
  SimulationRunner naive_runner(naive_cfg);

  for (double week : {5.0, 10.0, 20.0, 40.0}) {
    const std::vector<double> params = {week, 52.0};
    const auto fast = jigsaw_runner.RunPoint(fn, params);
    const auto slow = naive_runner.RunPoint(fn, params);
    EXPECT_NEAR(fast.metrics.mean, slow.metrics.mean,
                1e-6 * (1 + std::fabs(slow.metrics.mean)))
        << "week " << week;
    EXPECT_NEAR(fast.metrics.stddev, slow.metrics.stddev,
                1e-6 * (1 + slow.metrics.stddev));
  }
  // At least one of the later weeks must have been served via reuse.
  EXPECT_GT(jigsaw_runner.stats().points_reused, 0u);
}

TEST(SimRunnerTest, ReuseSavesInvocations) {
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);
  SimulationRunner runner(SmallConfig(1000, 10));

  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 50, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  const auto results = runner.RunSweep(fn, space);
  ASSERT_EQ(results.size(), 50u);

  const auto& stats = runner.stats();
  EXPECT_EQ(stats.points_evaluated, 50u);
  // Weeks 2..50 all map onto week 1's basis: 49 reuses.
  EXPECT_GE(stats.points_reused, 45u);
  // Invocations ~ 50*m + (few bases)*(n-m), far below the naive 50*n.
  EXPECT_LT(stats.blackbox_invocations, 50u * 1000u / 10u);
}

TEST(SimRunnerTest, NaiveModeNeverReuses) {
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);
  RunConfig cfg = SmallConfig(100, 10);
  cfg.use_fingerprints = false;
  SimulationRunner runner(cfg);
  for (double week : {1.0, 2.0, 3.0}) {
    runner.RunPoint(fn, std::vector<double>{week, 52.0});
  }
  EXPECT_EQ(runner.stats().points_reused, 0u);
  EXPECT_EQ(runner.stats().blackbox_invocations, 300u);
}

TEST(SimRunnerTest, ValidateConfigBoundsFingerprintSize) {
  EXPECT_TRUE(SimulationRunner::ValidateConfig(SmallConfig(10, 10)).ok());
  EXPECT_TRUE(SimulationRunner::ValidateConfig(SmallConfig(10, 2)).ok());
  for (const RunConfig& cfg : {SmallConfig(8, 10), SmallConfig(8, 1)}) {
    const Status s = SimulationRunner::ValidateConfig(cfg);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

TEST(SimRunnerTest, SynthBasisProducesExactBasisCount) {
  CloudModelConfig mcfg;
  mcfg.synth_num_basis = 7;
  auto model = MakeSynthBasisModel(mcfg);
  BlackBoxSimFunction fn(model);
  SimulationRunner runner(SmallConfig(100, 10));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"point", RangeDomain{0, 99, 1}}).ok());
  runner.RunSweep(fn, space);
  EXPECT_EQ(runner.basis_store().size(), 7u);
}

TEST(SimRunnerTest, BooleanOutputsReuseOnlyWhenIdentical) {
  // Overload-style booleans: zero-overload regions share one constant
  // basis; mixed regions rarely map. Reuse exists but is limited — the
  // Figure 8 effect.
  CloudModelConfig mcfg;
  auto model = MakeOverloadModel(mcfg);
  BlackBoxSimFunction fn(model);
  SimulationRunner runner(SmallConfig(200, 10));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 60, 1}}).ok());
  ASSERT_TRUE(space.Add({"p1", SetDomain{{20.0}}}).ok());
  ASSERT_TRUE(space.Add({"p2", SetDomain{{40.0}}}).ok());
  const auto results = runner.RunSweep(fn, space);
  EXPECT_GT(runner.stats().points_reused, 10u);  // all-zero weeks collapse
  for (const auto& r : results) {
    EXPECT_GE(r.metrics.mean, 0.0);
    EXPECT_LE(r.metrics.mean, 1.0);
  }
}

TEST(SimRunnerTest, KeepSamplesRetainsMappedSamples) {
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);
  RunConfig cfg = SmallConfig(50, 5);
  cfg.keep_samples = true;
  SimulationRunner runner(cfg);
  runner.RunPoint(fn, std::vector<double>{10.0, 52.0});
  const auto reused = runner.RunPoint(fn, std::vector<double>{20.0, 52.0});
  if (reused.reused) {
    EXPECT_EQ(reused.metrics.samples.size(), 50u);
  }
}

// ---------------------------------------------------------------------------
// Sweep determinism: RunSweep must be bit-identical at every thread count
// to the one-point-at-a-time Algorithm 3 loop (tests/point_loop_reference.h)
// — identical OutputMetrics, reuse decisions, mappings, RunnerStats and
// store stats — because the phase pipeline replays the loop's decision
// order and every sample is a pure function of its seed.
// ---------------------------------------------------------------------------

std::uint64_t Bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

void ExpectSweepsIdentical(const RunConfig& base_cfg, const SimFunction& fn,
                           const ParameterSpace& space) {
  test::PointLoopReference reference(base_cfg);
  const auto expected = reference.RunSweep(fn, space);

  for (std::size_t threads : test::GridThreadCounts()) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    RunConfig cfg = base_cfg;
    cfg.num_threads = threads;
    SimulationRunner runner(cfg);
    const auto got = runner.RunSweep(fn, space);
    test::ExpectMatchesPointLoop(got, runner, expected, reference);
  }
}

TEST(SweepDeterminismTest, FingerprintSweepBitIdenticalAcrossThreadCounts) {
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 40, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  ExpectSweepsIdentical(SmallConfig(400, 10), fn, space);
}

TEST(SweepDeterminismTest, MixedHitMissSweepBitIdentical) {
  // SynthBasis cycles through several distinct bases, interleaving hits
  // and misses along the sweep — the stress case for the deferred-metrics
  // protocol (a hit may map a basis whose full simulation ran in a later
  // pool slot).
  CloudModelConfig mcfg;
  mcfg.synth_num_basis = 5;
  auto model = MakeSynthBasisModel(mcfg);
  BlackBoxSimFunction fn(model);
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"point", RangeDomain{0, 79, 1}}).ok());
  ExpectSweepsIdentical(SmallConfig(200, 10), fn, space);
}

TEST(SweepDeterminismTest, BooleanSweepBitIdentical) {
  // Overload's constant-zero regions exercise the constant-translation
  // mapping extension and limited-reuse mixed regions.
  CloudModelConfig mcfg;
  auto model = MakeOverloadModel(mcfg);
  BlackBoxSimFunction fn(model);
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 48, 1}}).ok());
  ASSERT_TRUE(space.Add({"p1", SetDomain{{20.0}}}).ok());
  ASSERT_TRUE(space.Add({"p2", SetDomain{{40.0}}}).ok());
  ExpectSweepsIdentical(SmallConfig(300, 10), fn, space);
}

TEST(SweepDeterminismTest, KeepSamplesSweepBitIdentical) {
  // keep_samples routes reuse through sample-level mapping; retained
  // sample vectors must also match bitwise.
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);
  RunConfig cfg = SmallConfig(100, 5);
  cfg.keep_samples = true;
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 24, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  ExpectSweepsIdentical(cfg, fn, space);
}

TEST(SweepDeterminismTest, NaiveSweepBitIdenticalAcrossThreadCounts) {
  CloudModelConfig mcfg;
  auto model = MakeDemandModel(mcfg);
  BlackBoxSimFunction fn(model);
  RunConfig cfg = SmallConfig(300, 10);
  cfg.use_fingerprints = false;
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 30, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  ExpectSweepsIdentical(cfg, fn, space);
}

// ---------------------------------------------------------------------------
// Golden sweep: the fingerprint core's results, frozen as bit patterns —
// reuse decisions, mappings and mapped metrics of RunPoint, MappedBy's
// negative- and zero-slope arithmetic, and Markov-jump runs. Anything
// that changes one of these literals changes results and must say so.
// ---------------------------------------------------------------------------

/// count, then the bits of mean, stddev, std_error, min, max, p50 and p95.
using MetricBits = std::array<std::uint64_t, 8>;

MetricBits BitsOf(const OutputMetrics& m) {
  return {static_cast<std::uint64_t>(m.count), Bits(m.mean), Bits(m.stddev),
          Bits(m.std_error), Bits(m.min), Bits(m.max), Bits(m.p50),
          Bits(m.p95)};
}

TEST(GoldenSweepTest, RunPointReuseShapesAreFrozen) {
  // One runner per model, fed its points in order. Together they cover a
  // new basis, identity reuses (a repeated point; a constant fingerprint;
  // a two-valued one), translation reuses (alpha = 1, beta != 0) and
  // scaling reuses (alpha != 1).
  struct Point {
    std::vector<double> params;
    bool reused;
    BasisId basis_id;
    std::uint64_t alpha;
    std::uint64_t beta;
    MetricBits metrics;
  };
  const struct {
    BlackBoxPtr model;
    std::vector<Point> points;
  } kGolden[] = {
      // Demand: a new basis, a scaling reuse (alpha = sqrt 2), the first
      // point again (identity) and a scaling reuse (alpha = sqrt 8).
      {MakeDemandModel(),
       {{{5, 52}, false, 0, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x40142F6CE01479A7ULL, 0x3FE73D44BB7C877DULL,
          0x3FAA5BB8295AEAEEULL, 0x4008DEF13C6D1968ULL,
          0x401D014456484D78ULL, 0x401425333FF201B0ULL, 0x4018D633217FB26CULL}},
        {{10, 52}, true, 0, 0x3FF6A09E667F3BE5ULL, 0x40076E73FFC1EA44ULL,
         {200ULL, 0x40242188E52FF404ULL, 0x3FF06EC4A1821B40ULL,
          0x3FB2A35BAE87BCA8ULL, 0x401D4D55AC0AB6BEULL,
          0x402A5E11E41A6080ULL, 0x40241A4DF45A4E32ULL, 0x40276B8A17C9BCB0ULL}},
        {{5, 52}, true, 0, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x40142F6CE01479A7ULL, 0x3FE73D44BB7C877DULL,
          0x3FAA5BB8295AEAEEULL, 0x4008DEF13C6D1968ULL,
          0x401D014456484D78ULL, 0x401425333FF201B0ULL, 0x4018D633217FB26CULL}},
        {{40, 52}, true, 0, 0x4006A09E667F3BCDULL, 0x4039DB9CFFF07AA0ULL,
         {200ULL, 0x404410C47297FA02ULL, 0x40006EC4A1821B2EULL,
          0x3FC2A35BAE87BC94ULL, 0x404153556B02ADB2ULL,
          0x40472F08F20D303CULL, 0x40440D26FA2D2718ULL,
          0x4045B5C50BE4DE56ULL}}}},
      // Capacity: a constant basis and its identity reuse, a new two-valued
      // basis, and translations of the constant basis by 18 and 36 cores.
      {MakeCapacityModel(),
       {{{1, 20, 40}, false, 0, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x4044000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x4044000000000000ULL,
          0x4044000000000000ULL, 0x4044000000000000ULL, 0x4044000000000000ULL}},
        {{4, 20, 40}, true, 0, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x4044000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x4044000000000000ULL,
          0x4044000000000000ULL, 0x4044000000000000ULL, 0x4044000000000000ULL}},
        {{22, 20, 40}, false, 1, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x4049FC28F5C28F58ULL, 0x4020FDDD37EE9CD4ULL,
          0x3FE345A8B9EE836EULL, 0x4044000000000000ULL,
          0x404D000000000000ULL, 0x404D000000000000ULL, 0x404D000000000000ULL}},
        {{25, 20, 40}, true, 0, 0x3FF0000000000000ULL, 0x4032000000000000ULL,
         {200ULL, 0x404D000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x404D000000000000ULL,
          0x404D000000000000ULL, 0x404D000000000000ULL, 0x404D000000000000ULL}},
        {{49, 20, 40}, true, 0, 0x3FF0000000000000ULL, 0x4042000000000000ULL,
         {200ULL, 0x4053000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x4053000000000000ULL,
          0x4053000000000000ULL, 0x4053000000000000ULL,
          0x4053000000000000ULL}}}},
      // Overload: a constant-zero basis and its identity reuse, a new
      // two-valued basis, the all-ones translation of the constant basis,
      // and an identity reuse of the two-valued basis.
      {MakeOverloadModel(),
       {{{1, 20, 40}, false, 0, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
        {{30, 52, 52}, true, 0, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL}},
        {{38, 52, 52}, false, 1, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x3FC28F5C28F5C28BULL, 0x3FD688D1F3D7B5AEULL,
          0x3F998F0D95672A2DULL, 0x0000000000000000ULL,
          0x3FF0000000000000ULL, 0x0000000000000000ULL, 0x3FF0000000000000ULL}},
        {{44, 52, 52}, true, 0, 0x3FF0000000000000ULL, 0x3FF0000000000000ULL,
         {200ULL, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x3FF0000000000000ULL,
          0x3FF0000000000000ULL, 0x3FF0000000000000ULL, 0x3FF0000000000000ULL}},
        {{56, 52, 52}, true, 1, 0x3FF0000000000000ULL, 0x0000000000000000ULL,
         {200ULL, 0x3FC28F5C28F5C28BULL, 0x3FD688D1F3D7B5AEULL,
          0x3F998F0D95672A2DULL, 0x0000000000000000ULL,
          0x3FF0000000000000ULL, 0x0000000000000000ULL,
          0x3FF0000000000000ULL}}}},
  };
  RunConfig cfg = SmallConfig(200, 10);
  cfg.master_seed = 1;
  for (const auto& g : kGolden) {
    BlackBoxSimFunction fn(g.model);
    SimulationRunner runner(cfg);
    for (const Point& p : g.points) {
      SCOPED_TRACE(::testing::Message()
                   << g.model->name() << " at week " << p.params[0]);
      const PointResult r = runner.RunPoint(fn, p.params);
      const auto [alpha, beta] = r.mapping;
      EXPECT_EQ(r.reused, p.reused);
      EXPECT_EQ(r.basis_id, p.basis_id);
      EXPECT_EQ(Bits(alpha), p.alpha);
      EXPECT_EQ(Bits(beta), p.beta);
      EXPECT_EQ(BitsOf(r.metrics), p.metrics);
    }
  }
}

TEST(GoldenSweepTest, MappedByNegativeAndZeroSlopeAreFrozen) {
  const OutputMetrics base = MetricsFromSamples(
      {3.5, -1.25, 4.0, 0.5, -5.0, 9.75, 2.0, 6.5, -0.0, 5.25, 7.0, 1.5},
      /*keep_samples=*/true, /*histogram_bins=*/4);
  const struct {
    double alpha;
    double beta;
    MetricBits metrics;
    std::array<std::uint64_t, 2> histogram_range;
    std::array<std::int64_t, 4> histogram_counts;
    std::uint64_t samples_digest;
  } kGolden[] = {
      // alpha < 0: p95 is the mapped p50, today's rule, which does not
      // map the 5% quantile of the basis (see the MappedBy FOUND line in
      // CHANGES.md).
      {-2.0, 1.0,
       {12ULL, 0xC012800000000000ULL, 0x401F01B861E3843DULL,
        0x4002B2A01AADF9CEULL, 0xC032800000000000ULL, 0x4026000000000000ULL,
        0xC012000000000000ULL, 0xC012000000000000ULL},
       {0xC032800000000000ULL, 0x4026000000000000ULL},
       {3, 3, 5, 1},
       0xB03306D7E1AD2765ULL},
      {0.0, 3.0,
       {12ULL, 0x4008000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL, 0x4008000000000000ULL, 0x4008000000000000ULL,
        0x4008000000000000ULL, 0x4008000000000000ULL},
       {0x4004000000000000ULL, 0x400C000000000000ULL},
       {0, 0, 12, 0},
       0x1DB325CBDA60C4A5ULL},
  };
  for (const auto& g : kGolden) {
    SCOPED_TRACE(::testing::Message() << "alpha " << g.alpha);
    const OutputMetrics mapped = base.MappedBy(AffineMap{g.alpha, g.beta});
    EXPECT_EQ(BitsOf(mapped), g.metrics);
    ASSERT_TRUE(mapped.histogram.has_value());
    const Histogram& h = *mapped.histogram;
    EXPECT_EQ(Bits(h.lo()), g.histogram_range[0]);
    EXPECT_EQ(Bits(h.hi()), g.histogram_range[1]);
    ASSERT_EQ(h.num_bins(), 4);
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(h.bin_count(b), g.histogram_counts[b]) << "bin " << b;
    }
    EXPECT_EQ(h.dropped_count(), 0);
    EXPECT_EQ(Fnv1a64(mapped.samples.data(),
                      mapped.samples.size() * sizeof(double)),
              g.samples_digest);
  }
}

TEST(GoldenSweepTest, IdentityFitHasPositiveZeroBeta) {
  // alpha = 1 and beta = -0.0 - 1 * 0 = -0.0: the fit canonicalizes to
  // the identity, whose beta is +0.0, so MappedBy keeps a -0.0 mean's
  // sign.
  const auto m =
      FindLinearMapping(Fingerprint({0.0, 1.0, 2.0}),
                        Fingerprint({-0.0, 1.0, 2.0}), kMappingTolerance);
  ASSERT_TRUE(m.has_value());
  const auto [alpha, beta] = *m;
  EXPECT_EQ(alpha, 1.0);
  EXPECT_EQ(beta, 0.0);
  EXPECT_FALSE(std::signbit(beta));
}

TEST(GoldenSweepTest, MarkovJumpRunsAreFrozen) {
  RunConfig cfg = SmallConfig(200, 10);
  cfg.master_seed = 1;
  const MarkovStepProcess step_process;
  MarkovBranchConfig branch_cfg;
  branch_cfg.branching = 0.02;
  const MarkovBranchProcess branch_process(branch_cfg);
  const struct {
    const MarkovProcess* process;
    std::int64_t target;
    std::uint64_t states_digest;
    ChainRunStats stats;
  } kGolden[] = {
      {&step_process, 52, 0xB00D1F9962275F25ULL,
       {660, 1400, 26, 5, 6}},
      {&branch_process, 300, 0x4ACC8EB509723D0DULL,
       {14890, 11610, 287, 101, 46}},
  };
  for (const auto& g : kGolden) {
    SCOPED_TRACE(g.process->name());
    MarkovJumpRunner runner(cfg);
    const ChainResult r = runner.Run(*g.process, g.target);
    EXPECT_EQ(Fnv1a64(r.final_states.data(),
                      r.final_states.size() * sizeof(double)),
              g.states_digest);
    EXPECT_EQ(r.stats.step_invocations, g.stats.step_invocations);
    EXPECT_EQ(r.stats.estimator_invocations, g.stats.estimator_invocations);
    EXPECT_EQ(r.stats.checkpoints, g.stats.checkpoints);
    EXPECT_EQ(r.stats.mismatches, g.stats.mismatches);
    EXPECT_EQ(r.stats.full_rebuilds, g.stats.full_rebuilds);
  }
}

// ---------------------------------------------------------------------------
// Optimizer & Selector
// ---------------------------------------------------------------------------

TEST(SelectorTest, LexicographicObjectives) {
  Selector sel({{"p1", true}, {"p2", false}}, {"p1", "p2"});
  EXPECT_TRUE(sel.Better({2, 5}, {1, 0}));   // larger p1 wins
  EXPECT_FALSE(sel.Better({1, 5}, {2, 0}));  // smaller p1 loses
  EXPECT_TRUE(sel.Better({2, 1}, {2, 3}));   // tie on p1 -> smaller p2 wins
  EXPECT_FALSE(sel.Better({2, 3}, {2, 3}));  // exact tie keeps incumbent
}

Scenario MakeCapacityScenario(const CloudModelConfig& mcfg) {
  Scenario scenario;
  EXPECT_TRUE(
      scenario.params.Add({"week", RangeDomain{0, 30, 5}}).ok());
  EXPECT_TRUE(
      scenario.params.Add({"purchase", RangeDomain{0, 20, 5}}).ok());
  auto overload = MakeOverloadModel(mcfg);
  // Adapt the 3-parameter Overload model: purchase2 mirrors purchase1.
  scenario.columns.push_back(ScenarioColumn{
      "overload",
      std::make_shared<CallableSimFunction>(
          "overload",
          [overload](std::span<const double> p, std::size_t k,
                     const SeedVector& seeds) {
            const std::vector<double> args = {p[0], p[1], p[1]};
            return InvokeSeeded(*overload, args, seeds.seed(k));
          })});
  return scenario;
}

TEST(OptimizerTest, FindsLatestFeasiblePurchase) {
  CloudModelConfig mcfg;
  Scenario scenario = MakeCapacityScenario(mcfg);

  OptimizeSpec spec;
  spec.group_params = {"purchase"};
  spec.constraints.push_back(MetricConstraint{
      SweepAgg::kMax, MetricSelector::kExpect, "overload", CmpOp::kLt, 0.5});
  spec.objectives.push_back(ObjectiveTerm{"purchase", true});

  SimulationRunner runner(SmallConfig(300, 10));
  Optimizer optimizer(&runner);
  auto result = optimizer.Run(scenario, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& r = result.value();
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.groups.size(), 5u);  // purchases 0,5,10,15,20
  // Early purchases keep overload low through week 30; among feasible
  // ones the optimizer must pick the LATEST (FOR MAX).
  double latest_feasible = -1;
  for (const auto& g : r.groups) {
    if (g.feasible) latest_feasible = std::max(latest_feasible,
                                               g.group_valuation[0]);
  }
  EXPECT_DOUBLE_EQ(r.best_valuation[0], latest_feasible);
}

TEST(OptimizerTest, InfeasibleEverywhereReportsNotFound) {
  CloudModelConfig mcfg;
  Scenario scenario = MakeCapacityScenario(mcfg);
  OptimizeSpec spec;
  spec.group_params = {"purchase"};
  spec.constraints.push_back(MetricConstraint{
      SweepAgg::kMax, MetricSelector::kExpect, "overload", CmpOp::kLt,
      -1.0});  // impossible
  spec.objectives.push_back(ObjectiveTerm{"purchase", true});
  SimulationRunner runner(SmallConfig(100, 10));
  Optimizer optimizer(&runner);
  auto result = optimizer.Run(scenario, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().found);
  EXPECT_NE(result.value().ToString().find("no feasible"),
            std::string::npos);
}

TEST(OptimizerTest, RejectsUndeclaredGroupParam) {
  CloudModelConfig mcfg;
  Scenario scenario = MakeCapacityScenario(mcfg);
  OptimizeSpec spec;
  spec.group_params = {"nope"};
  SimulationRunner runner(SmallConfig(50, 10));
  Optimizer optimizer(&runner);
  EXPECT_EQ(optimizer.Run(scenario, spec).status().code(),
            StatusCode::kBindError);
}

TEST(OptimizerTest, RejectsUnknownConstraintColumn) {
  CloudModelConfig mcfg;
  Scenario scenario = MakeCapacityScenario(mcfg);
  OptimizeSpec spec;
  spec.group_params = {"purchase"};
  spec.constraints.push_back(MetricConstraint{
      SweepAgg::kMax, MetricSelector::kExpect, "ghost", CmpOp::kLt, 1.0});
  SimulationRunner runner(SmallConfig(50, 10));
  Optimizer optimizer(&runner);
  EXPECT_EQ(optimizer.Run(scenario, spec).status().code(),
            StatusCode::kNotFound);
}

TEST(OptimizerTest, EmptyGroupListIsError) {
  CloudModelConfig mcfg;
  Scenario scenario = MakeCapacityScenario(mcfg);
  SimulationRunner runner(SmallConfig(50, 10));
  Optimizer optimizer(&runner);
  EXPECT_FALSE(optimizer.Run(scenario, {}).ok());
}

TEST(MetricSelectorTest, ExtractsEachField) {
  OutputMetrics m;
  m.mean = 1;
  m.stddev = 2;
  m.std_error = 3;
  m.min = 4;
  m.max = 5;
  m.p50 = 6;
  m.p95 = 7;
  EXPECT_EQ(ExtractMetric(m, MetricSelector::kExpect), 1);
  EXPECT_EQ(ExtractMetric(m, MetricSelector::kStdDev), 2);
  EXPECT_EQ(ExtractMetric(m, MetricSelector::kStdError), 3);
  EXPECT_EQ(ExtractMetric(m, MetricSelector::kMin), 4);
  EXPECT_EQ(ExtractMetric(m, MetricSelector::kMax), 5);
  EXPECT_EQ(ExtractMetric(m, MetricSelector::kMedian), 6);
  EXPECT_EQ(ExtractMetric(m, MetricSelector::kP95), 7);
}

TEST(ConstraintTest, CompareOperators) {
  MetricConstraint c;
  c.threshold = 1.0;
  c.cmp = CmpOp::kLt;
  EXPECT_TRUE(c.Compare(0.5));
  EXPECT_FALSE(c.Compare(1.0));
  c.cmp = CmpOp::kLe;
  EXPECT_TRUE(c.Compare(1.0));
  c.cmp = CmpOp::kGt;
  EXPECT_TRUE(c.Compare(1.5));
  EXPECT_FALSE(c.Compare(1.0));
  c.cmp = CmpOp::kGe;
  EXPECT_TRUE(c.Compare(1.0));
}

}  // namespace
}  // namespace jigsaw
