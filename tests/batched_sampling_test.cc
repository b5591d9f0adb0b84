// Tests for the batched sampling engine: SampleBatch/EvalBatch contracts
// (native kernels and scalar fallbacks must match the per-sample path
// bit-for-bit), SeedVector span access, the batched chain runners, and
// end-to-end bit-identity of fingerprints, miss simulation and RunSweep
// across batch sizes {1, 7, 64} × thread counts {1, 2, 8}.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "core/fingerprint.h"
#include "core/parameter_space.h"
#include "grid_test_util.h"
#include "core/sim_runner.h"
#include "markov/chain_runner.h"
#include "markov/markov_models.h"
#include "models/cloud_models.h"
#include "point_loop_reference.h"
#include "random/seed_vector.h"

namespace jigsaw {
namespace {

std::uint64_t Bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

void ExpectBitIdenticalVectors(const std::vector<double>& a,
                               const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i])) << "entry " << i;
  }
}

using test::ExpectBitIdenticalMetrics;

// ---------------------------------------------------------------------------
// SeedVector span access
// ---------------------------------------------------------------------------

TEST(SeedSpanTest, MatchesScalarAccess) {
  const SeedVector seeds(0x1234u, 100);
  const auto span = seeds.span(17, 41);
  ASSERT_EQ(span.size(), 41u);
  for (std::size_t i = 0; i < span.size(); ++i) {
    EXPECT_EQ(span[i], seeds.seed(17 + i));
  }
  EXPECT_EQ(seeds.span(0, seeds.size()).size(), seeds.size());
  EXPECT_TRUE(seeds.span(100, 0).empty());
}

// ---------------------------------------------------------------------------
// BlackBox::EvalBatch — every native kernel must reproduce the scalar
// path bit-for-bit (same seed ↦ same draw).
// ---------------------------------------------------------------------------

void ExpectBatchMatchesScalar(const BlackBox& model,
                              std::span<const double> params,
                              std::uint64_t call_site = 0) {
  const SeedVector seeds(0xfeedu, 93);
  const auto sigmas = seeds.span(0, seeds.size());
  std::vector<double> scalar(seeds.size());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    scalar[k] = InvokeSeeded(model, params, seeds.seed(k), call_site);
  }
  // Whole-range batch and a ragged chunk split must both agree.
  std::vector<double> batched(seeds.size());
  model.EvalBatch(params, sigmas, call_site, batched);
  ExpectBitIdenticalVectors(batched, scalar);
  std::fill(batched.begin(), batched.end(), 0.0);
  for (std::size_t k = 0; k < seeds.size(); k += 7) {
    const std::size_t len = std::min<std::size_t>(7, seeds.size() - k);
    model.EvalBatch(params, sigmas.subspan(k, len), call_site,
                    std::span<double>(batched.data() + k, len));
  }
  ExpectBitIdenticalVectors(batched, scalar);
}

TEST(BatchKernelTest, DemandMatchesScalar) {
  const double params[] = {30.0, 20.0};  // post-release regime
  ExpectBatchMatchesScalar(*MakeDemandModel({}), params);
  const double pre[] = {10.0, 20.0};  // pre-release regime
  ExpectBatchMatchesScalar(*MakeDemandModel({}), pre, /*call_site=*/3);
}

TEST(BatchKernelTest, CapacityMatchesScalar) {
  const double params[] = {30.0, 10.0, 40.0};
  ExpectBatchMatchesScalar(*MakeCapacityModel({}), params);
}

TEST(BatchKernelTest, OverloadMatchesScalar) {
  const double params[] = {45.0, 20.0, 30.0};
  ExpectBatchMatchesScalar(*MakeOverloadModel({}), params);
}

TEST(BatchKernelTest, UserSelectionMatchesScalar) {
  CloudModelConfig cfg;
  cfg.num_users = 50;
  cfg.user_sim_depth = 3;
  const double params[] = {26.0};
  ExpectBatchMatchesScalar(*MakeUserSelectionModel(cfg), params);
}

TEST(BatchKernelTest, SynthBasisMatchesScalar) {
  CloudModelConfig cfg;
  cfg.synth_num_basis = 4;
  for (double point : {0.0, 3.0, 17.0}) {
    const double params[] = {point};
    ExpectBatchMatchesScalar(*MakeSynthBasisModel(cfg), params);
  }
}

TEST(BatchKernelTest, SeasonalDemandMatchesScalar) {
  const double params[] = {13.0};
  ExpectBatchMatchesScalar(*MakeSeasonalDemandModel({}), params);
}

TEST(BatchKernelTest, OutageMatchesScalar) {
  const double params[] = {26.0};
  ExpectBatchMatchesScalar(*MakeOutageModel({}), params);
}

TEST(BatchKernelTest, DefaultEvalBatchLoopsScalar) {
  // A model without a native kernel gets the base-class fallback loop.
  const CallableBlackBox model(
      "mix", {"x"}, [](std::span<const double> p, RandomStream& rng) {
        return rng.Normal(p[0], 1.0) + rng.Exponential(0.5);
      });
  const double params[] = {4.0};
  ExpectBatchMatchesScalar(model, params);
}

// ---------------------------------------------------------------------------
// Frozen model outputs. BatchKernelTest compares each model's two paths
// with each other; these pin what both must return, as bit patterns, so a
// slip in a model's arithmetic or draw order fails even when its paths
// still agree.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kGoldenSeed = 0x5160534A00000001ULL;

void ExpectFrozenBits(std::span<const double> got,
                      const std::uint64_t (&want)[4], const char* path) {
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(Bits(got[k]), want[k])
        << path << " sample " << k << ": got 0x" << std::hex
        << Bits(got[k]) << std::dec << " (" << got[k] << ")";
  }
}

TEST(GoldenModelTest, CloudModelFirstSamplesAreFrozen) {
  const SeedVector seeds(kGoldenSeed, 4);
  const struct {
    BlackBoxPtr model;
    std::vector<double> params;
    std::uint64_t want[4];
  } kGolden[] = {
      // Demand after and before the feature release.
      {MakeDemandModel(), {30, 20},
       {0x40406B5BE2938612ULL, 0x40416DE653C42CAFULL, 0x403CB35981BE71D9ULL,
        0x403E47DDA4DAF2FBULL}},
      {MakeDemandModel(), {10, 20},
       {0x4024C00CAB1123C3ULL, 0x40268E8A9346A678ULL, 0x40210C85913F20E7ULL,
        0x40227654FE0317CAULL}},
      // Capacity and Overload: one purchase a week old (its delay decides
      // it), the other not yet made; then the other way round.
      {MakeCapacityModel(), {30, 29, 40},
       {0x404D000000000000ULL, 0x4044000000000000ULL, 0x4044000000000000ULL,
        0x4044000000000000ULL}},
      {MakeCapacityModel(), {45, 50, 44},
       {0x4044000000000000ULL, 0x404D000000000000ULL, 0x4044000000000000ULL,
        0x404D000000000000ULL}},
      {MakeOverloadModel(), {45, 44, 50},
       {0x0000000000000000ULL, 0x3FF0000000000000ULL, 0x3FF0000000000000ULL,
        0x0000000000000000ULL}},
      {MakeOverloadModel(), {45, 50, 44},
       {0x3FF0000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL}},
      {MakeUserSelectionModel(), {26},
       {0x4065B9C25AB39E49ULL, 0x4065C9B051903895ULL, 0x4065A9245F001215ULL,
        0x4065B36688B4E5C9ULL}},
      {MakeUserSelectionModel(), {52},
       {0x4065D64D835DBE91ULL, 0x4065DFA0C8330A69ULL, 0x4065C7B5CF9BA391ULL,
        0x4065D4F1F178F687ULL}},
      {MakeSynthBasisModel(), {3},
       {0x4014EC1C12BEE864ULL, 0x3FFDA98873C5F3FAULL, 0xBFBE4059CD730CE0ULL,
        0x40054A2CA06B9112ULL}},
      {MakeSynthBasisModel(), {17},
       {0x4033BCAFE822F7CCULL, 0xC02A1405483F7966ULL, 0x403FAFD4E88C8614ULL,
        0x403E70B783D81F95ULL}},
      {MakeSeasonalDemandModel(), {13},
       {0x4030B19E35C0FCA6ULL, 0x4031C33B5B3DCCCDULL, 0x402D021B27D97F64ULL,
        0x402EAE34AB7FDCA4ULL}},
      {MakeSeasonalDemandModel(), {40},
       {0x403ED519BEC17855ULL, 0x404054AB3EBA2238ULL, 0x403B15CD45D8188EULL,
        0x403C841B57E6A436ULL}},
      // Late weeks, whose Poisson rates (about 4 and 80) take each of
      // RandomStream::Poisson's two methods.
      {MakeOutageModel(), {26000},
       {0x4008000000000000ULL, 0x4010000000000000ULL, 0x4018000000000000ULL,
        0x3FF0000000000000ULL}},
      {MakeOutageModel(), {520000},
       {0x4054C00000000000ULL, 0x4056C00000000000ULL, 0x4050C00000000000ULL,
        0x4052400000000000ULL}},
  };
  for (const auto& g : kGolden) {
    SCOPED_TRACE(::testing::Message()
                 << g.model->name() << " at " << g.params[0]);
    std::vector<double> scalar(4), batched(4);
    for (std::size_t k = 0; k < 4; ++k) {
      scalar[k] = InvokeSeeded(*g.model, g.params, seeds.seed(k));
    }
    g.model->EvalBatch(g.params, seeds.span(0, 4), /*call_site=*/0, batched);
    ExpectFrozenBits(scalar, g.want, "InvokeSeeded");
    ExpectFrozenBits(batched, g.want, "EvalBatch");
  }
}

TEST(GoldenModelTest, MarkovBatchHooksAreFrozen) {
  // Instances 2..5 at step 27, where MarkovStep's demand straddles its
  // pull-in threshold; a release already at or before week 31 stays put.
  const SeedVector seeds(kGoldenSeed, 6);
  const double states[] = {52.0, 52.0, 30.0, 20.0};
  const MarkovStepProcess step_process;
  MarkovBranchConfig branch_cfg;
  branch_cfg.branching = 0.5;
  const MarkovBranchProcess branch_process(branch_cfg);
  std::vector<double> out(4);

  step_process.StepBatch(states, 27, 2, seeds, out);
  ExpectFrozenBits(out,
                   {0x404A000000000000ULL, 0x403F000000000000ULL,
                    0x403E000000000000ULL, 0x4034000000000000ULL},
                   "MarkovStep StepBatch");
  step_process.EstimateBatch(states, 20, 27, 2, seeds, out);
  ExpectFrozenBits(out,
                   {0x404A000000000000ULL, 0x403F000000000000ULL,
                    0x403E000000000000ULL, 0x4034000000000000ULL},
                   "MarkovStep EstimateBatch");
  step_process.OutputBatch(states, 27, 2, seeds, out);
  ExpectFrozenBits(out,
                   {0x403CD715FC7FF016ULL, 0x403C7E73BC2256CFULL,
                    0x403AD9FAF61795A1ULL, 0x403E18110E2A3944ULL},
                   "MarkovStep OutputBatch");
  branch_process.StepBatch(states, 27, 2, seeds, out);
  ExpectFrozenBits(out,
                   {0x404F000000000000ULL, 0x404F000000000000ULL,
                    0x403E000000000000ULL, 0x403E000000000000ULL},
                   "MarkovBranch StepBatch");
  branch_process.OutputBatch(states, 27, 2, seeds, out);
  ExpectFrozenBits(out,
                   {0x404A000000000000ULL, 0x404A000000000000ULL,
                    0x403E000000000000ULL, 0x4034000000000000ULL},
                   "MarkovBranch OutputBatch");
}

// ---------------------------------------------------------------------------
// SimFunction::SampleBatch
// ---------------------------------------------------------------------------

TEST(SampleBatchTest, DefaultImplementationLoopsScalar) {
  const SeedVector seeds(0x99u, 64);
  const CallableSimFunction fn(
      "callable", [](std::span<const double> p, std::size_t k,
                     const SeedVector& s) {
        RandomStream rng = s.StreamFor(k, 0);
        return p[0] * rng.NextDouble() + static_cast<double>(k);
      });
  const double params[] = {2.5};
  std::vector<double> scalar(40), batched(40);
  for (std::size_t k = 0; k < 40; ++k) {
    scalar[k] = fn.Sample(params, 5 + k, seeds);
  }
  fn.SampleBatch(params, 5, seeds, batched);
  ExpectBitIdenticalVectors(batched, scalar);
}

TEST(SampleBatchTest, BlackBoxSimFunctionDelegatesToEvalBatch) {
  const SeedVector seeds(0x77u, 80);
  const BlackBoxSimFunction fn(MakeDemandModel({}), /*call_site=*/2);
  const double params[] = {20.0, 52.0};
  std::vector<double> scalar(33), batched(33);
  for (std::size_t k = 0; k < 33; ++k) {
    scalar[k] = fn.Sample(params, 11 + k, seeds);
  }
  fn.SampleBatch(params, 11, seeds, batched);
  ExpectBitIdenticalVectors(batched, scalar);
}

TEST(FingerprintTest, BatchedComputeMatchesScalarLoop) {
  const SeedVector seeds(0xabcu, 50);
  const BlackBoxSimFunction fn(MakeCapacityModel({}));
  const double params[] = {20.0, 5.0, 15.0};
  const Fingerprint fp = ComputeFingerprint(fn, params, seeds, 10);
  ASSERT_EQ(fp.size(), 10u);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(Bits(fp[k]), Bits(fn.Sample(params, k, seeds)));
  }
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity: fingerprints, miss simulation and RunSweep at
// batch sizes {1, 7, 64} × num_threads {1, 2, 8} — the acceptance grid —
// against the one-point-at-a-time loop of tests/point_loop_reference.h.
// ---------------------------------------------------------------------------

RunConfig GridConfig(std::size_t n, std::size_t m) {
  RunConfig cfg;
  cfg.num_samples = n;
  cfg.fingerprint_size = m;
  return cfg;
}

void ExpectGridIdentical(const RunConfig& base_cfg, const SimFunction& fn,
                         const ParameterSpace& space) {
  test::PointLoopReference reference(base_cfg);
  const auto expected = reference.RunSweep(fn, space);

  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    RunConfig cfg = base_cfg;
    cfg.batch_size = batch;
    cfg.num_threads = threads;
    SimulationRunner runner(cfg);
    const auto got = runner.RunSweep(fn, space);
    test::ExpectMatchesPointLoop(got, runner, expected, reference);
  });
}

TEST(BatchGridTest, FingerprintSweepBitIdentical) {
  const BlackBoxSimFunction fn(MakeDemandModel({}));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 25, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  ExpectGridIdentical(GridConfig(200, 10), fn, space);
}

TEST(BatchGridTest, MixedHitMissSweepBitIdentical) {
  CloudModelConfig mcfg;
  mcfg.synth_num_basis = 4;
  const BlackBoxSimFunction fn(MakeSynthBasisModel(mcfg));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"point", RangeDomain{0, 39, 1}}).ok());
  ExpectGridIdentical(GridConfig(150, 10), fn, space);
}

TEST(BatchGridTest, NaiveSweepBitIdentical) {
  const BlackBoxSimFunction fn(MakeDemandModel({}));
  RunConfig cfg = GridConfig(150, 10);
  cfg.use_fingerprints = false;
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 20, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  ExpectGridIdentical(cfg, fn, space);
}

TEST(BatchGridTest, ScalarFallbackSweepBitIdentical) {
  // A SimFunction with no batch kernel exercises the default SampleBatch
  // loop underneath the whole batched pipeline.
  const CallableSimFunction fn(
      "fallback", [](std::span<const double> p, std::size_t k,
                     const SeedVector& s) {
        RandomStream rng = s.StreamFor(k, 7);
        return rng.Normal(3.0 * p[0], 1.0 + 0.1 * p[0]);
      });
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"x", RangeDomain{1, 20, 1}}).ok());
  ExpectGridIdentical(GridConfig(150, 10), fn, space);
}

TEST(BatchGridTest, MissSimulationMetricsBitIdenticalAcrossBatchSizes) {
  const BlackBoxSimFunction fn(MakeCapacityModel({}));
  const double params[] = {30.0, 10.0, 20.0};
  RunConfig ref_cfg = GridConfig(500, 10);
  ref_cfg.batch_size = 1;
  SimulationRunner reference(ref_cfg);
  const PointResult expected = reference.RunPoint(fn, params);
  ASSERT_FALSE(expected.reused);
  for (std::size_t batch : {7u, 64u, 1000u}) {
    RunConfig cfg = GridConfig(500, 10);
    cfg.batch_size = batch;
    SimulationRunner runner(cfg);
    const PointResult got = runner.RunPoint(fn, params);
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    EXPECT_FALSE(got.reused);
    ExpectBitIdenticalMetrics(got.metrics, expected.metrics);
  }
}

// ---------------------------------------------------------------------------
// Batched chain runners
// ---------------------------------------------------------------------------

/// The default batch hooks' contract spelled out per instance: the scalar
/// Step, Estimate or Output on instance k's stream for the step, whose
/// salt is MarkovOutputSalt for Output and MarkovStepSalt otherwise.
double ScalarHook(const MarkovProcess& process, test::ChainHook hook,
                  double state, std::int64_t anchor_step, std::int64_t step,
                  std::size_t k, const SeedVector& seeds) {
  if (hook == test::ChainHook::kOutput) {
    RandomStream rng = seeds.StreamFor(k, MarkovOutputSalt(step));
    return process.Output(state, step, rng);
  }
  RandomStream rng = seeds.StreamFor(k, MarkovStepSalt(step));
  return hook == test::ChainHook::kStep
             ? process.Step(state, step, rng)
             : process.Estimate(state, anchor_step, step, rng);
}

void ExpectChainRunsIdentical(const MarkovProcess& process,
                              std::int64_t target) {
  test::ExpectChainHooksMatchOracle(
      process, std::bind_front(ScalarHook, std::cref(process)));

  RunConfig ref_cfg;
  ref_cfg.num_samples = 96;
  ref_cfg.fingerprint_size = 8;
  ref_cfg.batch_size = 1;

  const ChainResult naive_ref = NaiveChainRunner(ref_cfg).Run(process, target);
  const ChainResult jump_ref = MarkovJumpRunner(ref_cfg).Run(process, target);

  for (std::size_t batch : {7u, 64u, 256u}) {
    RunConfig cfg = ref_cfg;
    cfg.batch_size = batch;
    SCOPED_TRACE(::testing::Message() << "batch " << batch);

    const ChainResult naive = NaiveChainRunner(cfg).Run(process, target);
    ExpectBitIdenticalVectors(naive.final_states, naive_ref.final_states);
    EXPECT_EQ(naive.stats.step_invocations,
              naive_ref.stats.step_invocations);

    const ChainResult jump = MarkovJumpRunner(cfg).Run(process, target);
    ExpectBitIdenticalVectors(jump.final_states, jump_ref.final_states);
    EXPECT_EQ(jump.stats.step_invocations, jump_ref.stats.step_invocations);
    EXPECT_EQ(jump.stats.estimator_invocations,
              jump_ref.stats.estimator_invocations);
    EXPECT_EQ(jump.stats.checkpoints, jump_ref.stats.checkpoints);
    EXPECT_EQ(jump.stats.full_rebuilds, jump_ref.stats.full_rebuilds);

    const OutputMetrics out = ChainOutputMetrics(
        process, jump, target, MarkovJumpRunner(cfg).seeds(), cfg);
    const OutputMetrics out_ref = ChainOutputMetrics(
        process, jump_ref, target, MarkovJumpRunner(ref_cfg).seeds(),
        ref_cfg);
    ExpectBitIdenticalMetrics(out, out_ref);
  }
}

TEST(ChainBatchTest, MarkovStepBitIdenticalAcrossBatchSizes) {
  ExpectChainRunsIdentical(MarkovStepProcess(MarkovStepConfig{}), 60);
}

TEST(ChainBatchTest, MarkovBranchBitIdenticalAcrossBatchSizes) {
  MarkovBranchConfig cfg;
  cfg.branching = 0.02;  // force a few mismatch rebuilds within 200 steps
  ExpectChainRunsIdentical(MarkovBranchProcess(cfg), 200);
}

}  // namespace
}  // namespace jigsaw
