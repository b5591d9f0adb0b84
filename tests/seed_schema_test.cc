/// \file seed_schema_test.cc
/// Seed-schema v2 acceptance suite. Every suite here is named SeedSchema*
/// so CI jobs can pin the whole file with --gtest_filter=SeedSchema*.
///
/// The oracle is always the scalar counter stream: under v2, every batch
/// surface — the seven native cloud kernels, the sweep runners, the SQL
/// script pipeline, the Markov chain kernels, the serving layer — must
/// be bit-identical to a serial per-lane walk of SeedSpan::StreamAt /
/// SeedVector::StreamFor, exactly as v1 surfaces are bit-identical to
/// their sigma-table twins. A canary pins that v1 and v2 actually
/// diverge (the gate is real, not a no-op).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/parameter_space.h"
#include "core/sim_runner.h"
#include "grid_test_util.h"
#include "markov/chain_runner.h"
#include "markov/markov_models.h"
#include "models/cloud_models.h"
#include "pdb/vg_table.h"
#include "random/seed_vector.h"
#include "serve/session_server.h"
#include "sql/chain_process.h"
#include "sql/script_runner.h"

namespace jigsaw {
namespace {

constexpr std::uint64_t kSeed = 0x5160534A00000001ULL;

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

void ExpectBitIdenticalMetrics(const OutputMetrics& a,
                               const OutputMetrics& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(Bits(a.mean), Bits(b.mean));
  EXPECT_EQ(Bits(a.stddev), Bits(b.stddev));
  EXPECT_EQ(Bits(a.min), Bits(b.min));
  EXPECT_EQ(Bits(a.max), Bits(b.max));
  EXPECT_EQ(Bits(a.p50), Bits(b.p50));
  EXPECT_EQ(Bits(a.p95), Bits(b.p95));
  ExpectBitIdenticalVectors(a.samples, b.samples);
}

// ---------------------------------------------------------------------------
// Native kernels: the v2 draw-plane fast paths against the scalar
// counter-stream twin, at unaligned sample offsets (partial Philox
// groups at both ends) and every grid batch size.
// ---------------------------------------------------------------------------

void ExpectV2BatchMatchesScalar(const BlackBox& model,
                                std::span<const double> params,
                                std::uint64_t call_site = 0) {
  const SeedVector seeds(kSeed, 80, SeedSchema::kV2);
  for (std::size_t begin : {0u, 3u, 5u}) {
    for (std::size_t n : {1u, 7u, 64u}) {
      SCOPED_TRACE(::testing::Message() << "begin=" << begin << " n=" << n);
      const SeedSpan span = seeds.span(begin, n);
      std::vector<double> scalar(n);
      for (std::size_t i = 0; i < n; ++i) {
        RandomStream rng = span.StreamAt(i, call_site);
        scalar[i] = model.Eval(params, rng);
      }
      std::vector<double> batched(n);
      model.EvalBatch(params, span, call_site, batched);
      ExpectBitIdenticalVectors(batched, scalar);
    }
  }
}

TEST(SeedSchemaKernelTest, DemandPlaneMatchesScalar) {
  const double post[] = {30.0, 20.0};
  ExpectV2BatchMatchesScalar(*MakeDemandModel({}), post);
  const double pre[] = {10.0, 20.0};
  ExpectV2BatchMatchesScalar(*MakeDemandModel({}), pre, /*call_site=*/3);
}

TEST(SeedSchemaKernelTest, CapacityPlaneMatchesScalar) {
  const double params[] = {30.0, 10.0, 40.0};
  ExpectV2BatchMatchesScalar(*MakeCapacityModel({}), params);
}

TEST(SeedSchemaKernelTest, OverloadPlaneMatchesScalar) {
  const double params[] = {45.0, 20.0, 30.0};
  ExpectV2BatchMatchesScalar(*MakeOverloadModel({}), params);
}

TEST(SeedSchemaKernelTest, UserSelectionPlaneMatchesScalar) {
  CloudModelConfig cfg;
  cfg.num_users = 50;
  cfg.user_sim_depth = 3;
  const double params[] = {26.0};
  ExpectV2BatchMatchesScalar(*MakeUserSelectionModel(cfg), params);
}

TEST(SeedSchemaKernelTest, SynthBasisPlaneMatchesScalar) {
  CloudModelConfig cfg;
  cfg.synth_num_basis = 4;
  for (double point : {0.0, 3.0, 17.0}) {
    const double params[] = {point};
    ExpectV2BatchMatchesScalar(*MakeSynthBasisModel(cfg), params);
  }
}

TEST(SeedSchemaKernelTest, SeasonalDemandPlaneMatchesScalar) {
  const double params[] = {13.0};
  ExpectV2BatchMatchesScalar(*MakeSeasonalDemandModel({}), params);
}

TEST(SeedSchemaKernelTest, OutageCounterLoopMatchesScalar) {
  const double params[] = {26.0};
  ExpectV2BatchMatchesScalar(*MakeOutageModel({}), params);
}

TEST(SeedSchemaKernelTest, DefaultEvalBatchMatchesScalarUnderV2) {
  // A model without a native kernel takes the base-class loop, which
  // must dispatch to counter streams under a v2 span.
  const CallableBlackBox model(
      "mix", {"x"}, [](std::span<const double> p, RandomStream& rng) {
        return rng.Normal(p[0], 1.0) + rng.Exponential(0.5);
      });
  const double params[] = {4.0};
  ExpectV2BatchMatchesScalar(model, params);
}

// ---------------------------------------------------------------------------
// Sweep runner: the full batch x threads grid under v2, against the
// serial scalar v2 reference.
// ---------------------------------------------------------------------------

RunConfig V2Config(std::size_t n, std::size_t m) {
  RunConfig cfg;
  cfg.num_samples = n;
  cfg.fingerprint_size = m;
  cfg.seed_schema = SeedSchema::kV2;
  return cfg;
}

void ExpectV2GridIdentical(const RunConfig& base_cfg, const SimFunction& fn,
                           const ParameterSpace& space) {
  RunConfig ref_cfg = base_cfg;
  ref_cfg.num_threads = 1;
  ref_cfg.batch_size = 1;  // pure scalar v2 reference
  SimulationRunner reference(ref_cfg);
  const auto expected = reference.RunSweep(fn, space);

  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    RunConfig cfg = base_cfg;
    cfg.batch_size = batch;
    cfg.num_threads = threads;
    SimulationRunner runner(cfg);
    const auto got = runner.RunSweep(fn, space);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "point " << i);
      EXPECT_EQ(got[i].reused, expected[i].reused);
      EXPECT_EQ(got[i].basis_id, expected[i].basis_id);
      ExpectBitIdenticalMetrics(got[i].metrics, expected[i].metrics);
    }
    EXPECT_EQ(runner.stats().points_reused,
              reference.stats().points_reused);
  });
}

TEST(SeedSchemaSweepTest, FingerprintSweepBitIdenticalOnGrid) {
  const BlackBoxSimFunction fn(MakeDemandModel({}));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"week", RangeDomain{1, 25, 1}}).ok());
  ASSERT_TRUE(space.Add({"feature", SetDomain{{52.0}}}).ok());
  ExpectV2GridIdentical(V2Config(200, 10), fn, space);
}

TEST(SeedSchemaSweepTest, MixedHitMissSweepBitIdenticalOnGrid) {
  CloudModelConfig mcfg;
  mcfg.synth_num_basis = 4;
  const BlackBoxSimFunction fn(MakeSynthBasisModel(mcfg));
  ParameterSpace space;
  ASSERT_TRUE(space.Add({"point", RangeDomain{0, 39, 1}}).ok());
  ExpectV2GridIdentical(V2Config(150, 10), fn, space);
}

// ---------------------------------------------------------------------------
// SQL pipeline: compiled and interpreted twins under v2 across the grid,
// against the serial interpreted v2 reference.
// ---------------------------------------------------------------------------

class SeedSchemaScriptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterCloudModels(&registry_).ok());
  }
  ModelRegistry registry_;
};

TEST_F(SeedSchemaScriptTest, SweepBitIdenticalOnGrid) {
  const std::string script =
      "DECLARE PARAMETER @w AS RANGE 5 TO 25 STEP BY 5;"
      "SELECT DemandModel(@w, 52) AS demand,"
      "       CapacityModel(@w, 10, 20) AS capacity,"
      "       demand - capacity AS gap INTO r;"
      "MONTECARLO OVER @w;";

  auto bound = sql::ParseAndBind(script, registry_);
  ASSERT_TRUE(bound.ok()) << bound.status().message();
  ASSERT_TRUE(bound.value().program->compiled());
  sql::BoundScript interpreted = bound.value();
  sql::UseInterpretedExpressions(interpreted);

  RunConfig ref_cfg = V2Config(96, 8);
  ref_cfg.batch_size = 1;
  ref_cfg.keep_samples = true;
  sql::ScriptRunner reference(&registry_, ref_cfg);
  const auto expected = reference.RunBound(interpreted, {});
  ASSERT_TRUE(expected.ok()) << expected.status().message();

  test::ForEachGridPoint([&](std::size_t threads, std::size_t batch) {
    for (bool compiled : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "compiled=" << compiled);
      RunConfig cfg = ref_cfg;
      cfg.batch_size = batch;
      cfg.num_threads = threads;
      sql::ScriptRunner runner(&registry_, cfg);
      const auto got =
          runner.RunBound(compiled ? bound.value() : interpreted, {});
      ASSERT_TRUE(got.ok()) << got.status().message();
      ASSERT_TRUE(got.value().montecarlo.has_value());
      const auto& gm = *got.value().montecarlo;
      const auto& em = *expected.value().montecarlo;
      ASSERT_EQ(gm.points.size(), em.points.size());
      for (std::size_t p = 0; p < gm.points.size(); ++p) {
        SCOPED_TRACE(::testing::Message() << "point " << p);
        ASSERT_EQ(gm.points[p].columns.size(),
                  em.points[p].columns.size());
        for (const auto& [name, metrics] : em.points[p].columns) {
          auto it = gm.points[p].columns.find(name);
          ASSERT_NE(it, gm.points[p].columns.end()) << name;
          SCOPED_TRACE("column " + name);
          ExpectBitIdenticalMetrics(it->second, metrics);
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Markov chains: the plane kernels against the scalar *ForInstance
// hooks, and full chain runs across batch sizes.
// ---------------------------------------------------------------------------

void ExpectV2MarkovKernelsMatchScalar(const MarkovProcess& process) {
  const SeedVector seeds(kSeed, 80, SeedSchema::kV2);
  std::vector<double> states(80);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = process.initial_state() + 0.5 * static_cast<double>(i % 7);
  }
  for (std::size_t k_begin : {0u, 3u, 5u}) {
    for (std::size_t n : {1u, 7u, 64u}) {
      SCOPED_TRACE(::testing::Message()
                   << "k_begin=" << k_begin << " n=" << n);
      const std::span<const double> in(states.data() + k_begin, n);
      std::vector<double> batched(n), scalar(n);

      process.StepBatch(in, /*step=*/9, k_begin, seeds, batched);
      for (std::size_t i = 0; i < n; ++i) {
        scalar[i] = process.StepForInstance(in[i], 9, k_begin + i, seeds);
      }
      ExpectBitIdenticalVectors(batched, scalar);

      process.EstimateBatch(in, /*anchor_step=*/4, /*step=*/9, k_begin,
                            seeds, batched);
      for (std::size_t i = 0; i < n; ++i) {
        scalar[i] =
            process.EstimateForInstance(in[i], 4, 9, k_begin + i, seeds);
      }
      ExpectBitIdenticalVectors(batched, scalar);

      process.OutputBatch(in, /*step=*/9, k_begin, seeds, batched);
      for (std::size_t i = 0; i < n; ++i) {
        scalar[i] = process.OutputForInstance(in[i], 9, k_begin + i, seeds);
      }
      ExpectBitIdenticalVectors(batched, scalar);
    }
  }
}

TEST(SeedSchemaChainTest, MarkovStepKernelsMatchScalar) {
  ExpectV2MarkovKernelsMatchScalar(MarkovStepProcess(MarkovStepConfig{}));
}

TEST(SeedSchemaChainTest, MarkovBranchKernelsMatchScalar) {
  MarkovBranchConfig cfg;
  cfg.branching = 0.3;  // branch often enough to exercise both arms
  ExpectV2MarkovKernelsMatchScalar(MarkovBranchProcess(cfg));
}

TEST(SeedSchemaChainTest, ScenarioChainKernelsMatchScalar) {
  // The Figure 5 CHAIN scenario on both expression paths: its batch hooks
  // run one EvalColumnSpan per instance span, a compiled BatchProgram or
  // the interpreter's per-lane walk.
  ModelRegistry registry;
  ASSERT_TRUE(RegisterCloudModels(&registry).ok());
  auto bound = sql::ParseAndBind(R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
  FROM @current_week : @current_week - 1 INITIAL VALUE 52;
SELECT CASE WHEN demand > 26 AND @current_week + 4 < @release_week
            THEN @current_week + 4 ELSE @release_week END AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results;
)",
                                 registry);
  ASSERT_TRUE(bound.ok()) << bound.status().message();
  ASSERT_TRUE(bound.value().program->compiled());
  sql::BoundScript interpreted = bound.value();
  sql::UseInterpretedExpressions(interpreted);
  for (const sql::BoundScript* path : {&bound.value(), &interpreted}) {
    SCOPED_TRACE(::testing::Message()
                 << "compiled=" << path->program->compiled());
    const sql::ScenarioChainProcess process(
        path->program, *path->chain, path->scenario.params.ValuationAt(0),
        /*output_column=*/1);
    ExpectV2MarkovKernelsMatchScalar(process);
  }
}

TEST(SeedSchemaChainTest, ChainRunsBitIdenticalAcrossBatchSizes) {
  const MarkovStepProcess process{MarkovStepConfig{}};
  RunConfig ref_cfg = V2Config(96, 8);
  ref_cfg.batch_size = 1;
  const ChainResult naive_ref =
      NaiveChainRunner(ref_cfg).Run(process, /*target=*/60);
  const ChainResult jump_ref =
      MarkovJumpRunner(ref_cfg).Run(process, /*target=*/60);
  for (std::size_t batch : {7u, 64u, 256u}) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    RunConfig cfg = ref_cfg;
    cfg.batch_size = batch;
    const ChainResult naive = NaiveChainRunner(cfg).Run(process, 60);
    ExpectBitIdenticalVectors(naive.final_states, naive_ref.final_states);
    const ChainResult jump = MarkovJumpRunner(cfg).Run(process, 60);
    ExpectBitIdenticalVectors(jump.final_states, jump_ref.final_states);
    EXPECT_EQ(jump.stats.full_rebuilds, jump_ref.stats.full_rebuilds);
  }
}

// ---------------------------------------------------------------------------
// World cache: realizations from different schemas occupy disjoint keys.
// ---------------------------------------------------------------------------

TEST(SeedSchemaWorldCacheTest, SchemasRealizeDisjointEntries) {
  pdb::WorldCache cache;
  const auto users = pdb::MakeUsersVGTable(10, 0.05, 0.05, 0.3, 2);
  const SeedVector v1(kSeed, 8, SeedSchema::kV1);
  const SeedVector v2(kSeed, 8, SeedSchema::kV2);
  ASSERT_TRUE(cache.GetOrGenerateColumnar(*users, 0, v1).ok());
  EXPECT_EQ(cache.generation_count(), 1u);
  // Same (table, master, world) under the other schema is a MISS — its
  // draws differ, so sharing the entry would silently mix derivations.
  ASSERT_TRUE(cache.GetOrGenerateColumnar(*users, 0, v2).ok());
  EXPECT_EQ(cache.generation_count(), 2u);
  // Repeat probes under each schema hit their own entries.
  ASSERT_TRUE(cache.GetOrGenerateColumnar(*users, 0, v1).ok());
  ASSERT_TRUE(cache.GetOrGenerateColumnar(*users, 0, v2).ok());
  EXPECT_EQ(cache.generation_count(), 2u);
}

// ---------------------------------------------------------------------------
// Serving layer: snapshots pin their schema; mixed-schema Connect is a
// bind error; v2 sessions stay bit-identical to standalone twins.
// ---------------------------------------------------------------------------

class SeedSchemaServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterCloudModels(&registry_).ok());
  }
  ModelRegistry registry_;
};

TEST_F(SeedSchemaServeTest, MixedSchemaConnectIsBindError) {
  RunConfig base;
  base.num_samples = 16;
  base.seed_schema = SeedSchema::kV1;
  serve::SessionServer server(&registry_, base);

  serve::SessionOptions mixed;
  mixed.seed_schema = SeedSchema::kV2;
  const auto rejected = server.TryConnect(mixed);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Matching or unset schema both admit.
  serve::SessionOptions matching;
  matching.seed_schema = SeedSchema::kV1;
  EXPECT_TRUE(server.TryConnect(matching).ok());
  EXPECT_TRUE(server.TryConnect({}).ok());
}

TEST_F(SeedSchemaServeTest, SnapshotPinsPublisherSchema) {
  RunConfig base;
  base.num_samples = 16;
  base.seed_schema = SeedSchema::kV2;
  serve::SessionServer server(&registry_, base);
  const auto snapshot = server.Publish(
      "s", "SELECT DemandModel(10, 52) AS d INTO r; MONTECARLO;");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
  EXPECT_EQ(snapshot.value()->seed_schema, SeedSchema::kV2);
}

TEST_F(SeedSchemaServeTest, V2SessionMatchesStandaloneTwin) {
  const std::string script =
      "DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;"
      "SELECT DemandModel(@w, 52) AS demand INTO r;"
      "MONTECARLO OVER @w;";
  RunConfig base;
  base.num_samples = 48;
  base.num_threads = 2;
  base.keep_samples = true;
  base.seed_schema = SeedSchema::kV2;
  serve::SessionServer server(&registry_, base);
  ASSERT_TRUE(server.Publish("sweep", script).ok());

  serve::Session& session = server.Connect();
  const auto served = session.Run("sweep");
  ASSERT_TRUE(served.ok()) << served.status().message();

  sql::ScriptRunner twin(&registry_, serve::StandaloneTwinConfig(session));
  const auto standalone = twin.Run(script);
  ASSERT_TRUE(standalone.ok()) << standalone.status().message();

  ASSERT_TRUE(served.value().montecarlo.has_value());
  ASSERT_TRUE(standalone.value().montecarlo.has_value());
  const auto& sm = *served.value().montecarlo;
  const auto& tm = *standalone.value().montecarlo;
  ASSERT_EQ(sm.points.size(), tm.points.size());
  for (std::size_t p = 0; p < sm.points.size(); ++p) {
    SCOPED_TRACE(::testing::Message() << "point " << p);
    for (const auto& [name, metrics] : tm.points[p].columns) {
      auto it = sm.points[p].columns.find(name);
      ASSERT_NE(it, sm.points[p].columns.end()) << name;
      ExpectBitIdenticalMetrics(it->second, metrics);
    }
  }
}

// ---------------------------------------------------------------------------
// Canary: the schema gate changes the draws.
// ---------------------------------------------------------------------------

TEST(SeedSchemaCanaryTest, V1AndV2SweepsDiverge) {
  const BlackBoxSimFunction fn(MakeDemandModel({}));
  const double params[] = {20.0, 52.0};
  RunConfig v1_cfg = V2Config(64, 8);
  v1_cfg.seed_schema = SeedSchema::kV1;
  v1_cfg.keep_samples = true;
  RunConfig v2_cfg = V2Config(64, 8);
  v2_cfg.keep_samples = true;
  SimulationRunner v1(v1_cfg), v2(v2_cfg);
  const auto a = v1.RunPoint(fn, params);
  const auto b = v2.RunPoint(fn, params);
  ASSERT_EQ(a.metrics.samples.size(), b.metrics.samples.size());
  int equal = 0;
  for (std::size_t i = 0; i < a.metrics.samples.size(); ++i) {
    equal += (Bits(a.metrics.samples[i]) == Bits(b.metrics.samples[i]));
  }
  EXPECT_EQ(equal, 0) << "schemas must not share draws";
}

}  // namespace
}  // namespace jigsaw
