/// \file serve_test.cc
/// The serving-layer acceptance suite: N concurrent clients over shared
/// immutable snapshots, each proven bit-identical to a standalone serial
/// run. Every suite here is named Serve* so the TSan CI job can pin the
/// whole file with --gtest_filter=Serve*.
///
/// The determinism oracle is always the same: for session k, an
/// independent single-tenant ScriptRunner under StandaloneTwinConfig
/// (session k's seed, one thread, no shared pool) re-runs the script
/// text from scratch, and the concurrent outcome must match it in
/// values, retained draws, metrics, stats, and (for failing scripts)
/// error text — regardless of sibling count, pool width, or scheduling.

#include "serve/session_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "grid_test_util.h"
#include "interactive/auto_prime.h"
#include "models/cloud_models.h"
#include "pdb/vg_table.h"
#include "sql/script_runner.h"

namespace jigsaw::serve {
namespace {

using sql::MonteCarloOutcome;
using sql::ScriptOutcome;
using sql::ScriptRunner;

constexpr const char* kScenario =
    "DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;"
    "SELECT DemandModel(@w, 52) AS demand,"
    "       2 * demand AS doubled INTO r;";

const std::string kSweepScript = std::string(kScenario) +
                                 "MONTECARLO OVER @w;";
const std::string kMonteCarloScript = std::string(kScenario) +
                                      "MONTECARLO;";
const std::string kLayeredSweepScript =
    std::string(kScenario) + "MONTECARLO OVER @w USING LAYERED;";

/// Fails on some world > 0 (the world-0 bind probe passes at p=0.97),
/// with a deterministic lowest-failing-world error.
constexpr const char* kFaultyScript =
    "SELECT 1 / CoinFlip(0.97) AS q INTO r; MONTECARLO;";

void ExpectSameMetrics(const OutputMetrics& a, const OutputMetrics& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  // Draw-level identity, not just summary identity.
  EXPECT_EQ(a.samples, b.samples);
}

void ExpectSameColumns(const std::map<std::string, OutputMetrics>& a,
                       const std::map<std::string, OutputMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, metrics] : a) {
    SCOPED_TRACE("column " + name);
    auto it = b.find(name);
    ASSERT_NE(it, b.end());
    ExpectSameMetrics(metrics, it->second);
  }
}

void ExpectSameOutcome(const ScriptOutcome& a, const ScriptOutcome& b) {
  ASSERT_EQ(a.montecarlo.has_value(), b.montecarlo.has_value());
  if (a.montecarlo) {
    const MonteCarloOutcome& ma = *a.montecarlo;
    const MonteCarloOutcome& mb = *b.montecarlo;
    EXPECT_EQ(ma.worlds, mb.worlds);
    EXPECT_EQ(ma.layered, mb.layered);
    EXPECT_EQ(ma.sweep_param, mb.sweep_param);
    EXPECT_EQ(ma.master_seed, mb.master_seed);
    ExpectSameColumns(ma.columns, mb.columns);
    ASSERT_EQ(ma.points.size(), mb.points.size());
    for (std::size_t k = 0; k < ma.points.size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "sweep point " << k);
      EXPECT_EQ(ma.points[k].value, mb.points[k].value);
      ExpectSameColumns(ma.points[k].columns, mb.points[k].columns);
    }
  }
  ASSERT_EQ(a.optimize.has_value(), b.optimize.has_value());
  if (a.optimize) {
    EXPECT_EQ(a.optimize->ToString(), b.optimize->ToString());
  }
  ASSERT_EQ(a.graph.has_value(), b.graph.has_value());
  if (a.graph) {
    ASSERT_EQ(a.graph->points.size(), b.graph->points.size());
    for (std::size_t k = 0; k < a.graph->points.size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "graph point " << k);
      EXPECT_EQ(a.graph->points[k].x, b.graph->points[k].x);
      EXPECT_EQ(a.graph->points[k].y, b.graph->points[k].y);
    }
  }
  EXPECT_EQ(a.runner_stats.points_evaluated, b.runner_stats.points_evaluated);
  EXPECT_EQ(a.runner_stats.points_reused, b.runner_stats.points_reused);
  EXPECT_EQ(a.runner_stats.blackbox_invocations,
            b.runner_stats.blackbox_invocations);
  EXPECT_EQ(a.basis_count, b.basis_count);
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterCloudModels(&registry_).ok());
    // Bernoulli helper for the fault suite: 0/1 draws so division blows
    // up on some world > 0 but not on the world-0 bind probe.
    registry_.RegisterOrReplace(std::make_shared<CallableBlackBox>(
        "CoinFlip", std::vector<std::string>{"p"},
        [](std::span<const double> params, RandomStream& rng) {
          return rng.NextDouble() < params[0] ? 1.0 : 0.0;
        }));
  }

  RunConfig BaseConfig(std::size_t threads) {
    RunConfig cfg;
    cfg.num_samples = 48;
    cfg.num_threads = threads;
    cfg.keep_samples = true;  // draw-level identity checks
    return cfg;
  }

  /// The standalone oracle: a fresh single-tenant runner under the
  /// session's seed, serial, re-running the text from scratch.
  Result<ScriptOutcome> RunStandalone(const Session& session,
                                      const std::string& text) {
    ScriptRunner runner(&registry_, StandaloneTwinConfig(session));
    return runner.Run(text);
  }

  ModelRegistry registry_;
};

// ---------------------------------------------------------------------------
// The acceptance grid: sessions {1,4,16} x pool threads {1,2,8}, every
// concurrent client bit-identical to its standalone serial twin.
// ---------------------------------------------------------------------------

using ServeGridTest = ServeTest;

TEST_F(ServeGridTest, ConcurrentSweepsMatchStandaloneTwins) {
  test::ForEachSessionGridPoint([&](std::size_t sessions,
                                    std::size_t threads) {
    SessionServer server(&registry_, BaseConfig(threads));
    ASSERT_TRUE(server.Publish("sweep", kSweepScript).ok());

    std::vector<Session*> clients;
    for (std::size_t s = 0; s < sessions; ++s) {
      clients.push_back(&server.Connect());
    }

    // Every client runs on its own thread, all in flight at once.
    std::vector<Result<ScriptOutcome>> outcomes(
        sessions, Status::Internal("not run"));
    std::vector<std::thread> threads_vec;
    threads_vec.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) {
      threads_vec.emplace_back(
          [&, s] { outcomes[s] = clients[s]->Run("sweep"); });
    }
    for (auto& t : threads_vec) t.join();

    for (std::size_t s = 0; s < sessions; ++s) {
      SCOPED_TRACE(::testing::Message() << "session " << s);
      ASSERT_TRUE(outcomes[s].ok()) << outcomes[s].status().ToString();
      auto twin = RunStandalone(*clients[s], kSweepScript);
      ASSERT_TRUE(twin.ok()) << twin.status().ToString();
      ExpectSameOutcome(outcomes[s].value(), twin.value());
      // Report bytes are only comparable at matching configs (the report
      // prints the thread count); at threads=1 the twin IS the matching
      // config, so the full human-readable output must coincide too.
      if (threads == 1) {
        EXPECT_EQ(outcomes[s].value().Report(), twin.value().Report());
      }
    }
  });
}

TEST_F(ServeGridTest, MixedWorkloadUnderSaturationMatchesTwins) {
  // 16 sessions on a 2-thread pool, running three different statement
  // shapes concurrently: saturation degrades throughput, never results.
  constexpr std::size_t kSessions = 16;
  SessionServer server(&registry_, BaseConfig(2));
  ASSERT_TRUE(server.Publish("sweep", kSweepScript).ok());
  ASSERT_TRUE(server.Publish("mc", kMonteCarloScript).ok());
  ASSERT_TRUE(server.Publish("layered", kLayeredSweepScript).ok());
  const char* names[] = {"sweep", "mc", "layered"};
  const std::string* texts[] = {&kSweepScript, &kMonteCarloScript,
                                &kLayeredSweepScript};

  std::vector<Session*> clients;
  for (std::size_t s = 0; s < kSessions; ++s) {
    clients.push_back(&server.Connect());
  }
  std::vector<Result<ScriptOutcome>> outcomes(
      kSessions, Status::Internal("not run"));
  std::vector<std::thread> workers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    workers.emplace_back(
        [&, s] { outcomes[s] = clients[s]->Run(names[s % 3]); });
  }
  for (auto& t : workers) t.join();

  for (std::size_t s = 0; s < kSessions; ++s) {
    SCOPED_TRACE(::testing::Message() << "session " << s << " script "
                                      << names[s % 3]);
    ASSERT_TRUE(outcomes[s].ok()) << outcomes[s].status().ToString();
    auto twin = RunStandalone(*clients[s], *texts[s % 3]);
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    ExpectSameOutcome(outcomes[s].value(), twin.value());
  }
}

TEST_F(ServeGridTest, ConcurrentSessionsMatchInterpretedTwins) {
  // Sessions run the published compiled plan; each must match the
  // standalone interpreted twin of the same text under its own seed
  // (UseInterpretedExpressions before RunBound), while a sibling runs
  // concurrently.
  SessionServer server(&registry_, BaseConfig(8));
  ASSERT_TRUE(server.Publish("sweep", kSweepScript).ok());
  Session& a = server.Connect();
  Session& b = server.Connect();
  Result<ScriptOutcome> ra = Status::Internal("not run");
  Result<ScriptOutcome> rb = Status::Internal("not run");
  std::thread ta([&] { ra = a.Run("sweep"); });
  std::thread tb([&] { rb = b.Run("sweep"); });
  ta.join();
  tb.join();
  auto bound = sql::ParseAndBind(kSweepScript, registry_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  sql::UseInterpretedExpressions(bound.value());
  for (auto [session, outcome] : {std::pair{&a, &ra}, std::pair{&b, &rb}}) {
    SCOPED_TRACE(::testing::Message() << "session " << session->id());
    ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
    EXPECT_TRUE(outcome->value().bound.program->compiled());
    ScriptRunner runner(&registry_, StandaloneTwinConfig(*session));
    auto twin = runner.RunBound(bound.value(), {});
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    EXPECT_FALSE(twin.value().bound.program->compiled());
    ExpectSameOutcome(outcome->value(), twin.value());
  }
}

// ---------------------------------------------------------------------------
// Ad-hoc text runs
// ---------------------------------------------------------------------------

using ServeAdHocTest = ServeTest;

TEST_F(ServeAdHocTest, RunTextMatchesStandaloneTwinAndCountsSessions) {
  // RunText parses and binds per call, publishes nothing, and still runs
  // under the session's seed on the shared pool.
  SessionServer server(&registry_, BaseConfig(2));
  EXPECT_EQ(server.session_count(), 0u);
  Session& a = server.Connect();
  Session& b = server.Connect();
  EXPECT_EQ(server.session_count(), 2u);
  for (Session* session : {&a, &b}) {
    SCOPED_TRACE(::testing::Message() << "session " << session->id());
    auto outcome = session->RunText(kMonteCarloScript);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto twin = RunStandalone(*session, kMonteCarloScript);
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    ExpectSameOutcome(outcome.value(), twin.value());
  }
  EXPECT_TRUE(server.catalog()->empty());
}

// ---------------------------------------------------------------------------
// Seed namespaces
// ---------------------------------------------------------------------------

using ServeSeedTest = ServeTest;

TEST_F(ServeSeedTest, SessionSeedsAreDistinctAndPure) {
  constexpr std::uint64_t kMaster = 0x5160534A00000001ULL;
  std::set<std::uint64_t> seen;
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::uint64_t seed = SessionSeed(kMaster, id);
    EXPECT_EQ(seed, SessionSeed(kMaster, id));  // pure
    EXPECT_TRUE(seen.insert(seed).second) << "collision at id " << id;
    EXPECT_NE(seed, kMaster);
    EXPECT_NE(seed, SessionSeed(kMaster ^ 1, id));
  }
}

TEST_F(ServeSeedTest, PrivateNamespacesDrawDisjointWorlds) {
  SessionServer server(&registry_, BaseConfig(2));
  ASSERT_TRUE(server.Publish("mc", kMonteCarloScript).ok());
  Session& a = server.Connect();
  Session& b = server.Connect();
  auto ra = a.Run("mc");
  auto rb = b.Run("mc");
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Different namespaces, different draws.
  EXPECT_NE(ra.value().montecarlo->columns.at("demand").samples,
            rb.value().montecarlo->columns.at("demand").samples);
}

// ---------------------------------------------------------------------------
// Shared WorldCache: cross-session contention must keep generation counts
// deterministic (first-insert-wins, one generation per distinct world).
// ---------------------------------------------------------------------------

using ServeWorldCacheTest = ServeTest;

TEST_F(ServeWorldCacheTest, GenerationCountStableUnderCrossSessionRaces) {
  constexpr std::size_t kWorlds = 16;
  constexpr std::size_t kSessions = 8;
  auto users = pdb::MakeUsersVGTable(20, 1.0, 10.0, 0.3);

  // Serial oracle: one namespace realizing every world once.
  pdb::WorldCache serial_cache;
  SeedVector serial_seeds(7, kWorlds);
  std::vector<const pdb::ColumnarTable*> serial_tables(kWorlds);
  for (std::size_t w = 0; w < kWorlds; ++w) {
    auto t = serial_cache.GetOrGenerateColumnar(*users, w, serial_seeds);
    ASSERT_TRUE(t.ok());
    serial_tables[w] = t.value();
  }
  ASSERT_EQ(serial_cache.generation_count(), kWorlds);

  // Same-namespace contention: every session hammers every world
  // concurrently; the cache must realize each world exactly once and
  // every session must observe the serial oracle's values.
  {
    pdb::WorldCache cache;
    std::vector<std::thread> workers;
    // NOT vector<bool>: its packed bits share words, so sibling threads
    // writing "their own" flag would race (TSan flags it).
    std::vector<std::atomic<bool>> ok(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      workers.emplace_back([&, s] {
        SeedVector seeds(7, kWorlds);
        for (std::size_t w = 0; w < kWorlds; ++w) {
          auto t = cache.GetOrGenerateColumnar(*users, w, seeds);
          if (!t.ok()) return;
          // Spot-check shape against the serial oracle (values are
          // pointer-identical: first insert wins, later hits read it).
          if (t.value()->num_rows() != serial_tables[w]->num_rows()) return;
        }
        ok[s] = true;
      });
    }
    for (auto& t : workers) t.join();
    for (std::size_t s = 0; s < kSessions; ++s) EXPECT_TRUE(ok[s]);
    EXPECT_EQ(cache.generation_count(), kWorlds);
    EXPECT_EQ(cache.size(), kWorlds);
  }

  // Disjoint namespaces: sessions occupy disjoint keys — one generation
  // per (namespace, world), nobody reads another namespace's draws.
  {
    pdb::WorldCache cache;
    std::vector<std::thread> workers;
    std::vector<std::atomic<bool>> ok(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      workers.emplace_back([&, s] {
        SeedVector seeds(SessionSeed(7, s), kWorlds);
        for (std::size_t w = 0; w < kWorlds; ++w) {
          if (!cache.GetOrGenerateColumnar(*users, w, seeds).ok()) return;
        }
        ok[s] = true;
      });
    }
    for (auto& t : workers) t.join();
    for (std::size_t s = 0; s < kSessions; ++s) EXPECT_TRUE(ok[s]);
    EXPECT_EQ(cache.generation_count(), kSessions * kWorlds);
    EXPECT_EQ(cache.size(), kSessions * kWorlds);
  }
}

TEST_F(ServeWorldCacheTest, LayeredSessionsShareOneSnapshotCache) {
  // Layered runs through the server plumb the snapshot's shared cache;
  // results stay twin-identical with it in place.
  SessionServer server(&registry_, BaseConfig(2));
  auto snapshot = server.Publish("layered", kLayeredSweepScript);
  ASSERT_TRUE(snapshot.ok());
  Session& a = server.Connect();
  Session& b = server.Connect();
  Result<ScriptOutcome> ra = Status::Internal("not run");
  Result<ScriptOutcome> rb = Status::Internal("not run");
  std::thread ta([&] { ra = a.Run("layered"); });
  std::thread tb([&] { rb = b.Run("layered"); });
  ta.join();
  tb.join();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  auto twin_a = RunStandalone(a, kLayeredSweepScript);
  auto twin_b = RunStandalone(b, kLayeredSweepScript);
  ASSERT_TRUE(twin_a.ok());
  ASSERT_TRUE(twin_b.ok());
  ExpectSameOutcome(ra.value(), twin_a.value());
  ExpectSameOutcome(rb.value(), twin_b.value());
}

// ---------------------------------------------------------------------------
// Fault isolation: a failing script must report exactly its standalone
// error and must not poison the snapshot or stall siblings.
// ---------------------------------------------------------------------------

using ServeFaultTest = ServeTest;

TEST_F(ServeFaultTest, MidFlightErrorsMatchTwinAndSpareSiblings) {
  constexpr std::size_t kSessions = 8;
  RunConfig base = BaseConfig(2);
  base.num_samples = 400;  // enough worlds for CoinFlip to land a zero
  SessionServer server(&registry_, base);
  ASSERT_TRUE(server.Publish("faulty", kFaultyScript).ok());
  ASSERT_TRUE(server.Publish("sweep", kSweepScript).ok());

  std::vector<Session*> clients;
  for (std::size_t s = 0; s < kSessions; ++s) {
    clients.push_back(&server.Connect());
  }
  std::vector<Result<ScriptOutcome>> outcomes(
      kSessions, Status::Internal("not run"));
  std::vector<std::thread> workers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      outcomes[s] = clients[s]->Run(s % 2 == 0 ? "faulty" : "sweep");
    });
  }
  for (auto& t : workers) t.join();

  for (std::size_t s = 0; s < kSessions; ++s) {
    SCOPED_TRACE(::testing::Message() << "session " << s);
    if (s % 2 == 0) {
      // Failing sessions: exact standalone error (code AND text — the
      // lowest failing world is part of the determinism contract).
      auto twin = RunStandalone(*clients[s], kFaultyScript);
      ASSERT_FALSE(outcomes[s].ok());
      ASSERT_FALSE(twin.ok());
      EXPECT_EQ(outcomes[s].status(), twin.status());
      EXPECT_NE(outcomes[s].status().message().find("division by zero"),
                std::string::npos)
          << outcomes[s].status().ToString();
    } else {
      // Sibling sessions sharing the pool with the failures: untouched.
      ASSERT_TRUE(outcomes[s].ok()) << outcomes[s].status().ToString();
      auto twin = RunStandalone(*clients[s], kSweepScript);
      ASSERT_TRUE(twin.ok());
      ExpectSameOutcome(outcomes[s].value(), twin.value());
    }
  }

  // The snapshot survives its failures: a session that just failed runs
  // the good script — and even the faulty snapshot re-fails identically
  // (no poisoned shared state from the earlier aborts).
  auto after = clients[0]->Run("sweep");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto after_twin = RunStandalone(*clients[0], kSweepScript);
  ASSERT_TRUE(after_twin.ok());
  ExpectSameOutcome(after.value(), after_twin.value());
  auto refail = clients[0]->Run("faulty");
  auto refail_twin = RunStandalone(*clients[0], kFaultyScript);
  ASSERT_FALSE(refail.ok());
  EXPECT_EQ(refail.status(), refail_twin.status());
}

TEST_F(ServeFaultTest, BindTimeErrorsSurfaceAtPublishNotAtRun) {
  SessionServer server(&registry_, BaseConfig(2));
  auto bad = server.Publish("bad", "SELECT NoSuchModel(@x) AS y INTO r;");
  EXPECT_FALSE(bad.ok());
  // Nothing was published; the catalog is unchanged and runs say so.
  Session& session = server.Connect();
  auto run = session.Run("bad");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Catalog publishing: copy-on-write semantics.
// ---------------------------------------------------------------------------

using ServeCatalogTest = ServeTest;

TEST_F(ServeCatalogTest, RepublishSwapsForNewRunsOnly) {
  SessionServer server(&registry_, BaseConfig(1));
  ASSERT_TRUE(server.Publish("s", kMonteCarloScript).ok());
  const std::shared_ptr<const Catalog> before = server.catalog();
  Session& session = server.Connect();
  auto v1 = session.Run("s");
  ASSERT_TRUE(v1.ok());

  // Republish under the same name with a different scenario.
  const std::string v2_script =
      "DECLARE PARAMETER @w AS RANGE 10 TO 30 STEP BY 10;"
      "SELECT DemandModel(@w, 52) AS demand,"
      "       3 * demand AS tripled INTO r;"
      "MONTECARLO;";
  ASSERT_TRUE(server.Publish("s", v2_script).ok());

  // The old catalog handle still holds the old snapshot (a run that had
  // grabbed it would keep executing v1), while new runs see v2.
  EXPECT_EQ(before->at("s")->text, kMonteCarloScript);
  auto v2 = session.Run("s");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().montecarlo->columns.count("tripled"), 1u);
  auto twin = RunStandalone(session, v2_script);
  ASSERT_TRUE(twin.ok());
  ExpectSameOutcome(v2.value(), twin.value());
}

// ---------------------------------------------------------------------------
// Basis stores: GRAPH points run through the fingerprint runner, whose
// basis store belongs to the one run.
// ---------------------------------------------------------------------------

using ServeBasisStoreTest = ServeTest;

const std::string kGraphScript = std::string(kScenario) +
                                 "MONTECARLO OVER @w;"
                                 "GRAPH OVER @w EXPECT demand;";

TEST_F(ServeBasisStoreTest, ConcurrentGraphSessionsMatchStandaloneTwins) {
  SessionServer server(&registry_, BaseConfig(2));
  ASSERT_TRUE(server.Publish("g", kGraphScript).ok());
  Session& a = server.Connect();
  Session& b = server.Connect();
  Result<ScriptOutcome> ra = Status::Internal("not run");
  Result<ScriptOutcome> rb = Status::Internal("not run");
  std::thread ta([&] { ra = a.Run("g"); });
  std::thread tb([&] { rb = b.Run("g"); });
  ta.join();
  tb.join();
  for (auto [session, outcome] : {std::pair{&a, &ra}, std::pair{&b, &rb}}) {
    SCOPED_TRACE(::testing::Message() << "session " << session->id());
    ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
    ASSERT_TRUE(outcome->value().graph.has_value());
    EXPECT_GT(outcome->value().basis_count, 0u);
    auto twin = RunStandalone(*session, kGraphScript);
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    ExpectSameOutcome(outcome->value(), twin.value());
  }
}

// ---------------------------------------------------------------------------
// Interactive priming off concurrent sweeps.
// ---------------------------------------------------------------------------

using ServePrimeTest = ServeTest;

TEST_F(ServePrimeTest, SessionPrimedFromConcurrentSweepMatchesSerialPrime) {
  constexpr std::size_t kSessions = 4;
  SessionServer server(&registry_, BaseConfig(8));
  ASSERT_TRUE(server.Publish("sweep", kSweepScript).ok());

  std::vector<Session*> clients;
  for (std::size_t s = 0; s < kSessions; ++s) {
    clients.push_back(&server.Connect());
  }
  std::vector<Result<ScriptOutcome>> outcomes(
      kSessions, Status::Internal("not run"));
  std::vector<std::thread> workers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] { outcomes[s] = clients[s]->Run("sweep"); });
  }
  for (auto& t : workers) t.join();

  for (std::size_t s = 0; s < kSessions; ++s) {
    SCOPED_TRACE(::testing::Message() << "session " << s);
    ASSERT_TRUE(outcomes[s].ok()) << outcomes[s].status().ToString();

    // Primed off the concurrent sweep...
    auto primed = clients[s]->PrimeInteractive(outcomes[s].value(),
                                               "demand");
    ASSERT_TRUE(primed.ok()) << primed.status().ToString();

    // ...versus primed off a fully serial, standalone pipeline.
    auto twin_outcome = RunStandalone(*clients[s], kSweepScript);
    ASSERT_TRUE(twin_outcome.ok());
    InteractiveConfig twin_cfg;
    twin_cfg.run = StandaloneTwinConfig(*clients[s]);
    auto serial =
        MakeSessionFromOutcome(twin_outcome.value(), "demand", twin_cfg);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    // Every swept point opens already estimated, and both sessions agree
    // exactly — before and after further ticks.
    ASSERT_EQ(primed.value()->num_points(), serial.value()->num_points());
    for (std::size_t p = 0; p < primed.value()->num_points(); ++p) {
      const DisplayEstimate pe = primed.value()->EstimateFor(p);
      const DisplayEstimate se = serial.value()->EstimateFor(p);
      EXPECT_EQ(pe.available, se.available);
      EXPECT_EQ(pe.mean, se.mean);
      EXPECT_EQ(pe.std_error, se.std_error);
      EXPECT_EQ(pe.support, se.support);
      EXPECT_TRUE(pe.available);
      EXPECT_EQ(pe.support, 48);  // every retained world imported
    }
    ASSERT_TRUE(primed.value()->SetFocus(0).ok());
    ASSERT_TRUE(serial.value()->SetFocus(0).ok());
    primed.value()->Run(20);
    serial.value()->Run(20);
    for (std::size_t p = 0; p < primed.value()->num_points(); ++p) {
      const DisplayEstimate pe = primed.value()->EstimateFor(p);
      const DisplayEstimate se = serial.value()->EstimateFor(p);
      EXPECT_EQ(pe.mean, se.mean);
      EXPECT_EQ(pe.std_error, se.std_error);
      EXPECT_EQ(pe.support, se.support);
    }
  }
}

TEST_F(ServePrimeTest, PrimingAcrossNamespacesIsRejected) {
  SessionServer server(&registry_, BaseConfig(1));
  ASSERT_TRUE(server.Publish("sweep", kSweepScript).ok());
  Session& a = server.Connect();
  Session& b = server.Connect();
  auto outcome = a.Run("sweep");
  ASSERT_TRUE(outcome.ok());
  // Session b's sample ids are NOT the world ids of a's sweep.
  auto primed = b.PrimeInteractive(outcome.value(), "demand");
  ASSERT_FALSE(primed.ok());
  EXPECT_EQ(primed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(primed.status().message().find("seed namespace"),
            std::string::npos)
      << primed.status().ToString();
}

TEST_F(ServePrimeTest, PrimingWithoutRetainedSamplesIsRejected) {
  RunConfig base = BaseConfig(1);
  base.keep_samples = false;
  SessionServer server(&registry_, base);
  ASSERT_TRUE(server.Publish("sweep", kSweepScript).ok());
  Session& session = server.Connect();
  auto outcome = session.Run("sweep");
  ASSERT_TRUE(outcome.ok());
  auto primed = session.PrimeInteractive(outcome.value(), "demand");
  ASSERT_FALSE(primed.ok());
  EXPECT_EQ(primed.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace jigsaw::serve
