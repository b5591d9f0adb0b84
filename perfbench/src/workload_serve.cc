// serve_mixed: one SessionServer, two client threads in private seed
// namespaces running a closed loop (no think time) of five request kinds
// per round against three published snapshots and the ad-hoc path.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "decorators.h"
#include "digest.h"
#include "interactive/auto_prime.h"
#include "serve/session_server.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/script_runner.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using jigsaw::Result;
using jigsaw::Status;
using jigsaw::sql::ScriptOutcome;
using Overrides = std::vector<std::pair<std::string, double>>;

// The bench_session_server scenario.
constexpr const char* kScenario = R"(
DECLARE PARAMETER @w AS RANGE 10 TO 50 STEP BY 10;
SELECT DemandModel(@w, 36) AS demand,
       CapacityModel(@w, 8, 8) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO r;
)";

enum Kind : std::uint32_t { kSweep, kWhatif, kAdhoc, kTick, kJoin, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"sweep", "whatif", "adhoc",
                                               "tick", "join"};
/// Overrides, pinned weeks and focus cycle with this period, so rounds r
/// and r + kPeriod issue identical requests.
constexpr std::size_t kPeriod = 5;
constexpr std::size_t kTicksPerRequest = 30;
constexpr std::size_t kSweepPoints = 5;

struct Scripts {
  std::string sweep = std::string(kScenario) + "MONTECARLO OVER @w;\n";
  std::string whatif = std::string(kScenario) + "MONTECARLO;\n";
  std::string join;
  int join_rows = 16;

  explicit Scripts(int rows) : join_rows(rows) {
    const std::string n = std::to_string(rows);
    join = "SELECT 1 AS one INTO r;\nMONTECARLO FROM users(" + n +
           ", 0.8, 5.0, 2.0) AS u JOIN items(" + n +
           ") AS i ON u.user_id = i.item_id USING LAYERED;\n";
  }

  static Overrides WhatifOverrides(std::size_t round) {
    return {{"w", 10.0 + 10.0 * static_cast<double>(round % kPeriod)}};
  }
  /// A script pinned to one week, parsed and bound on every request.
  static std::string Adhoc(std::size_t round) {
    const std::string week = std::to_string(12 + 10 * (round % kPeriod));
    return "DECLARE PARAMETER @w AS SET (" + week + ");\n" +
           "SELECT DemandModel(@w, 36) AS demand,\n"
           "       CapacityModel(@w, 8, 8) AS capacity,\n"
           "       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload\n"
           "INTO r;\nMONTECARLO;\n";
  }
};

/// When a request ran: both clients untraced (the timed loop), one
/// client alone, or both clients traced.
enum class Phase { kConcurrent, kSolo, kTraced };

struct Request {
  Kind kind = kSweep;
  std::size_t round = 0;
  double latency_ms = 0.0;
  std::uint64_t digest = 0;
  bool ok = false;
  Phase phase = Phase::kConcurrent;
  std::string error;
};

/// Where a client's requests go: its server session, or the session's
/// standalone serial twin (which only checks results).
class Backend {
 public:
  virtual ~Backend() = default;
  virtual Result<ScriptOutcome> RunPublished(Kind kind,
                                             const Overrides& overrides) = 0;
  virtual Result<ScriptOutcome> RunAdhoc(const std::string& text) = 0;
  virtual Result<std::unique_ptr<jigsaw::InteractiveSession>> Prime(
      const ScriptOutcome& sweep) = 0;
};

class SessionBackend final : public Backend {
 public:
  SessionBackend(jigsaw::serve::Session* session,
                 const jigsaw::ModelRegistry* registry)
      : session_(session), registry_(registry) {}

  Result<ScriptOutcome> RunPublished(Kind kind,
                                     const Overrides& overrides) override {
    ScopedSpan span(SpanKind::kServeRequest);
    return session_->Run(kKindNames[kind], overrides);
  }

  /// Session::RunText; traced, its layer calls are issued one by one
  /// (parse, bind, then a runner under the session's config — what
  /// RunText does inside).
  Result<ScriptOutcome> RunAdhoc(const std::string& text) override {
    if (!TracingEnabled()) return session_->RunText(text);
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::Script script,
                            InSpan(SpanKind::kSqlParse, [&] {
                              return jigsaw::sql::ParseScript(text);
                            }));
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::BoundScript bound,
                            InSpan(SpanKind::kSqlBind, [&] {
                              return jigsaw::sql::Binder(registry_).Bind(
                                  script);
                            }));
    ScopedSpan span(SpanKind::kServeRequest);
    jigsaw::sql::ScriptRunner runner(registry_, session_->config());
    return runner.RunBound(std::move(bound), {});
  }

  Result<std::unique_ptr<jigsaw::InteractiveSession>> Prime(
      const ScriptOutcome& sweep) override {
    ScopedSpan span(SpanKind::kInteractivePrime);
    return session_->PrimeInteractive(sweep, "demand");
  }

 private:
  jigsaw::serve::Session* session_;
  const jigsaw::ModelRegistry* registry_;
};

class TwinBackend final : public Backend {
 public:
  TwinBackend(const jigsaw::ModelRegistry* registry,
              const jigsaw::RunConfig& config, const Scripts* scripts)
      : config_(config), runner_(registry, config), scripts_(scripts) {}

  Result<ScriptOutcome> RunPublished(Kind kind,
                                     const Overrides& overrides) override {
    const std::string& text = kind == kSweep    ? scripts_->sweep
                              : kind == kWhatif ? scripts_->whatif
                                                : scripts_->join;
    return runner_.Run(text, overrides);
  }
  Result<ScriptOutcome> RunAdhoc(const std::string& text) override {
    return runner_.Run(text);
  }
  Result<std::unique_ptr<jigsaw::InteractiveSession>> Prime(
      const ScriptOutcome& sweep) override {
    jigsaw::InteractiveConfig config;
    config.run = config_;
    return jigsaw::MakeSessionFromOutcome(sweep, "demand", config);
  }

 private:
  jigsaw::RunConfig config_;
  jigsaw::sql::ScriptRunner runner_;
  const Scripts* scripts_;
};

Result<std::uint64_t> ColumnsDigest(const Result<ScriptOutcome>& outcome,
                                    std::int64_t expected_count) {
  JIGSAW_RETURN_IF_ERROR(outcome.status());
  const auto& mc = outcome.value().montecarlo;
  if (!mc) return Status::ExecutionError("no MONTECARLO result");
  for (const auto& [name, m] : mc->columns) {
    if (m.count != expected_count) {
      return Status::ExecutionError("column " + name + " summarized " +
                                    std::to_string(m.count) + " values");
    }
  }
  Digest d;
  d.Add(mc->columns);
  return d.value();
}

/// One round of five requests. Each request is timed by the client and,
/// while tracing, is one operation labelled with its kind.
void RunRound(Backend& backend, const Scripts& scripts, std::size_t worlds,
              std::size_t round, std::vector<Request>* out) {
  const Phase phase = TracingEnabled() ? Phase::kTraced : Phase::kConcurrent;
  auto issue = [&](Kind kind, auto&& body) {
    Request r;
    r.kind = kind;
    r.round = round;
    r.phase = phase;
    const std::int64_t t0 = NowNs();
    Result<std::uint64_t> digest = Status::ExecutionError("not run");
    {
      OperationScope op(kind);
      digest = body();
    }
    r.latency_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    r.ok = digest.ok();
    if (r.ok) {
      r.digest = digest.value();
    } else {
      r.error = digest.status().ToString();
    }
    out->push_back(std::move(r));
  };
  const auto n = static_cast<std::int64_t>(worlds);

  Result<ScriptOutcome> sweep = Status::ExecutionError("sweep not run");
  issue(kSweep, [&]() -> Result<std::uint64_t> {
    sweep = backend.RunPublished(kSweep, {});
    JIGSAW_RETURN_IF_ERROR(sweep.status());
    const auto& mc = sweep.value().montecarlo;
    if (!mc || mc->points.size() != kSweepPoints) {
      return Status::ExecutionError("sweep did not return 5 points");
    }
    Digest d;
    for (const auto& point : mc->points) {
      d.Add(point.value);
      d.Add(point.columns);
    }
    return d.value();
  });
  issue(kWhatif, [&] {
    return ColumnsDigest(
        backend.RunPublished(kWhatif, Scripts::WhatifOverrides(round)), n);
  });
  issue(kAdhoc, [&] {
    return ColumnsDigest(backend.RunAdhoc(Scripts::Adhoc(round)), n);
  });
  issue(kTick, [&]() -> Result<std::uint64_t> {
    JIGSAW_RETURN_IF_ERROR(sweep.status());
    JIGSAW_ASSIGN_OR_RETURN(std::unique_ptr<jigsaw::InteractiveSession> s,
                            backend.Prime(sweep.value()));
    {
      ScopedSpan span(SpanKind::kInteractiveTick);
      JIGSAW_RETURN_IF_ERROR(s->SetFocus(round % s->num_points()));
      s->Run(kTicksPerRequest);
    }
    Digest d;
    for (std::size_t p = 0; p < s->num_points(); ++p) {
      const jigsaw::DisplayEstimate e = s->EstimateFor(p);
      d.Add(e.mean);
      d.Add(e.std_error);
      d.Add(static_cast<std::uint64_t>(e.support));
    }
    return d.value();
  });
  issue(kJoin, [&] {
    return ColumnsDigest(backend.RunPublished(kJoin, {}),
                         n * scripts.join_rows);
  });
}

struct Client {
  jigsaw::serve::Session* session = nullptr;
  std::unique_ptr<SessionBackend> backend;
  std::size_t next_round = 0;
  std::vector<Request> requests;
};

/// Runs every client on its own thread: rounds back to back until
/// `deadline` (at least `min_rounds` each). Returns the phase's wall time.
double RunClients(std::span<Client> clients, const Scripts& scripts,
                  std::size_t worlds, std::int64_t deadline,
                  std::size_t min_rounds) {
  const std::int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&c, &scripts, worlds, deadline, min_rounds] {
      for (std::size_t done = 0; done < min_rounds || NowNs() < deadline;
           ++done) {
        RunRound(*c.backend, scripts, worlds, c.next_round++, &c.requests);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - start) * 1e-9;
}

std::vector<double> Latencies(const std::vector<Client>& clients,
                              std::size_t first_request, Phase phase,
                              int kind = -1) {
  std::vector<double> out;
  for (const Client& c : clients) {
    for (std::size_t i = first_request; i < c.requests.size(); ++i) {
      const Request& r = c.requests[i];
      if (r.phase != phase) continue;
      if (kind >= 0 && r.kind != static_cast<Kind>(kind)) continue;
      out.push_back(r.latency_ms);
    }
  }
  return out;
}

}  // namespace

WorkloadReport DriveServeMixed(const WorkloadOptions& options) {
  WorkloadReport report;
  report.workload = "serve_mixed";
  const Scripts scripts(options.tiny ? 4 : 16);
  const std::size_t worlds = options.tiny ? 100 : 1000;

  // Set-up: registry, server, three snapshots, two sessions, and each
  // session's first round (its cache fills), both on their client
  // threads.
  const std::int64_t t0 = NowNs();
  auto models = CloudModels(options.trace);
  if (!models.ok()) {
    report.attempted = 1;
    report.Fail("set-up: " + models.status().ToString());
    return report;
  }
  const jigsaw::ModelRegistry* registry = models.value().get();
  jigsaw::RunConfig base;
  base.num_samples = worlds;
  // No shared pool: two client threads. With a 2-thread pool behind them
  // throughput swung by more than a quarter from run to run on a 4-vCPU
  // box, and each request was slower.
  base.num_threads = 1;
  base.keep_samples = true;  // sweeps must be primeable
  base.master_seed = options.seed;
  jigsaw::serve::SessionServer server(registry, base);
  std::vector<double> publish_ms;
  for (Kind kind : {kSweep, kWhatif, kJoin}) {
    const std::string& text = kind == kSweep    ? scripts.sweep
                              : kind == kWhatif ? scripts.whatif
                                                : scripts.join;
    const std::int64_t t = NowNs();
    auto published = server.Publish(kKindNames[kind], text);
    publish_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
    if (!published.ok()) {
      report.attempted = 1;
      report.Fail("publish: " + published.status().ToString());
      return report;
    }
  }
  std::vector<Client> clients(2);
  for (Client& c : clients) {
    c.session = &server.Connect();
    c.backend = std::make_unique<SessionBackend>(c.session, registry);
  }
  SetSingleClient(false);
  RunClients(clients, scripts, worlds, 0, 1);
  report.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  Digest first;
  for (const Client& c : clients) {
    for (const Request& r : c.requests) {
      if (!r.ok) report.Fail(std::string("first round ") + kKindNames[r.kind] +
                             ": " + r.error);
      first.Add(r.digest);
    }
  }
  report.first_digest = first.value();
  const std::size_t first_round_requests = clients[0].requests.size();

  double phase_s = 0.0;
  double peak_rss_mb = 0.0;
  if (!options.setup_only && report.failed == 0) {
    if (!options.trace) {
      phase_s = RunClients(
          clients, scripts, worlds,
          NowNs() + static_cast<std::int64_t>(options.seconds * 1e9), 1);
      peak_rss_mb = PeakRssMiB();
    } else {
      // Two thirds of the time alternate, in short blocks so that both
      // meet the same host conditions, between both clients untraced and
      // client 0 alone on the same server, snapshots and caches (the
      // one-client p50 of serve.contention_ratio). The last third runs
      // both clients traced.
      constexpr int kBlocks = 4;
      const auto block =
          static_cast<std::int64_t>(options.seconds * 1e9 / (3 * kBlocks));
      Client& solo = clients[0];
      for (int b = 0; b < kBlocks; ++b) {
        RunClients(clients, scripts, worlds, NowNs() + block, 1);
        const std::size_t solo_begin = solo.requests.size();
        RunClients(std::span<Client>(clients).first(1), scripts, worlds,
                   NowNs() + block, 1);
        for (std::size_t i = solo_begin; i < solo.requests.size(); ++i) {
          solo.requests[i].phase = Phase::kSolo;
        }
      }
      SetTracing(true);
      RunClients(clients, scripts, worlds, NowNs() + kBlocks * block, 1);
      SetTracing(false);
    }
  }
  SetSingleClient(true);

  std::uint64_t completed = 0;
  for (const Client& c : clients) {
    report.attempted += c.requests.size();
    completed += c.requests.size() - first_round_requests;
  }
  if (options.setup_only || report.failed != 0) return report;

  // Checks, outside the timed window: every request against the same
  // request of the session's standalone serial twin.
  auto twin_models = CloudModels(false);
  if (!twin_models.ok()) {
    report.Fail("twin: " + twin_models.status().ToString());
    return report;
  }
  for (std::size_t ci = 0; ci < clients.size(); ++ci) {
    Client& c = clients[ci];
    TwinBackend twin(twin_models.value().get(),
                     jigsaw::serve::StandaloneTwinConfig(*c.session), &scripts);
    std::vector<Request> expected;
    for (std::size_t round = 0; round < kPeriod; ++round) {
      RunRound(twin, scripts, worlds, round, &expected);
    }
    for (const Request& r : c.requests) {
      const Request& want = expected[(r.round % kPeriod) * kNumKinds + r.kind];
      if (!r.ok) {
        report.Fail("client " + std::to_string(ci) + " round " +
                    std::to_string(r.round) + " " + kKindNames[r.kind] + ": " +
                    r.error);
      } else if (!want.ok) {
        report.Fail(std::string("twin ") + kKindNames[r.kind] + ": " +
                    want.error);
      } else if (r.digest != want.digest) {
        report.Fail("client " + std::to_string(ci) + " round " +
                    std::to_string(r.round) + " " + kKindNames[r.kind] +
                    " differs from its standalone twin");
      }
    }
  }

  if (!options.trace) {
    const std::vector<double> lat =
        Latencies(clients, first_round_requests, Phase::kConcurrent);
    report.Set("latency_p50_ms", Median(lat), "ms");
    report.Set("latency_samples", static_cast<double>(lat.size()), "count");
    if (auto p99 = TailQuantile(lat, 0.99)) {
      report.Set("latency_p99_ms", *p99, "ms");
    }
    report.Set("work_per_s", static_cast<double>(completed) / phase_s, "1/s");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
    report.Set("setup_s", report.setup_s, "s");
    report.notes.push_back("work unit: requests (5 kinds per round, 2 clients)");
    return report;
  }

  const std::vector<double> untraced =
      Latencies(clients, first_round_requests, Phase::kConcurrent);
  AddSpanMetrics(untraced, options.spans_path, &report);
  for (int kind = 0; kind < static_cast<int>(kNumKinds); ++kind) {
    report.Set(std::string("serve.") + kKindNames[kind] + "_p50_ms",
               Median(Latencies(clients, first_round_requests,
                                Phase::kConcurrent, kind)),
               "ms");
  }
  const double solo_p50 =
      Median(Latencies(clients, first_round_requests, Phase::kSolo));
  report.Set("serve.contention_ratio",
             solo_p50 > 0 ? Median(untraced) / solo_p50 : 0.0, "ratio");
  double publish_sum = 0.0;
  for (double ms : publish_ms) publish_sum += ms;
  report.Set("serve.publish_ms", publish_sum / 3.0, "ms");

  const auto catalog = server.catalog();
  const std::uint64_t generations =
      catalog->at(kKindNames[kJoin])->world_cache->generation_count();
  std::uint64_t join_requests = 0;
  for (const Client& c : clients) {
    for (const Request& r : c.requests) join_requests += r.kind == kJoin;
  }
  const double requested = 2.0 * static_cast<double>(join_requests * worlds);
  report.Set("pdb.world_cache_generations", static_cast<double>(generations),
             "count");
  report.Set("pdb.world_cache_hit_ratio",
             requested > 0 ? 1.0 - static_cast<double>(generations) / requested
                           : 0.0,
             "ratio");
  report.notes.push_back(
      "contention: concurrent p50 " + std::to_string(Median(untraced)) +
      " ms over one-client p50 " + std::to_string(solo_p50) + " ms");
  return report;
}

}  // namespace perfbench
