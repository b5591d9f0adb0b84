// Serving-layer throughput and latency: N concurrent clients replaying a
// mixed what-if workload (MONTECARLO runs, OVER sweeps, interactive
// ticks) against one SessionServer's shared snapshots and worker pool.
//
// Two phases per session count:
//
//   concurrent — every client on its own thread, all requests fanned out
//                on the ONE shared pool;
//   standalone — each client's workload replayed by an independent
//                serial single-tenant pipeline under the same session
//                seed: the semantics the server must reproduce
//                bit-for-bit.
//
// Each client folds every result it sees (sweep metrics, Monte Carlo
// metrics, interactive estimates) into a bitwise checksum; the binary
// exits non-zero if any session's concurrent checksum diverges from its
// standalone twin — CI smoke-runs it threaded as the machine check of
// the serving determinism contract.
//
// Every row is a JSON-lines record on stdout with throughput and
// p50/p95/p99 request latency, plus one "session_server_round" row per
// (round, request kind) — the per-round latency trajectory of the run,
// not just end-of-run percentiles. A human summary goes to stderr. Flags:
// --num_samples=N --batch_size=N --num_threads=N --num_sessions=N
// (bench_common.h).

#include "bench_common.h"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "interactive/auto_prime.h"
#include "models/cloud_models.h"
#include "serve/session_server.h"
#include "sql/script_runner.h"
#include "util/timer.h"

namespace {

using namespace jigsaw;
using bench::BenchFlags;
using bench::EmitJsonLine;
using bench::JsonLineBuilder;

/// Order-sensitive bitwise fold (FNV-1a over the raw doubles).
class Checksum {
 public:
  void Fold(double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    h_ = (h_ ^ u) * 0x100000001b3ULL;
  }
  void FoldMetrics(const OutputMetrics& m) {
    const double fields[] = {static_cast<double>(m.count),
                             m.mean,
                             m.stddev,
                             m.std_error,
                             m.min,
                             m.max,
                             m.p50,
                             m.p95};
    for (double x : fields) Fold(x);
  }
  void FoldColumns(const std::map<std::string, OutputMetrics>& columns) {
    for (const auto& [name, m] : columns) FoldMetrics(m);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

constexpr const char* kScenario = R"(
DECLARE PARAMETER @w AS RANGE 10 TO 50 STEP BY 10;
SELECT DemandModel(@w, 36) AS demand,
       CapacityModel(@w, 8, 8) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO r;
)";

const std::string kSweepScript = std::string(kScenario) +
                                 "MONTECARLO OVER @w;";
const std::string kMonteCarloScript = std::string(kScenario) +
                                      "MONTECARLO;";

constexpr std::size_t kTicksPerRound = 30;

struct SessionResult {
  std::vector<double> latencies_s;  ///< one entry per request
  std::uint64_t cells = 0;          ///< (point x world) evaluations
  std::uint64_t checksum = 0;
  bool ok = true;
  std::string error;
};

void FoldInteractive(InteractiveSession& session, std::size_t rounds,
                     Checksum* sum, SessionResult* r) {
  const std::size_t n = session.num_points();
  if (session.SetFocus(rounds % n).ok()) {
    session.Run(kTicksPerRound);
    r->cells += kTicksPerRound;  // batched tick evaluations
  }
  for (std::size_t p = 0; p < n; ++p) {
    const DisplayEstimate e = session.EstimateFor(p);
    sum->Fold(e.mean);
    sum->Fold(e.std_error);
    sum->Fold(static_cast<double>(e.support));
  }
}

/// One client's workload: `rounds` iterations of sweep -> pinned
/// MONTECARLO -> prime-and-tick. `run` executes a published script;
/// `prime` opens an interactive session off a sweep outcome. Both
/// closures hide whether this is the concurrent server path or the
/// standalone serial twin — the workload (and so the checksum stream) is
/// identical by construction.
template <typename RunFn, typename PrimeFn>
SessionResult DriveWorkload(std::size_t rounds, std::size_t worlds,
                            RunFn&& run, PrimeFn&& prime) {
  SessionResult r;
  Checksum sum;
  for (std::size_t round = 0; round < rounds && r.ok; ++round) {
    // Sweep request.
    WallTimer sweep_timer;
    Result<sql::ScriptOutcome> sweep = run(kSweepScript, round, true);
    r.latencies_s.push_back(sweep_timer.ElapsedSeconds());
    if (!sweep.ok()) {
      r.ok = false;
      r.error = sweep.status().ToString();
      break;
    }
    for (const auto& point : sweep.value().montecarlo->points) {
      sum.FoldColumns(point.columns);
      r.cells += worlds;
    }

    // Pinned single-valuation request.
    WallTimer mc_timer;
    Result<sql::ScriptOutcome> mc = run(kMonteCarloScript, round, false);
    r.latencies_s.push_back(mc_timer.ElapsedSeconds());
    if (!mc.ok()) {
      r.ok = false;
      r.error = mc.status().ToString();
      break;
    }
    sum.FoldColumns(mc.value().montecarlo->columns);
    r.cells += worlds;

    // Interactive what-if request primed off the sweep just run.
    WallTimer tick_timer;
    Result<std::unique_ptr<InteractiveSession>> primed =
        prime(sweep.value());
    if (!primed.ok()) {
      r.ok = false;
      r.error = primed.status().ToString();
      break;
    }
    FoldInteractive(*primed.value(), round, &sum, &r);
    r.latencies_s.push_back(tick_timer.ElapsedSeconds());
  }
  r.checksum = sum.value();
  return r;
}

/// Overrides pinning @w for the round's single-valuation request.
std::vector<std::pair<std::string, double>> RoundOverrides(
    std::size_t round, bool sweep) {
  if (sweep) return {};
  return {{"w", 10.0 + 10.0 * static_cast<double>(round % 5)}};
}

SessionResult DriveConcurrentClient(serve::Session& session,
                                    std::size_t rounds,
                                    std::size_t worlds) {
  return DriveWorkload(
      rounds, worlds,
      [&](const std::string& /*text*/, std::size_t round, bool sweep) {
        return session.Run(sweep ? "sweep" : "mc",
                           RoundOverrides(round, sweep));
      },
      [&](const sql::ScriptOutcome& outcome) {
        return session.PrimeInteractive(outcome, "demand");
      });
}

SessionResult DriveStandaloneTwin(const ModelRegistry& registry,
                                  const serve::Session& session,
                                  std::size_t rounds, std::size_t worlds) {
  const RunConfig twin_cfg = serve::StandaloneTwinConfig(session);
  sql::ScriptRunner runner(&registry, twin_cfg);
  return DriveWorkload(
      rounds, worlds,
      [&](const std::string& text, std::size_t round, bool sweep) {
        return runner.Run(text, RoundOverrides(round, sweep));
      },
      [&](const sql::ScriptOutcome& outcome) {
        InteractiveConfig cfg;
        cfg.run = twin_cfg;
        return MakeSessionFromOutcome(outcome, "demand", cfg);
      });
}

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

void EmitRow(const std::string& mode, std::size_t sessions,
             std::size_t threads, std::size_t rounds,
             const BenchFlags& flags,
             const std::vector<SessionResult>& results, double elapsed_s) {
  std::vector<double> lat;
  std::uint64_t cells = 0;
  for (const SessionResult& r : results) {
    lat.insert(lat.end(), r.latencies_s.begin(), r.latencies_s.end());
    cells += r.cells;
  }
  std::sort(lat.begin(), lat.end());
  JsonLineBuilder row;
  row.Str("bench", "session_server")
      .Str("mode", mode)
      .Num("sessions", static_cast<double>(sessions))
      .Num("num_threads", static_cast<double>(threads))
      .Num("rounds", static_cast<double>(rounds))
      .Num("worlds", static_cast<double>(flags.num_samples))
      .Num("batch_size", static_cast<double>(flags.batch_size))
      .Num("elapsed_s", elapsed_s)
      .Num("requests", static_cast<double>(lat.size()))
      .Num("requests_per_sec",
           elapsed_s > 0.0 ? static_cast<double>(lat.size()) / elapsed_s
                           : 0.0)
      .Num("cells_per_sec",
           elapsed_s > 0.0 ? static_cast<double>(cells) / elapsed_s : 0.0)
      .Num("lat_p50_ms", Percentile(lat, 0.50) * 1e3)
      .Num("lat_p95_ms", Percentile(lat, 0.95) * 1e3)
      .Num("lat_p99_ms", Percentile(lat, 0.99) * 1e3);
  EmitJsonLine(std::cout, row);
}

/// Time-series output: one row per (round, request kind) aggregating
/// that round's latencies across sessions — the trajectory view of the
/// run (warm-up effects, cache convergence), not just end-of-run
/// percentiles. DriveWorkload pushes exactly three latencies per
/// completed round, in (sweep, mc, tick) order; sessions that aborted
/// mid-round simply contribute fewer entries.
void EmitRoundRows(const std::string& mode, std::size_t sessions,
                   std::size_t threads, std::size_t rounds,
                   const BenchFlags& flags,
                   const std::vector<SessionResult>& results) {
  static const char* kKinds[] = {"sweep", "mc", "tick"};
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t kind = 0; kind < 3; ++kind) {
      std::vector<double> lat;
      for (const SessionResult& r : results) {
        const std::size_t idx = 3 * round + kind;
        if (idx < r.latencies_s.size()) lat.push_back(r.latencies_s[idx]);
      }
      if (lat.empty()) continue;
      std::sort(lat.begin(), lat.end());
      double total = 0.0;
      for (double x : lat) total += x;
      JsonLineBuilder row;
      row.Str("bench", "session_server_round")
          .Str("mode", mode)
          .Str("request", kKinds[kind])
          .Num("round", static_cast<double>(round))
          .Num("sessions", static_cast<double>(sessions))
          .Num("num_threads", static_cast<double>(threads))
          .Num("worlds", static_cast<double>(flags.num_samples))
          .Num("batch_size", static_cast<double>(flags.batch_size))
          .Num("lat_mean_ms", total / static_cast<double>(lat.size()) * 1e3)
          .Num("lat_min_ms", lat.front() * 1e3)
          .Num("lat_p50_ms", Percentile(lat, 0.50) * 1e3)
          .Num("lat_max_ms", lat.back() * 1e3);
      EmitJsonLine(std::cout, row);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = bench::ParseBenchFlags(&argc, argv);
  if (flags.batch_size == 0) flags.batch_size = 1;
  if (flags.num_threads == 0) flags.num_threads = 1;
  if (flags.num_sessions == 0) flags.num_sessions = 1;
  const std::size_t rounds = bench::FullScale() ? 8 : 3;

  ModelRegistry registry;
  if (auto s = RegisterCloudModels(&registry); !s.ok()) {
    std::fprintf(stderr, "model registration failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  RunConfig base;
  base.num_samples = flags.num_samples;
  base.num_threads = flags.num_threads;
  base.batch_size = flags.batch_size;
  base.keep_samples = true;  // sweeps must be primeable

  bool checksums_ok = true;
  for (std::size_t sessions : {std::size_t{1}, flags.num_sessions}) {
    serve::SessionServer server(&registry, base);
    if (auto s = server.Publish("sweep", kSweepScript); !s.ok()) {
      std::fprintf(stderr, "publish failed: %s\n",
                   s.status().ToString().c_str());
      return 2;
    }
    if (auto s = server.Publish("mc", kMonteCarloScript); !s.ok()) {
      std::fprintf(stderr, "publish failed: %s\n",
                   s.status().ToString().c_str());
      return 2;
    }

    std::vector<serve::Session*> clients;
    for (std::size_t s = 0; s < sessions; ++s) {
      clients.push_back(&server.Connect());
    }

    // Concurrent phase: one OS thread per client, shared pool under all.
    std::vector<SessionResult> concurrent(sessions);
    WallTimer concurrent_timer;
    {
      std::vector<std::thread> workers;
      workers.reserve(sessions);
      for (std::size_t s = 0; s < sessions; ++s) {
        workers.emplace_back([&, s] {
          concurrent[s] = DriveConcurrentClient(*clients[s], rounds,
                                                flags.num_samples);
        });
      }
      for (auto& t : workers) t.join();
    }
    const double concurrent_s = concurrent_timer.ElapsedSeconds();

    // Standalone phase: serial single-tenant twins, same seeds.
    std::vector<SessionResult> standalone(sessions);
    WallTimer standalone_timer;
    for (std::size_t s = 0; s < sessions; ++s) {
      standalone[s] =
          DriveStandaloneTwin(registry, *clients[s], rounds,
                              flags.num_samples);
    }
    const double standalone_s = standalone_timer.ElapsedSeconds();

    EmitRow("concurrent", sessions, flags.num_threads, rounds, flags,
            concurrent, concurrent_s);
    EmitRow("standalone", sessions, 1, rounds, flags, standalone,
            standalone_s);
    EmitRoundRows("concurrent", sessions, flags.num_threads, rounds, flags,
                  concurrent);
    EmitRoundRows("standalone", sessions, 1, rounds, flags, standalone);

    bool same = true;
    for (std::size_t s = 0; s < sessions; ++s) {
      if (!concurrent[s].ok) {
        std::fprintf(stderr, "session %zu failed: %s\n", s,
                     concurrent[s].error.c_str());
        same = false;
      } else if (!standalone[s].ok) {
        std::fprintf(stderr, "twin %zu failed: %s\n", s,
                     standalone[s].error.c_str());
        same = false;
      } else if (concurrent[s].checksum != standalone[s].checksum) {
        std::fprintf(stderr,
                     "session %zu DIVERGED: concurrent %016llx != "
                     "standalone %016llx\n",
                     s,
                     static_cast<unsigned long long>(
                         concurrent[s].checksum),
                     static_cast<unsigned long long>(
                         standalone[s].checksum));
        same = false;
      }
    }
    std::fprintf(stderr,
                 "sessions=%-3zu threads=%zu concurrent %6.2fs  standalone "
                 "%6.2fs  checksums %s\n",
                 sessions, flags.num_threads, concurrent_s, standalone_s,
                 same ? "match" : "MISMATCH");
    checksums_ok = checksums_ok && same;
    if (sessions == flags.num_sessions) break;  // {1, N} may coincide
  }

  if (!checksums_ok) {
    std::fprintf(stderr,
                 "FAIL: a concurrent session diverged from its standalone "
                 "twin\n");
    return 1;
  }
  return 0;
}
