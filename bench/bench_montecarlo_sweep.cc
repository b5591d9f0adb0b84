// MONTECARLO OVER @p scaling: how the two-axis (points x worlds) fan-out
// behaves as the point count grows, on both expression paths.
//
// For each point count the sweep statement runs three ways:
//
//   standalone — N standalone MONTECARLO statements, serial: the
//                semantics the sweep must reproduce bit-for-bit;
//   serial     — MONTECARLO OVER with num_threads=1;
//   parallel   — MONTECARLO OVER with --num_threads workers (every
//                (point, world-chunk) cell is one pool task).
//
// The interpreted runs execute the bound plan passed through
// UseInterpretedExpressions. Every run's per-point metrics are folded
// into a bitwise checksum; the binary exits non-zero if any of the three
// diverge — CI smoke-runs it threaded as the machine check of the sweep
// determinism contract.
//
// Every row is a JSON-lines record on stdout; a human summary goes to
// stderr. Flags: --num_samples=N --batch_size=N --num_threads=N
// (bench_common.h).

#include "bench_common.h"

#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "models/cloud_models.h"
#include "sql/binder.h"
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
  void FoldMetrics(const OutputMetrics& m) {
    const double fields[] = {static_cast<double>(m.count),
                             m.mean,
                             m.stddev,
                             m.std_error,
                             m.min,
                             m.max,
                             m.p50,
                             m.p95};
    for (double x : fields) {
      std::uint64_t u;
      std::memcpy(&u, &x, sizeof u);
      h_ = (h_ ^ u) * 0x100000001b3ULL;
    }
  }
  void FoldColumns(const std::map<std::string, OutputMetrics>& columns) {
    for (const auto& [name, m] : columns) FoldMetrics(m);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

constexpr const char* kScenario = R"(
DECLARE PARAMETER @w AS RANGE 0 TO 63 STEP BY 1;
SELECT DemandModel(@w, 36) AS demand,
       CapacityModel(@w, 8, 8) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO r;
)";

std::string SweepStatement(std::size_t points) {
  std::string in;
  for (std::size_t i = 0; i < points; ++i) {
    in += (in.empty() ? "" : ", ") + std::to_string(i);
  }
  return std::string(kScenario) + "MONTECARLO OVER @w IN (" + in + ");";
}

struct RunResult {
  double elapsed_s = 0.0;
  std::uint64_t cells = 0;  ///< points x worlds evaluated
  std::uint64_t checksum = 0;
  bool ok = true;
};

RunConfig MakeConfig(const BenchFlags& flags, std::size_t threads) {
  RunConfig cfg;
  cfg.num_samples = flags.num_samples;
  cfg.num_threads = threads;
  cfg.batch_size = flags.batch_size;
  return cfg;
}

/// Parses, binds and runs `text` on the compiled plan or on its
/// interpreted twin.
Result<sql::ScriptOutcome> RunScript(
    const ModelRegistry& registry, sql::ScriptRunner& runner,
    const std::string& text, bool compiled,
    const std::vector<std::pair<std::string, double>>& overrides = {}) {
  JIGSAW_ASSIGN_OR_RETURN(sql::BoundScript bound,
                          sql::ParseAndBind(text, registry));
  if (!compiled) sql::UseInterpretedExpressions(bound);
  return runner.RunBound(std::move(bound), overrides);
}

/// N standalone MONTECARLO statements, serial — the reference semantics.
RunResult DriveStandalone(const ModelRegistry& registry,
                          const BenchFlags& flags, bool compiled,
                          std::size_t points) {
  sql::ScriptRunner runner(&registry, MakeConfig(flags, 1));
  const std::string script = std::string(kScenario) + "MONTECARLO;";
  RunResult r;
  Checksum sum;
  WallTimer timer;
  for (std::size_t p = 0; p < points; ++p) {
    auto outcome = RunScript(registry, runner, script, compiled,
                             {{"w", static_cast<double>(p)}});
    if (!outcome.ok() || !outcome.value().montecarlo.has_value()) {
      std::fprintf(stderr, "standalone run failed: %s\n",
                   outcome.status().ToString().c_str());
      r.ok = false;
      return r;
    }
    sum.FoldColumns(outcome.value().montecarlo->columns);
    r.cells += flags.num_samples;
  }
  r.elapsed_s = timer.ElapsedSeconds();
  r.checksum = sum.value();
  return r;
}

/// The sweep statement at a given thread count.
RunResult DriveSweep(const ModelRegistry& registry, const BenchFlags& flags,
                     bool compiled, std::size_t points,
                     std::size_t threads) {
  sql::ScriptRunner runner(&registry, MakeConfig(flags, threads));
  RunResult r;
  WallTimer timer;
  auto outcome =
      RunScript(registry, runner, SweepStatement(points), compiled);
  r.elapsed_s = timer.ElapsedSeconds();
  if (!outcome.ok()) {
    std::fprintf(stderr, "sweep run failed: %s\n",
                 outcome.status().ToString().c_str());
    r.ok = false;
    return r;
  }
  const std::size_t got = outcome.value().montecarlo.has_value()
                              ? outcome.value().montecarlo->points.size()
                              : 0;
  if (got != points) {
    std::fprintf(stderr, "sweep produced %zu point(s), expected %zu\n",
                 got, points);
    r.ok = false;
    return r;
  }
  Checksum sum;
  for (const auto& point : outcome.value().montecarlo->points) {
    sum.FoldColumns(point.columns);
    r.cells += flags.num_samples;
  }
  r.checksum = sum.value();
  return r;
}

void EmitRow(const std::string& mode, bool compiled, std::size_t points,
             std::size_t threads, const BenchFlags& flags,
             const RunResult& r) {
  JsonLineBuilder row;
  row.Str("bench", "montecarlo_sweep")
      .Str("mode", mode)
      .Str("exprs", compiled ? "compiled" : "interpreted")
      .Num("points", static_cast<double>(points))
      .Num("worlds", static_cast<double>(flags.num_samples))
      .Num("batch_size", static_cast<double>(flags.batch_size))
      .Num("num_threads", static_cast<double>(threads))
      .Num("elapsed_s", r.elapsed_s)
      .Num("cells_per_sec",
           r.elapsed_s > 0.0 ? static_cast<double>(r.cells) / r.elapsed_s
                             : 0.0)
      .Num("checksum", static_cast<double>(r.checksum >> 12));
  EmitJsonLine(std::cout, row);
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = bench::ParseBenchFlags(&argc, argv);
  if (flags.batch_size == 0) flags.batch_size = 1;
  if (flags.num_threads == 0) flags.num_threads = 1;
  const std::vector<std::size_t> point_counts =
      bench::FullScale() ? std::vector<std::size_t>{1, 4, 16, 64}
                         : std::vector<std::size_t>{1, 4, 16};

  ModelRegistry registry;
  if (auto s = RegisterCloudModels(&registry); !s.ok()) {
    std::fprintf(stderr, "model registration failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  bool checksums_ok = true;
  for (bool compiled : {false, true}) {
    for (std::size_t points : point_counts) {
      const RunResult standalone =
          DriveStandalone(registry, flags, compiled, points);
      const RunResult serial =
          DriveSweep(registry, flags, compiled, points, 1);
      const RunResult parallel =
          DriveSweep(registry, flags, compiled, points, flags.num_threads);
      EmitRow("standalone", compiled, points, 1, flags, standalone);
      EmitRow("serial", compiled, points, 1, flags, serial);
      EmitRow("parallel", compiled, points, flags.num_threads, flags,
              parallel);

      const bool same = standalone.ok && serial.ok && parallel.ok &&
                        standalone.checksum == serial.checksum &&
                        serial.checksum == parallel.checksum;
      const double speedup = parallel.elapsed_s > 0.0
                                 ? serial.elapsed_s / parallel.elapsed_s
                                 : 0.0;
      std::fprintf(stderr,
                   "%-11s points=%-3zu sweep/standalone %5.2fx  "
                   "parallel(%zu) %5.2fx  checksums %s\n",
                   compiled ? "compiled" : "interpreted", points,
                   serial.elapsed_s > 0.0
                       ? standalone.elapsed_s / serial.elapsed_s
                       : 0.0,
                   flags.num_threads, speedup, same ? "match" : "MISMATCH");
      checksums_ok = checksums_ok && same;
    }
  }

  if (!checksums_ok) {
    std::fprintf(stderr,
                 "FAIL: sweep diverged from standalone/serial reference\n");
    return 1;
  }
  return 0;
}
