// Interpreted vs compiled expression throughput (the PR-4 batch
// compiler). Three scenario shapes, each bound once and then executed
// through both expression paths:
//
//   arith    — parameter/literal arithmetic and CASE only: pure
//              interpretation overhead, the compiler's best case;
//   figure1  — the paper's Figure 1 projection (two cloud-model calls
//              plus an overload CASE over their aliases);
//   chain    — the Figure 5 CHAIN scenario on the naive chain runner
//              (per-instance state rides the compiled lane params).
//
// Phases:
//   column_eval — SampleBatch over every scenario column across a small
//                 parameter sweep (the core engine's fingerprint / full
//                 simulation hot loop);
//   montecarlo  — the SQL MONTECARLO statement end to end: both sides
//                 run pdb::FoldPointWorldSpans, one chunk task per cell,
//                 where each cell walks the interpreter world at a time
//                 or runs one BatchProgram over the chunk; threaded when
//                 --num_threads > 1;
//   chain       — RunChainScenario to a fixed target step;
//   chain_jump  — the path perfbench's chain_fig5 times: both Figure 5
//                 columns (release_week, demand) to week 52 on the
//                 Markov-jump runner, under 64 master seeds in turn
//                 (the jump runner's cost follows each seed's estimator
//                 mismatches).
//
// The interpreted side of every pair is the bound plan passed through
// UseInterpretedExpressions before it runs. Every row is a JSON-lines
// record on stdout; a human summary goes to stderr. All
// interpreted/compiled pairs are checksummed bitwise and the binary
// exits non-zero on any divergence — CI runs it as a smoke test of the
// compiled path's bit-identity contract.
//
// Flags: --num_samples=N --batch_size=N --num_threads=N (bench_common.h).

#include "bench_common.h"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "models/cloud_models.h"
#include "sql/binder.h"
#include "sql/chain_process.h"
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
  void Fold(std::span<const double> xs) {
    for (double x : xs) {
      std::uint64_t u;
      std::memcpy(&u, &x, sizeof u);
      h_ = (h_ ^ u) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void FoldMetrics(Checksum& sum, const OutputMetrics& m) {
  const double fields[] = {static_cast<double>(m.count),
                           m.mean,
                           m.stddev,
                           m.std_error,
                           m.min,
                           m.max,
                           m.p50,
                           m.p95};
  sum.Fold(fields);
}

struct RunResult {
  double elapsed_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t checksum = 0;
  bool ok = true;
};

constexpr const char* kArithScript = R"(
DECLARE PARAMETER @w AS RANGE 0 TO 40 STEP BY 1;
DECLARE PARAMETER @cap AS RANGE 0 TO 16 STEP BY 8;
SELECT @w * 1.5 + 3 AS demand,
       40 + @cap - @w / 2 AS capacity,
       CASE WHEN capacity < demand AND @w > 10 THEN 1 ELSE 0 END AS overload
INTO r;
MONTECARLO;
)";

constexpr const char* kFigure1Script = R"(
DECLARE PARAMETER @w AS RANGE 0 TO 40 STEP BY 1;
DECLARE PARAMETER @p1 AS RANGE 0 TO 16 STEP BY 8;
SELECT DemandModel(@w, 36) AS demand,
       CapacityModel(@w, @p1, 8) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO r;
MONTECARLO;
)";

constexpr const char* kChainScript = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
  FROM @current_week : @current_week - 1 INITIAL VALUE 52;
SELECT CASE WHEN demand > 26 AND @current_week + 4 < @release_week
            THEN @current_week + 4 ELSE @release_week END AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results;
)";

/// SampleBatch over every scenario column across a small sweep — the
/// shape of the core engine's fingerprint/full-sim loops.
RunResult DriveColumns(const sql::BoundScript& bound, const SeedVector& seeds,
                       std::size_t points, std::size_t samples_per_point,
                       std::size_t batch) {
  RunResult r;
  Checksum sum;
  std::vector<double> buf(samples_per_point);
  const std::size_t num_points = bound.scenario.params.NumPoints();
  WallTimer timer;
  for (std::size_t p = 0; p < points; ++p) {
    const auto valuation =
        bound.scenario.params.ValuationAt((p * 7) % num_points);
    for (const auto& col : bound.scenario.columns) {
      for (std::size_t i = 0; i < samples_per_point; i += batch) {
        const std::size_t len = std::min(batch, samples_per_point - i);
        col.fn->SampleBatch(valuation, i, seeds,
                            std::span<double>(buf.data() + i, len));
      }
      sum.Fold(buf);
      r.samples += samples_per_point;
    }
  }
  r.elapsed_s = timer.ElapsedSeconds();
  r.checksum = sum.value();
  return r;
}

/// The SQL MONTECARLO statement end to end.
RunResult DriveMonteCarlo(const ModelRegistry& registry,
                          const std::string& script, const BenchFlags& flags,
                          bool compiled) {
  RunConfig cfg;
  cfg.num_samples = flags.num_samples;
  cfg.num_threads = flags.num_threads;
  cfg.batch_size = flags.batch_size;
  sql::ScriptRunner runner(&registry, cfg);
  RunResult r;
  WallTimer timer;
  auto outcome = [&]() -> Result<sql::ScriptOutcome> {
    JIGSAW_ASSIGN_OR_RETURN(sql::BoundScript bound,
                            sql::ParseAndBind(script, registry));
    if (!compiled) sql::UseInterpretedExpressions(bound);
    return runner.RunBound(std::move(bound), {});
  }();
  r.elapsed_s = timer.ElapsedSeconds();
  if (!outcome.ok() || !outcome.value().montecarlo.has_value()) {
    std::fprintf(stderr, "montecarlo run failed: %s\n",
                 outcome.status().ToString().c_str());
    r.ok = false;
    return r;
  }
  Checksum sum;
  for (const auto& [name, m] : outcome.value().montecarlo->columns) {
    FoldMetrics(sum, m);
  }
  r.checksum = sum.value();
  r.samples = flags.num_samples * outcome.value().montecarlo->columns.size();
  return r;
}

/// The Figure 5 chain on the naive runner (every instance, every step).
RunResult DriveChain(const sql::BoundScript& bound, const BenchFlags& flags,
                     bool compiled, std::int64_t target) {
  RunConfig cfg;
  cfg.num_samples = flags.num_samples;
  cfg.batch_size = flags.batch_size;
  sql::BoundScript plan = bound;
  if (!compiled) sql::UseInterpretedExpressions(plan);
  RunResult r;
  WallTimer timer;
  auto metrics = sql::RunChainScenario(plan, "demand", target, cfg,
                                       /*use_jump=*/false);
  r.elapsed_s = timer.ElapsedSeconds();
  if (!metrics.ok()) {
    std::fprintf(stderr, "chain run failed: %s\n",
                 metrics.status().ToString().c_str());
    r.ok = false;
    return r;
  }
  Checksum sum;
  FoldMetrics(sum, metrics.value());
  r.checksum = sum.value();
  r.samples = flags.num_samples * static_cast<std::uint64_t>(target);
  return r;
}

/// Both Figure 5 columns to week 52 on the Markov-jump runner, once per
/// master seed of `seeds`; `samples` counts instance-steps.
RunResult DriveChainJump(const sql::BoundScript& bound,
                         const BenchFlags& flags, bool compiled,
                         std::size_t seeds) {
  constexpr std::int64_t kTargetWeek = 52;
  sql::BoundScript plan = bound;
  if (!compiled) sql::UseInterpretedExpressions(plan);
  RunResult r;
  Checksum sum;
  WallTimer timer;
  for (std::size_t variant = 0; variant < seeds; ++variant) {
    RunConfig cfg;
    cfg.num_samples = flags.num_samples;
    cfg.batch_size = flags.batch_size;
    cfg.master_seed = RunConfig{}.master_seed + variant;
    for (const char* column : {"release_week", "demand"}) {
      auto metrics =
          sql::RunChainScenario(plan, column, kTargetWeek, cfg, true);
      if (!metrics.ok()) {
        std::fprintf(stderr, "chain jump run failed: %s\n",
                     metrics.status().ToString().c_str());
        r.ok = false;
        return r;
      }
      FoldMetrics(sum, metrics.value());
      r.samples +=
          flags.num_samples * static_cast<std::uint64_t>(kTargetWeek);
    }
  }
  r.elapsed_s = timer.ElapsedSeconds();
  r.checksum = sum.value();
  return r;
}

void EmitRow(const std::string& phase, const std::string& scenario,
             const std::string& mode, const BenchFlags& flags,
             const RunResult& r) {
  JsonLineBuilder row;
  row.Str("bench", "expr_compile")
      .Str("phase", phase)
      .Str("scenario", scenario)
      .Str("mode", mode)
      .Num("num_samples", static_cast<double>(flags.num_samples))
      .Num("batch_size", static_cast<double>(flags.batch_size))
      .Num("num_threads", static_cast<double>(flags.num_threads))
      .Num("elapsed_s", r.elapsed_s)
      .Num("samples_per_sec",
           r.elapsed_s > 0.0 ? static_cast<double>(r.samples) / r.elapsed_s
                             : 0.0)
      .Num("checksum", static_cast<double>(r.checksum >> 12));
  EmitJsonLine(std::cout, row);
}

bool Compare(const std::string& phase, const std::string& scenario,
             const RunResult& interpreted, const RunResult& compiled) {
  const bool same = interpreted.ok && compiled.ok &&
                    interpreted.checksum == compiled.checksum;
  const double speedup = compiled.elapsed_s > 0.0
                             ? interpreted.elapsed_s / compiled.elapsed_s
                             : 0.0;
  std::fprintf(stderr, "%-12s %-10s speedup %5.2fx  checksums %s\n",
               phase.c_str(), scenario.c_str(), speedup,
               same ? "match" : "MISMATCH");
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = bench::ParseBenchFlags(&argc, argv);
  if (flags.batch_size == 0) flags.batch_size = 1;
  const std::size_t points = bench::FullScale() ? 200 : 40;
  const std::int64_t chain_target = bench::FullScale() ? 45 : 20;

  ModelRegistry registry;
  if (auto s = RegisterCloudModels(&registry); !s.ok()) {
    std::fprintf(stderr, "model registration failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  bool checksums_ok = true;

  // -- column_eval ---------------------------------------------------------
  for (const auto& [name, script] :
       std::vector<std::pair<std::string, const char*>>{
           {"arith", kArithScript}, {"figure1", kFigure1Script}}) {
    auto bound = sql::ParseAndBind(script, registry);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind failed (%s): %s\n", name.c_str(),
                   bound.status().ToString().c_str());
      return 2;
    }
    if (!bound.value().program->compiled()) {
      std::fprintf(stderr, "scenario %s did not compile: %s\n", name.c_str(),
                   bound.value().program->batch_fallback_reason.c_str());
      return 2;
    }
    sql::BoundScript interpreted = bound.value();
    sql::UseInterpretedExpressions(interpreted);
    const SeedVector seeds(RunConfig{}.master_seed, flags.num_samples);

    const RunResult slow = DriveColumns(interpreted, seeds, points,
                                        flags.num_samples, flags.batch_size);
    const RunResult fast = DriveColumns(bound.value(), seeds, points,
                                        flags.num_samples, flags.batch_size);
    EmitRow("column_eval", name, "interpreted", flags, slow);
    EmitRow("column_eval", name, "compiled", flags, fast);
    checksums_ok = Compare("column_eval", name, slow, fast) && checksums_ok;

    // -- montecarlo --------------------------------------------------------
    const RunResult mc_slow =
        DriveMonteCarlo(registry, script, flags, /*compiled=*/false);
    const RunResult mc_fast =
        DriveMonteCarlo(registry, script, flags, /*compiled=*/true);
    EmitRow("montecarlo", name, "interpreted", flags, mc_slow);
    EmitRow("montecarlo", name, "compiled", flags, mc_fast);
    checksums_ok =
        Compare("montecarlo", name, mc_slow, mc_fast) && checksums_ok;
  }

  // -- chain ---------------------------------------------------------------
  {
    auto bound = sql::ParseAndBind(kChainScript, registry);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind failed (chain): %s\n",
                   bound.status().ToString().c_str());
      return 2;
    }
    const RunResult slow =
        DriveChain(bound.value(), flags, /*compiled=*/false, chain_target);
    const RunResult fast =
        DriveChain(bound.value(), flags, /*compiled=*/true, chain_target);
    EmitRow("chain", "figure5", "interpreted", flags, slow);
    EmitRow("chain", "figure5", "compiled", flags, fast);
    checksums_ok = Compare("chain", "figure5", slow, fast) && checksums_ok;

    constexpr std::size_t kJumpSeeds = 64;
    const RunResult jump_slow = DriveChainJump(
        bound.value(), flags, /*compiled=*/false, kJumpSeeds);
    const RunResult jump_fast = DriveChainJump(
        bound.value(), flags, /*compiled=*/true, kJumpSeeds);
    EmitRow("chain_jump", "figure5", "interpreted", flags, jump_slow);
    EmitRow("chain_jump", "figure5", "compiled", flags, jump_fast);
    checksums_ok = Compare("chain_jump", "figure5", jump_slow, jump_fast) &&
                   checksums_ok;
  }

  if (!checksums_ok) {
    std::fprintf(stderr,
                 "FAIL: compiled expressions diverged from interpreter\n");
    return 1;
  }
  return 0;
}
