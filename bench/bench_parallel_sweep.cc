// Parallel-sweep scaling: RunSweep's point pipeline across thread
// counts, for both the naive baseline and the fingerprint-accelerated
// path. Every runner caller (RunPoint, RunSweep and the Optimizer's
// request batches) runs this one pipeline.
//
// Shape to reproduce: near-linear scaling for the naive sweep (points are
// embarrassingly parallel) and solid scaling for the fingerprint sweep's
// miss phase, while every thread count reports identical checksums — the
// "checksum" counter folds all output metrics bitwise, so any scheduling
// nondeterminism shows up as differing counter values between rows. The
// binary exits non-zero when any row's checksum differs from the 1-thread
// row of its mode (naive or fingerprint).

#include "bench_common.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "core/sim_runner.h"
#include "models/cloud_models.h"
#include "util/timer.h"

namespace {

using namespace jigsaw;
using bench::FullScale;
using bench::PaperConfig;

ParameterSpace SweepSpace() {
  ParameterSpace space;
  const double weeks = FullScale() ? 99 : 49;
  const double features = FullScale() ? 49 : 9;
  (void)space.Add({"week", RangeDomain{1, weeks, 1}});
  (void)space.Add({"feature", RangeDomain{0, features * 2, 2}});
  return space;  // full: 99*50 = 4950 points; scaled: 49*10 = 490
}

/// Order-sensitive bitwise fold of every metric the sweep produced.
double MetricsChecksum(const std::vector<PointResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  auto fold = [&h](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    h = (h ^ u) * 0x100000001b3ULL;
  };
  for (const auto& r : results) {
    fold(r.metrics.mean);
    fold(r.metrics.stddev);
    fold(r.metrics.p50);
    fold(r.metrics.p95);
    h = (h ^ static_cast<std::uint64_t>(r.reused)) * 0x100000001b3ULL;
  }
  // Expose as a double counter; keep 52 bits so the value is exact.
  return static_cast<double>(h >> 12);
}

/// Each mode's 1-thread checksum (keyed by use_fingerprints), and whether
/// any row has differed from its mode's. Arg(1) runs first in every
/// family, so the reference exists before the rows it checks.
std::map<bool, double> reference_checksums;
bool checksum_mismatch = false;

void SweepBench(benchmark::State& state, const char* name,
                bool use_fingerprints) {
  const auto model = MakeDemandModel({});
  BlackBoxSimFunction fn(model);
  const ParameterSpace space = SweepSpace();
  const auto threads = static_cast<std::size_t>(state.range(0));

  RunConfig cfg = PaperConfig();
  cfg.use_fingerprints = use_fingerprints;
  cfg.num_threads = threads;

  double checksum = 0.0;
  std::uint64_t reused = 0;
  for (auto _ : state) {
    SimulationRunner runner(cfg);
    WallTimer timer;
    const std::vector<PointResult> results = runner.RunSweep(fn, space);
    state.SetIterationTime(timer.ElapsedSeconds());
    checksum = MetricsChecksum(results);
    reused = runner.stats().points_reused;
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["points"] = static_cast<double>(space.NumPoints());
  state.counters["reused"] = static_cast<double>(reused);
  state.counters["checksum"] = checksum;
  if (threads == 1) reference_checksums.try_emplace(use_fingerprints, checksum);
  const auto ref = reference_checksums.find(use_fingerprints);
  if (ref != reference_checksums.end() && ref->second != checksum) {
    std::fprintf(stderr,
                 "checksum mismatch: %s/%zu reads %.17g, the 1-thread row "
                 "of its mode %.17g\n",
                 name, threads, checksum, ref->second);
    checksum_mismatch = true;
  }
}

void BM_NaiveSweep(benchmark::State& state) {
  SweepBench(state, "BM_NaiveSweep", false);
}
void BM_JigsawSweep(benchmark::State& state) {
  SweepBench(state, "BM_JigsawSweep", true);
}

BENCHMARK(BM_NaiveSweep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_JigsawSweep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return checksum_mismatch ? 1 : 0;
}
