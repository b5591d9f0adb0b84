// Figure 8 (bar chart): "Jigsaw vs fully exploring the parameter space."
//
// Paper result: full evaluation takes minutes (bars up to ~27 min);
// Jigsaw's fingerprint reuse reduces Usage (the Demand model), Capacity
// and MarkovStep to a few percent of that (annotated 0.06 / 0.15 / 0.36
// min), while Overload — whose boolean output destroys the linear
// structure — improves by only about 2x.
//
// Shape to reproduce: speedup >> 10x for Demand/Capacity/MarkovStep,
// ~2x (and clearly the smallest) for Overload. The "speedup" counter of
// each Jigsaw row is measured against its Full counterpart; "bases"
// reports how many basis distributions the sweep needed.

#include "bench_common.h"

#include "util/timer.h"

#include "core/sim_runner.h"
#include "markov/chain_runner.h"
#include "markov/markov_models.h"
#include "models/cloud_models.h"

namespace {

using namespace jigsaw;
using bench::FullScale;
using bench::PaperConfig;

// Parameter spaces mirroring the paper's point counts, scaled down by
// default ("Demand ~5000 points, Capacity ~8000 points, MarkovStep
// ~2500 steps").
ParameterSpace DemandSpace() {
  ParameterSpace space;
  const double weeks = FullScale() ? 99 : 49;     // x (feature count) below
  const double features = FullScale() ? 49 : 19;
  (void)space.Add({"week", RangeDomain{1, weeks, 1}});
  (void)space.Add({"feature", RangeDomain{0, features * 2, 2}});
  return space;  // full: 99*50 = 4950 points; scaled: 49*20 = 980
}

ParameterSpace CapacitySpace() {
  ParameterSpace space;
  const double weeks = FullScale() ? 51 : 25;
  (void)space.Add({"week", RangeDomain{0, weeks, 1}});
  (void)space.Add({"p1", RangeDomain{0, 48, 4}});
  (void)space.Add({"p2", RangeDomain{0, 48, 4}});
  return space;  // full: 52*13*13 = 8788; scaled: 26*13*13 = 4394
}

std::int64_t MarkovSteps() { return FullScale() ? 2500 : 600; }

double RunSweep(const SimFunction& fn, const ParameterSpace& space,
                bool use_fingerprints, std::size_t* bases,
                std::uint64_t* invocations) {
  RunConfig cfg = PaperConfig();
  cfg.use_fingerprints = use_fingerprints;
  SimulationRunner runner(cfg);
  WallTimer timer;
  runner.RunSweep(fn, space);
  const double secs = timer.ElapsedSeconds();
  if (bases != nullptr) *bases = runner.basis_store().size();
  if (invocations != nullptr) {
    *invocations = runner.stats().blackbox_invocations;
  }
  return secs;
}

void SweepBench(benchmark::State& state, const BlackBoxPtr& model,
                const ParameterSpace& space, bool jigsaw) {
  BlackBoxSimFunction fn(model);
  std::size_t bases = 0;
  std::uint64_t invocations = 0;
  for (auto _ : state) {
    const double secs = RunSweep(fn, space, jigsaw, &bases, &invocations);
    state.SetIterationTime(secs);
  }
  state.counters["points"] = static_cast<double>(space.NumPoints());
  state.counters["bases"] = static_cast<double>(bases);
  state.counters["invocations"] = static_cast<double>(invocations);
}

void BM_Full_Usage(benchmark::State& state) {
  SweepBench(state, MakeDemandModel({}), DemandSpace(), false);
}
void BM_Jigsaw_Usage(benchmark::State& state) {
  SweepBench(state, MakeDemandModel({}), DemandSpace(), true);
}
void BM_Full_Capacity(benchmark::State& state) {
  SweepBench(state, MakeCapacityModel({}), CapacitySpace(), false);
}
void BM_Jigsaw_Capacity(benchmark::State& state) {
  SweepBench(state, MakeCapacityModel({}), CapacitySpace(), true);
}
// Overload is swept across the demand/capacity crossing (weeks ~30-55
// with the default 40-core base), where its boolean output varies: the
// region where fingerprint remapping cannot help.
ParameterSpace OverloadSpace() {
  ParameterSpace space;
  (void)space.Add({"week", RangeDomain{30, FullScale() ? 81.0 : 55.0, 1}});
  (void)space.Add({"p1", RangeDomain{28, 52, 2}});
  (void)space.Add({"p2", RangeDomain{28, 52, 2}});
  return space;
}

void BM_Full_Overload(benchmark::State& state) {
  SweepBench(state, MakeOverloadModel({}), OverloadSpace(), false);
}
void BM_Jigsaw_Overload(benchmark::State& state) {
  SweepBench(state, MakeOverloadModel({}), OverloadSpace(), true);
}
void BM_Full_MarkovStep(benchmark::State& state) {
  MarkovStepProcess process((MarkovStepConfig()));
  const RunConfig cfg = PaperConfig();
  for (auto _ : state) {
    NaiveChainRunner runner(cfg);
    WallTimer timer;
    benchmark::DoNotOptimize(runner.Run(process, MarkovSteps()));
    state.SetIterationTime(timer.ElapsedSeconds());
  }
  state.counters["steps"] = static_cast<double>(MarkovSteps());
}

void BM_Jigsaw_MarkovStep(benchmark::State& state) {
  MarkovStepProcess process((MarkovStepConfig()));
  const RunConfig cfg = PaperConfig();
  std::uint64_t honest = 0;
  for (auto _ : state) {
    MarkovJumpRunner runner(cfg);
    WallTimer timer;
    const auto result = runner.Run(process, MarkovSteps());
    state.SetIterationTime(timer.ElapsedSeconds());
    honest = result.stats.step_invocations;
  }
  state.counters["steps"] = static_cast<double>(MarkovSteps());
  state.counters["honest_step_invocations"] = static_cast<double>(honest);
}

BENCHMARK(BM_Full_Usage)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Jigsaw_Usage)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Full_Capacity)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Jigsaw_Capacity)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Full_Overload)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Jigsaw_Overload)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Full_MarkovStep)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
BENCHMARK(BM_Jigsaw_MarkovStep)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
