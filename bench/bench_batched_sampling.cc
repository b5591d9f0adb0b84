// Scalar-vs-batched throughput for the SampleBatch engine.
//
// Two workloads per model, each run once through the legacy scalar path
// (per-sample virtual Sample calls, forced via a wrapper that hides the
// model's batch kernel) and once through the batched path (SampleBatch
// over batch_size chunks):
//
//   fingerprint — many points, the first m seeded samples each (the
//                 ComputeFingerprint hot loop);
//   full_sim    — few points, all num_samples samples each (the miss
//                 simulation hot loop).
//
// Models cover both kernel classes: DemandModel and UserSelectionModel
// have native batch kernels (cloud_models.cc); "ScalarMix" is a
// CallableBlackBox with no EvalBatch override, so its batch path is the
// scalar-fallback loop — the speedup it shows is pure call-overhead
// elimination.
//
// Every row is emitted as a JSON-lines record on stdout (BENCH_*.json
// trajectories); a human summary goes to stderr. A row repeats its timed
// work until the repetitions cover at least 50 ms and reports the median
// repetition (one pass of most rows takes under a millisecond). The
// binary exits non-zero if any checksum pair disagrees, or a repetition's
// checksum differs from the first — it doubles as a bit-identity smoke
// test in CI.
//
// A "max_lognormal" phase times RandomStream::MaxLogNormal against the
// plain draw loop it must reproduce (peak = max(peak, LogNormal(0, s)),
// `depth` times per slot) over 8192 slots at s in {0.3, 2} and depth in
// {1, 2, 4, 16, 64}, reports ns per draw, and exits non-zero if any peak
// or the stream's next word differs between the two.
//
// A "finalize" phase times one column's Estimator fold and Finalize the
// way FoldWorldCells runs it, over 64-value parts: "copied" reserves the
// buffer and copies each part in (AddSpan), "borrowed" reads the parts
// where they lie (AddBorrowed). It runs n in {1000, the radix select's
// cutoff, 1048576} over four kinds of values (MaxLogNormal(2, 16) peaks,
// uniform, two-valued, one-valued), reports ns per value, and exits
// non-zero if the two modes' metrics differ in any field, histogram
// included.
//
// A "stream_seeds" phase times DeriveStreamSeeds, the batch kernels'
// one-pass derivation of a span's per-sample stream seeds, against the
// scalar DeriveStreamSeed loop it must reproduce, over 64-sample spans
// (the default batch) at 1024 call sites, reports ns per seed, and exits
// non-zero if any word differs.
//
// Flags: --num_samples=N --batch_size=N --num_threads=N (bench_common.h).
// With --num_threads > 1 each workload additionally runs a "threaded"
// mode that fans SampleBatch chunks out on a ThreadPool, and a "worlds"
// phase drives pdb::FoldWorlds' possible-worlds chunk fan-out
// serial-vs-parallel, each checked bitwise against its serial twin.
// Point-sweep thread scaling remains bench_parallel_sweep's job.

#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "core/metrics.h"
#include "core/sim_function.h"
#include "models/cloud_models.h"
#include "pdb/expr.h"
#include "pdb/monte_carlo.h"
#include "pdb/operators.h"
#include "random/philox.h"
#include "random/random_stream.h"
#include "random/seed_vector.h"
#include "util/histogram.h"
#include "util/math_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace jigsaw;
using bench::BenchFlags;
using bench::EmitJsonLine;
using bench::JsonLineBuilder;

/// Forces the legacy scalar path: only Sample is forwarded, so the
/// inherited SampleBatch default loops over per-sample virtual calls —
/// exactly the pre-batching hot loop.
class ScalarizedSimFunction : public SimFunction {
 public:
  explicit ScalarizedSimFunction(const SimFunction& inner) : inner_(inner) {}

  const std::string& label() const override { return inner_.label(); }

  double Sample(std::span<const double> params, std::size_t sample_id,
                const SeedVector& seeds) const override {
    return inner_.Sample(params, sample_id, seeds);
  }

 private:
  const SimFunction& inner_;
};

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

struct Workload {
  std::string model;
  SimFunctionPtr fn;
  std::vector<double> (*params_for)(std::size_t point);
};

struct RunResult {
  double elapsed_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t checksum = 0;
  bool repeatable = true;  // every repetition folded the same checksum
};

/// Runs `run` until its repetitions' timed work covers at least 50 ms and
/// returns the first repetition's counts with the median repetition's
/// time.
template <typename Run>
RunResult Repeat(const Run& run) {
  constexpr double kMinTimedSeconds = 0.05;
  RunResult first = run();
  std::vector<double> times = {first.elapsed_s};
  double total = first.elapsed_s;
  while (total < kMinTimedSeconds) {
    const RunResult again = run();
    first.repeatable = first.repeatable && again.repeatable &&
                       again.checksum == first.checksum &&
                       again.samples == first.samples;
    times.push_back(again.elapsed_s);
    total += again.elapsed_s;
  }
  std::sort(times.begin(), times.end());
  const std::size_t n = times.size();
  first.elapsed_s =
      n % 2 == 1 ? times[n / 2] : 0.5 * (times[n / 2 - 1] + times[n / 2]);
  return first;
}

/// Evaluates samples [0, samples_per_point) of `points` parameter points
/// through SampleBatch chunks of `batch`, folding a checksum.
RunResult Drive(const SimFunction& fn, const Workload& w,
                const SeedVector& seeds, std::size_t points,
                std::size_t samples_per_point, std::size_t batch) {
  RunResult r;
  Checksum sum;
  std::vector<double> buf(samples_per_point);
  WallTimer timer;
  for (std::size_t p = 0; p < points; ++p) {
    const std::vector<double> params = w.params_for(p);
    for (std::size_t i = 0; i < samples_per_point; i += batch) {
      const std::size_t len = std::min(batch, samples_per_point - i);
      fn.SampleBatch(params, i, seeds,
                     std::span<double>(buf.data() + i, len));
    }
    sum.Fold(buf);
  }
  r.elapsed_s = timer.ElapsedSeconds();
  r.samples = static_cast<std::uint64_t>(points) * samples_per_point;
  r.checksum = sum.value();
  return r;
}

/// Threaded twin of Drive: the per-point sample range fans out across
/// `pool` in batch-sized chunks written to disjoint subspans —
/// SampleRange's chunks, run in parallel — and the checksum folds each
/// point's buffer after the barrier, so it must match the scalar run
/// bitwise.
RunResult DriveThreaded(const SimFunction& fn, const Workload& w,
                        const SeedVector& seeds, std::size_t points,
                        std::size_t samples_per_point, std::size_t batch,
                        ThreadPool& pool) {
  RunResult r;
  Checksum sum;
  std::vector<double> buf(samples_per_point);
  WallTimer timer;
  const std::size_t chunks = (samples_per_point + batch - 1) / batch;
  for (std::size_t p = 0; p < points; ++p) {
    const std::vector<double> params = w.params_for(p);
    pool.ParallelFor(chunks, [&](std::size_t c) {
      const std::size_t i = c * batch;
      const std::size_t len = std::min(batch, samples_per_point - i);
      fn.SampleBatch(params, i, seeds,
                     std::span<double>(buf.data() + i, len));
    });
    sum.Fold(buf);
  }
  r.elapsed_s = timer.ElapsedSeconds();
  r.samples = static_cast<std::uint64_t>(points) * samples_per_point;
  r.checksum = sum.value();
  return r;
}

/// Folds every field of `m` into `sum`: the moments, extremes and
/// quantiles, the histogram's range, bin counts and dropped count, and
/// the kept samples.
void FoldMetrics(const OutputMetrics& m, Checksum& sum) {
  const double fields[] = {static_cast<double>(m.count), m.mean, m.stddev,
                           m.std_error, m.min,           m.max,  m.p50,
                           m.p95};
  sum.Fold(fields);
  if (m.histogram) {
    const Histogram& h = *m.histogram;
    std::vector<double> histogram = {h.lo(), h.hi(),
                                     static_cast<double>(h.dropped_count())};
    for (int i = 0; i < h.num_bins(); ++i) {
      histogram.push_back(static_cast<double>(h.bin_count(i)));
    }
    sum.Fold(histogram);
  }
  sum.Fold(m.samples);
}

/// Order-sensitive bitwise fold over a Monte Carlo result's per-column
/// summaries (columns iterate in name order; map is sorted).
std::uint64_t MetricsChecksum(
    const std::map<std::string, OutputMetrics>& columns) {
  Checksum sum;
  for (const auto& [name, m] : columns) FoldMetrics(m, sum);
  return sum.value();
}

/// Drives pdb::FoldWorlds' possible-worlds fan-out: a one-column
/// stochastic plan, built fresh per world, over `worlds` sampled worlds.
RunResult DriveWorlds(std::size_t worlds, std::size_t threads,
                      std::size_t batch) {
  RunConfig cfg;
  cfg.num_samples = worlds;
  cfg.batch_size = batch;
  const SeedVector seeds(cfg.master_seed, worlds);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const auto model = MakeDemandModel({});
  const std::vector<double> params = {25.0};
  auto run_world = [&](std::size_t world) -> jigsaw::Result<pdb::Table> {
    pdb::PlanNodePtr plan = pdb::MakeProject(
        pdb::MakeDualScan(),
        {pdb::MakeModelCall(model,
                            {pdb::MakeParamRef(0, "week"),
                             pdb::MakeLiteral(pdb::Value(52.0))},
                            1)},
        {"demand"});
    pdb::EvalContext ctx;
    ctx.params = params;
    ctx.sample_id = world;
    ctx.seeds = &seeds;
    return pdb::ExecuteToTable(*plan, ctx);
  };
  RunResult r;
  WallTimer timer;
  auto result = pdb::FoldWorlds(worlds, cfg, pool.get(), run_world);
  r.elapsed_s = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "worlds run failed: %s\n",
                 result.status().ToString().c_str());
    return r;
  }
  r.samples = worlds;
  r.checksum = MetricsChecksum(result.value());
  return r;
}

/// One pass of the max_lognormal phase: `slots` peaks of `depth`
/// LogNormal(0, sigma) draws each, through RandomStream::MaxLogNormal or
/// the plain loop it must reproduce, from the same stream. Leaves the
/// peaks and the stream's next word for the caller to compare.
RunResult DrivePeaks(bool kernel, double sigma, int depth,
                     std::vector<double>& peaks, std::uint64_t& next_word) {
  RandomStream rng(RunConfig{}.master_seed);
  RunResult r;
  WallTimer timer;
  if (kernel) {
    rng.MaxLogNormal(sigma, depth, peaks);
  } else {
    for (double& peak : peaks) {
      peak = 0.0;
      for (int d = 0; d < depth; ++d) {
        peak = std::max(peak, rng.LogNormal(0.0, sigma));
      }
    }
  }
  r.elapsed_s = timer.ElapsedSeconds();
  r.samples = static_cast<std::uint64_t>(peaks.size()) *
              static_cast<std::uint64_t>(depth);
  Checksum sum;
  sum.Fold(peaks);
  r.checksum = sum.value();
  next_word = rng.NextUint64();
  return r;
}

/// One pass of the stream_seeds phase: the stream seeds of `sigmas` at
/// `sites` call sites, derived in one pass per span or one DeriveStreamSeed
/// call per sample, into `out` (sites x sigmas.size() words).
RunResult DriveStreamSeeds(bool batch, SeedSpan sigmas, std::size_t sites,
                           std::vector<std::uint64_t>& out) {
  const std::size_t n = sigmas.size();
  RunResult r;
  WallTimer timer;
  for (std::size_t site = 0; site < sites; ++site) {
    const std::span<std::uint64_t> words(out.data() + site * n, n);
    if (batch) {
      DeriveStreamSeeds(sigmas, site, words);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        words[i] = DeriveStreamSeed(sigmas[i], site);
      }
    }
  }
  r.elapsed_s = timer.ElapsedSeconds();
  r.samples = static_cast<std::uint64_t>(sites * n);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : out) h = (h ^ w) * 0x100000001b3ULL;
  r.checksum = h;
  return r;
}

/// `n` values of one kind for the finalize phase.
std::vector<double> FinalizeValues(const std::string& kind, std::size_t n) {
  std::vector<double> xs(n);
  RandomStream rng(RunConfig{}.master_seed);
  if (kind == "lognormal_peaks") {
    rng.MaxLogNormal(2.0, 16, xs);
  } else if (kind == "uniform") {
    for (double& x : xs) x = rng.Uniform(0.8, 1.2);
  } else if (kind == "two_valued") {
    for (double& x : xs) x = (rng.NextUint64() & 1) != 0 ? 1.0 : 0.0;
  } else {
    std::fill(xs.begin(), xs.end(), 2.5);
  }
  return xs;
}

/// One pass of the finalize phase: folds `xs` from 64-value parts into
/// a fresh Estimator, copied or borrowed, and finalizes it.
RunResult DriveFinalize(bool borrowed, std::span<const double> xs) {
  constexpr std::size_t kPart = 64;
  RunResult r;
  WallTimer timer;
  Estimator est;
  if (!borrowed) est.Reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); i += kPart) {
    const auto part = xs.subspan(i, std::min(kPart, xs.size() - i));
    if (borrowed) {
      est.AddBorrowed(part);
    } else {
      est.AddSpan(part);
    }
  }
  const OutputMetrics m = std::move(est).Finalize();
  r.elapsed_s = timer.ElapsedSeconds();
  r.samples = xs.size();
  Checksum sum;
  FoldMetrics(m, sum);
  r.checksum = sum.value();
  return r;
}

void EmitFinalizeRow(const char* mode, const std::string& kind,
                     std::size_t n, const RunResult& r) {
  JsonLineBuilder row;
  row.Str("bench", "finalize")
      .Str("mode", mode)
      .Str("values", kind)
      .Num("n", static_cast<double>(n))
      .Num("elapsed_s", r.elapsed_s)
      .Num("ns_per_value", 1e9 * r.elapsed_s / static_cast<double>(n))
      .Num("checksum", static_cast<double>(r.checksum >> 12));
  EmitJsonLine(std::cout, row);
}

void EmitStreamSeedRow(const char* mode, std::size_t n, std::size_t sites,
                       const RunResult& r) {
  JsonLineBuilder row;
  row.Str("bench", "stream_seeds")
      .Str("mode", mode)
      .Num("n", static_cast<double>(n))
      .Num("sites", static_cast<double>(sites))
      .Num("elapsed_s", r.elapsed_s)
      .Num("ns_per_seed",
           1e9 * r.elapsed_s / static_cast<double>(r.samples))
      .Num("checksum", static_cast<double>(r.checksum >> 12));
  EmitJsonLine(std::cout, row);
}

void EmitPeakRow(const char* mode, double sigma, int depth,
                 std::size_t slots, const RunResult& r) {
  JsonLineBuilder row;
  row.Str("bench", "max_lognormal")
      .Str("mode", mode)
      .Num("sigma", sigma)
      .Num("depth", depth)
      .Num("slots", static_cast<double>(slots))
      .Num("elapsed_s", r.elapsed_s)
      .Num("ns_per_draw",
           r.samples > 0 ? 1e9 * r.elapsed_s / static_cast<double>(r.samples)
                         : 0.0)
      .Num("checksum", static_cast<double>(r.checksum >> 12));
  EmitJsonLine(std::cout, row);
}

void EmitRow(const std::string& bench, const std::string& model,
             const std::string& mode, const BenchFlags& flags,
             std::size_t points, std::size_t samples_per_point,
             const RunResult& r) {
  JsonLineBuilder row;
  row.Str("bench", bench)
      .Str("model", model)
      .Str("mode", mode)
      .Num("points", static_cast<double>(points))
      .Num("samples_per_point", static_cast<double>(samples_per_point))
      .Num("batch_size", static_cast<double>(flags.batch_size))
      .Num("num_threads", static_cast<double>(flags.num_threads))
      .Num("elapsed_s", r.elapsed_s)
      .Num("samples_per_sec",
           r.elapsed_s > 0.0 ? static_cast<double>(r.samples) / r.elapsed_s
                             : 0.0)
      .Num("checksum", static_cast<double>(r.checksum >> 12));
  EmitJsonLine(std::cout, row);
}

std::vector<double> DemandParams(std::size_t p) {
  return {1.0 + static_cast<double>(p % 50),
          2.0 * static_cast<double>(p % 10)};
}

std::vector<double> WeekParam(std::size_t p) {
  return {1.0 + static_cast<double>(p % 50)};
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = bench::ParseBenchFlags(&argc, argv);
  if (flags.batch_size == 0) flags.batch_size = 1;
  const std::size_t m = 10;  // fingerprint size (paper setup)
  if (flags.num_samples < m) {
    std::fprintf(stderr, "error: --num_samples must be >= %zu\n", m);
    return 2;
  }
  const std::size_t fp_points = bench::FullScale() ? 5000 : 500;
  const std::size_t sim_points = bench::FullScale() ? 50 : 8;

  const SeedVector seeds(RunConfig{}.master_seed, flags.num_samples);

  CloudModelConfig user_cfg;
  user_cfg.num_users = 200;   // keep the data-bound model tractable
  user_cfg.user_sim_depth = 4;

  const auto demand =
      std::make_shared<BlackBoxSimFunction>(MakeDemandModel({}));
  const auto users =
      std::make_shared<BlackBoxSimFunction>(MakeUserSelectionModel(user_cfg));
  // Scalar-fallback black box: no EvalBatch override, so the batched mode
  // exercises BlackBox's default per-seed loop.
  const auto scalar_mix = std::make_shared<BlackBoxSimFunction>(
      std::make_shared<CallableBlackBox>(
          "ScalarMix", std::vector<std::string>{"week"},
          [](std::span<const double> p, RandomStream& rng) {
            return rng.Normal(p[0], std::sqrt(0.1 * p[0] + 1.0)) +
                   rng.Exponential(1.0 / (p[0] + 1.0));
          }));

  const std::vector<Workload> workloads = {
      {"DemandModel", demand, &DemandParams},
      {"UserSelectionModel", users, &WeekParam},
      {"ScalarMix", scalar_mix, &WeekParam},
  };

  std::unique_ptr<ThreadPool> pool;
  if (flags.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(flags.num_threads);
  }

  bool checksums_ok = true;
  for (const auto& w : workloads) {
    const ScalarizedSimFunction scalar_fn(*w.fn);
    struct Phase {
      const char* name;
      std::size_t points;
      std::size_t samples_per_point;
    };
    const Phase phases[] = {
        {"fingerprint", fp_points, m},
        {"full_sim", sim_points, flags.num_samples},
    };
    for (const Phase& phase : phases) {
      const RunResult scalar = Repeat([&] {
        return Drive(scalar_fn, w, seeds, phase.points,
                     phase.samples_per_point, /*batch=*/1);
      });
      const RunResult batched = Repeat([&] {
        return Drive(*w.fn, w, seeds, phase.points, phase.samples_per_point,
                     flags.batch_size);
      });
      EmitRow(phase.name, w.model, "scalar", flags, phase.points,
              phase.samples_per_point, scalar);
      EmitRow(phase.name, w.model, "batched", flags, phase.points,
              phase.samples_per_point, batched);
      const double speedup =
          batched.elapsed_s > 0.0 ? scalar.elapsed_s / batched.elapsed_s
                                  : 0.0;
      bool same = scalar.checksum == batched.checksum && scalar.repeatable &&
                  batched.repeatable;
      checksums_ok = checksums_ok && same;
      std::fprintf(stderr, "%-22s %-12s speedup %5.2fx  checksums %s\n",
                   w.model.c_str(), phase.name, speedup,
                   same ? "match" : "MISMATCH");
      if (pool != nullptr) {
        const RunResult threaded = Repeat([&] {
          return DriveThreaded(*w.fn, w, seeds, phase.points,
                               phase.samples_per_point, flags.batch_size,
                               *pool);
        });
        EmitRow(phase.name, w.model, "threaded", flags, phase.points,
                phase.samples_per_point, threaded);
        same = scalar.checksum == threaded.checksum && threaded.repeatable;
        checksums_ok = checksums_ok && same;
        std::fprintf(stderr,
                     "%-22s %-12s threaded (%zu workers)  checksums %s\n",
                     w.model.c_str(), phase.name, flags.num_threads,
                     same ? "match" : "MISMATCH");
      }
    }
  }

  // Possible-worlds fan-out: pdb::FoldWorlds serial vs parallel over the
  // same worlds must agree bitwise on every column summary.
  {
    const std::size_t worlds = flags.num_samples;
    const RunResult serial =
        Repeat([&] { return DriveWorlds(worlds, /*threads=*/1, /*batch=*/1); });
    const RunResult parallel = Repeat([&] {
      return DriveWorlds(worlds, std::max<std::size_t>(1, flags.num_threads),
                         flags.batch_size);
    });
    // The baseline row must carry the config it actually ran with.
    BenchFlags serial_flags = flags;
    serial_flags.num_threads = 1;
    serial_flags.batch_size = 1;
    EmitRow("worlds", "DemandModel", "serial", serial_flags, 1, worlds,
            serial);
    EmitRow("worlds", "DemandModel", "parallel", flags, 1, worlds, parallel);
    const bool same = serial.checksum == parallel.checksum &&
                      serial.samples == worlds && serial.repeatable &&
                      parallel.repeatable;
    checksums_ok = checksums_ok && same;
    std::fprintf(stderr, "%-22s %-12s speedup %5.2fx  checksums %s\n",
                 "FoldWorlds", "worlds",
                 parallel.elapsed_s > 0.0
                     ? serial.elapsed_s / parallel.elapsed_s
                     : 0.0,
                 same ? "match" : "MISMATCH");
  }

  // The bounded max-of-LogNormals kernel against the plain loop: same
  // peaks, bit for bit, and the same stream position afterwards.
  {
    constexpr std::size_t kSlots = 8192;
    for (double sigma : {0.3, 2.0}) {
      for (int depth : {1, 2, 4, 16, 64}) {
        std::vector<double> kernel_peaks(kSlots), plain_peaks(kSlots);
        std::uint64_t kernel_next = 0, plain_next = 0;
        const RunResult kernel = Repeat([&] {
          return DrivePeaks(true, sigma, depth, kernel_peaks, kernel_next);
        });
        const RunResult plain = Repeat([&] {
          return DrivePeaks(false, sigma, depth, plain_peaks, plain_next);
        });
        EmitPeakRow("kernel", sigma, depth, kSlots, kernel);
        EmitPeakRow("plain", sigma, depth, kSlots, plain);
        const bool same =
            kernel.repeatable && plain.repeatable &&
            kernel_next == plain_next &&
            std::memcmp(kernel_peaks.data(), plain_peaks.data(),
                        kSlots * sizeof(double)) == 0;
        checksums_ok = checksums_ok && same;
        std::fprintf(stderr,
                     "MaxLogNormal sigma=%-4g depth=%-3d %6.2f ns/draw "
                     "(plain %6.2f)  peaks %s\n",
                     sigma, depth, 1e9 * kernel.elapsed_s / kernel.samples,
                     1e9 * plain.elapsed_s / plain.samples,
                     same ? "match" : "MISMATCH");
      }
    }
  }

  // A span's stream seeds in one pass against one scalar derivation per
  // sample: the same words, every one.
  {
    constexpr std::size_t kSpan = 64;
    constexpr std::size_t kSites = 1024;
    const SeedVector span_seeds(RunConfig{}.master_seed, kSpan);
    const SeedSpan sigmas = span_seeds.span(0, kSpan);
    std::vector<std::uint64_t> batch_words(kSpan * kSites);
    std::vector<std::uint64_t> scalar_words(kSpan * kSites);
    const RunResult batch = Repeat([&] {
      return DriveStreamSeeds(true, sigmas, kSites, batch_words);
    });
    const RunResult scalar = Repeat([&] {
      return DriveStreamSeeds(false, sigmas, kSites, scalar_words);
    });
    EmitStreamSeedRow("batch", kSpan, kSites, batch);
    EmitStreamSeedRow("scalar", kSpan, kSites, scalar);
    const bool same = batch.repeatable && scalar.repeatable &&
                      batch_words == scalar_words;
    checksums_ok = checksums_ok && same;
    std::fprintf(stderr,
                 "DeriveStreamSeeds n=%zu %6.2f ns/seed (scalar %6.2f)  "
                 "words %s\n",
                 kSpan, 1e9 * batch.elapsed_s / batch.samples,
                 1e9 * scalar.elapsed_s / scalar.samples,
                 same ? "match" : "MISMATCH");
  }

  // One column's fold and Finalize, its values copied or borrowed: the
  // same metrics, bit for bit, on either side of the radix cutoff.
  for (const std::size_t n :
       {std::size_t{1000}, kRadixSelectMinValues, std::size_t{1} << 20}) {
    for (const std::string kind :
         {"lognormal_peaks", "uniform", "two_valued", "one_valued"}) {
      const std::vector<double> xs = FinalizeValues(kind, n);
      const RunResult copied = Repeat([&] { return DriveFinalize(false, xs); });
      const RunResult borrowed =
          Repeat([&] { return DriveFinalize(true, xs); });
      EmitFinalizeRow("copied", kind, n, copied);
      EmitFinalizeRow("borrowed", kind, n, borrowed);
      const bool same = copied.repeatable && borrowed.repeatable &&
                        copied.checksum == borrowed.checksum;
      checksums_ok = checksums_ok && same;
      std::fprintf(stderr,
                   "Finalize n=%-8zu %-16s %8.2f ns/value copied, %8.2f "
                   "borrowed  metrics %s\n",
                   n, kind.c_str(), 1e9 * copied.elapsed_s / n,
                   1e9 * borrowed.elapsed_s / n, same ? "match" : "MISMATCH");
    }
  }

  if (!checksums_ok) {
    std::fprintf(stderr, "FAIL: a parallel/batched path diverged from its "
                         "serial twin\n");
    return 1;
  }
  return 0;
}
