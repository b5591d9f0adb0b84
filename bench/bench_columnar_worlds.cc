// Uncertain joins over columnar possible worlds at scale: a fixed
// 256-user population equi-joined against an N-row uncertain items table
// in every one of W worlds, each numeric joined column folded.
//
// For each row count the sort-merge join fold runs twice: serial and
// threaded (--num_threads workers, one world-chunk cell per pool task —
// the shard-ownership rule). Every run's metrics fold into a bitwise
// checksum; the binary exits non-zero if the two diverge — CI smoke-runs
// it as a machine check that sharding never changes a result. (The boxed
// nested-loop reference every path must match lives in the tests:
// tests/boxed_reference.h.) The interesting series are tuples/sec and
// peak RSS. ru_maxrss is a process-wide high-water mark, so row counts
// run ascending and each row reports the watermark *after* its run.
//
// Every row is a JSON-lines record on stdout; a human summary goes to
// stderr. Flags: --num_samples=W (worlds) --num_threads=N
// --batch_size=N (bench_common.h).

#include "bench_common.h"

#include <sys/resource.h>

#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "pdb/join.h"
#include "pdb/vg_table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace jigsaw;
using bench::BenchFlags;
using bench::EmitJsonLine;
using bench::JsonLineBuilder;

/// Order-sensitive bitwise fold (FNV-1a over the raw doubles).
class Checksum {
 public:
  /// Folds the moments, extremes and quantiles, then the histogram's
  /// range, bin counts and dropped count, so a serial/threaded binning
  /// divergence shows too.
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
    if (m.histogram) {
      Fold(m.histogram->lo());
      Fold(m.histogram->hi());
      for (int i = 0; i < m.histogram->num_bins(); ++i) {
        Fold(static_cast<double>(m.histogram->bin_count(i)));
      }
      Fold(static_cast<double>(m.histogram->dropped_count()));
    }
  }
  void FoldColumns(const std::map<std::string, OutputMetrics>& columns) {
    for (const auto& [name, m] : columns) FoldMetrics(m);
  }
  std::uint64_t value() const { return h_; }

 private:
  void Fold(double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    h_ = (h_ ^ u) * 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Process peak RSS in bytes (ru_maxrss is KiB on Linux).
double PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

struct RunResult {
  double elapsed_s = 0.0;
  std::uint64_t tuples = 0;  ///< right-side rows x worlds scanned
  std::uint64_t checksum = 0;
  bool ok = true;
};

/// A fixed 256-user population equi-joined against the scaling items
/// table on user_id = item_id, per world.
RunResult DriveJoin(const pdb::VGTableFunctionPtr& users,
                    const pdb::VGTableFunctionPtr& items, std::size_t rows,
                    const BenchFlags& flags, std::size_t threads) {
  RunConfig cfg;
  cfg.num_samples = flags.num_samples;
  cfg.batch_size =
      threads > 1
          ? std::min(flags.batch_size,
                     std::max<std::size_t>(1, flags.num_samples / threads))
          : flags.batch_size;
  cfg.num_threads = threads;
  const SeedVector seeds(cfg.master_seed, flags.num_samples);
  const std::vector<std::string> columns = {"requirement", "demand", "cost"};

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  RunResult r;
  WallTimer timer;
  auto metrics =
      pdb::FoldJoinedVGColumns(users, items, {"user_id", "item_id"}, columns,
                               flags.num_samples, seeds, cfg, pool.get());
  r.elapsed_s = timer.ElapsedSeconds();
  if (!metrics.ok()) {
    std::fprintf(stderr, "join fold failed: %s\n",
                 metrics.status().ToString().c_str());
    r.ok = false;
    return r;
  }
  Checksum sum;
  sum.FoldColumns(metrics.value());
  r.checksum = sum.value();
  // Throughput counts right-side tuples scanned per world (the scaling
  // axis), not the 256-row joined output.
  r.tuples = static_cast<std::uint64_t>(rows) * flags.num_samples;
  return r;
}

void EmitRow(const std::string& mode, std::size_t rows, std::size_t threads,
             const BenchFlags& flags, const RunResult& r) {
  JsonLineBuilder row;
  row.Str("bench", "columnar_worlds")
      .Str("mode", mode)
      .Num("rows", static_cast<double>(rows))
      .Num("worlds", static_cast<double>(flags.num_samples))
      .Num("batch_size", static_cast<double>(flags.batch_size))
      .Num("num_threads", static_cast<double>(threads))
      .Num("elapsed_s", r.elapsed_s)
      .Num("tuples_per_sec",
           r.elapsed_s > 0.0 ? static_cast<double>(r.tuples) / r.elapsed_s
                             : 0.0)
      .Num("peak_rss_bytes", PeakRssBytes())
      .Num("checksum", static_cast<double>(r.checksum >> 12));
  EmitJsonLine(std::cout, row);
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = bench::ParseBenchFlags(&argc, argv);
  if (flags.num_samples == 1000) flags.num_samples = 8;  // worlds default
  if (flags.batch_size == 0) flags.batch_size = 1;
  if (flags.num_threads == 0) flags.num_threads = 1;

  bool checksums_ok = true;
  // Serial and threaded, on a fixed 256-user left side while the right
  // side scales, ascending so each size's peak-RSS watermark is its own.
  const auto users = pdb::MakeUsersVGTable(256, 0.8, 5.0, 2.0);
  const std::vector<std::size_t> join_rows =
      bench::FullScale()
          ? std::vector<std::size_t>{10'000, 100'000, 1'000'000}
          : std::vector<std::size_t>{10'000, 100'000};
  for (std::size_t rows : join_rows) {
    const auto items = pdb::MakeScalingItemsVGTable(rows);
    const RunResult sort = DriveJoin(users, items, rows, flags, 1);
    EmitRow("join_sort", rows, 1, flags, sort);
    const RunResult sort_par =
        DriveJoin(users, items, rows, flags, flags.num_threads);
    EmitRow("join_sort_par", rows, flags.num_threads, flags, sort_par);

    const bool same =
        sort.ok && sort_par.ok && sort.checksum == sort_par.checksum;
    const double speedup =
        sort_par.elapsed_s > 0.0 ? sort.elapsed_s / sort_par.elapsed_s : 0.0;
    std::fprintf(stderr,
                 "join rows=%-8zu worlds=%zu  threaded speedup %6.2fx  "
                 "checksums %s\n",
                 rows, flags.num_samples, speedup,
                 same ? "match" : "MISMATCH");
    checksums_ok = checksums_ok && same;
  }

  if (!checksums_ok) {
    std::fprintf(stderr,
                 "FAIL: threaded join fold diverged from the serial one\n");
    return 1;
  }
  return 0;
}
