#pragma once

/// \file workloads.h
/// The four benchmark workloads and the drivers that time them.
///
/// A run has three parts:
///   set-up     — the workload's set-up calls and its first operation,
///                timed together as the cold time to first answer;
///   timed loop — operations back to back until the run's seconds are
///                spent (the first operation is not among them);
///   checks     — outside the timed window: every result digest is
///                compared with the serial num_threads=1 twin's.
/// A traced run instead alternates untraced and traced operations and
/// reports the per-layer breakdown of the traced ones.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct WorkloadOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Set up, answer once and stop (a cold set-up probe).
  bool setup_only = false;
  /// Miniature inputs, for the benchmark's own tests.
  bool tiny = false;
  /// Where a traced run writes its spans ("" = keep them in memory only).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadReport {
  std::string workload;
  double setup_s = 0.0;
  std::uint64_t first_digest = 0;      ///< digest of the first answer
  std::uint64_t reference_digest = 0;  ///< the serial twin's digest
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable detail lines

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
  void Set(const std::string& name, double value, const std::string& unit);
};

/// A workload whose operation is one call sequence on one client thread.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;

  virtual const char* name() const = 0;
  /// Work units one operation completes (points, tuples, instance-steps).
  virtual double work_per_op() const = 0;
  virtual const char* work_unit() const = 0;
  /// Operation i runs input variant i % variants(); variant 0 is the
  /// workload seed itself. A workload whose operation cost follows its
  /// draws rotates through a fixed set of seeds derived from the workload
  /// seed, so that a run's median describes that set rather than one draw.
  virtual std::size_t variants() const { return 1; }

  /// Builds the workload's state through the public API; timed into
  /// set-up. With `trace`, every model is wrapped in a TimedBlackBox.
  virtual jigsaw::Status SetUp(const WorkloadOptions& options) = 0;
  /// One operation as a user issues it, on input `variant`; checks its
  /// invariants and returns its digest.
  virtual jigsaw::Result<std::uint64_t> RunOp(std::size_t variant) = 0;
  /// The same operation split into layer calls under spans. Must return
  /// the same digest as RunOp.
  virtual jigsaw::Result<std::uint64_t> RunTracedOp(std::size_t variant) = 0;
  /// Digest of the serial num_threads=1 twin of the operation.
  virtual jigsaw::Result<std::uint64_t> SerialTwinDigest(
      std::size_t variant) = 0;
  /// Counters and one-off measurements of the traced run, read after the
  /// timed loop (reuse, accuracy guards, pool speedup), over the same
  /// variants as the operations.
  virtual void AddLayerCounters(WorkloadReport* report) = 0;
};

std::unique_ptr<BatchWorkload> MakeOptimizeFig1(const WorkloadOptions& o);
std::unique_ptr<BatchWorkload> MakeJoin1e6(const WorkloadOptions& o);
std::unique_ptr<BatchWorkload> MakeChainFig5(const WorkloadOptions& o);

/// Times a batch workload (see the file comment).
WorkloadReport DriveBatch(BatchWorkload& workload,
                          const WorkloadOptions& options);

/// The closed-loop session-server workload (own driver: two client
/// threads, five request kinds).
WorkloadReport DriveServeMixed(const WorkloadOptions& options);

/// Dispatches by workload name; an unknown name yields a failed report.
WorkloadReport RunWorkload(const std::string& name,
                           const WorkloadOptions& options);

/// Every per-layer metric name with its unit, in report order. Traced
/// runs report all of them; a layer the workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills the span-derived per-layer metrics (means per traced operation)
/// and trace.overhead_ratio from the spans recorded so far.
void AddSpanMetrics(const std::vector<double>& untraced_ms,
                    const std::string& spans_path, WorkloadReport* report);

}  // namespace perfbench
