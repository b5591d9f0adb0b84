#pragma once

/// \file optimizer.h
/// Batch-mode OPTIMIZE execution (Figure 1, Figure 3). An OPTIMIZE query
///
///   OPTIMIZE SELECT @p... FROM results
///   WHERE MAX(EXPECT overload) < 0.01
///   GROUP BY p...
///   FOR MAX @purchase1, MAX @purchase2
///
/// partitions the declared parameters into *group* parameters (the GROUP
/// BY list — the decision variables) and *sweep* parameters (everything
/// else, e.g. @current_week). For every group valuation, constraint
/// aggregates (MAX/MIN/AVG/SUM) fold a metric of a result column over the
/// sweep; feasible groups are then ranked by the lexicographic FOR
/// objective and the Selector picks the winner.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/scenario.h"
#include "core/sim_runner.h"
#include "util/status.h"

namespace jigsaw {

/// Which characteristic of an output distribution a query refers to
/// (EXPECT overload, EXPECT_STDDEV demand, ...).
enum class MetricSelector {
  kExpect,
  kStdDev,
  kStdError,
  kMin,
  kMax,
  kMedian,
  kP95,
};

/// Extracts the selected characteristic from finalized metrics.
double ExtractMetric(const OutputMetrics& metrics, MetricSelector selector);

/// Aggregation over the sweep dimension(s).
enum class SweepAgg { kMax, kMin, kAvg, kSum };

enum class CmpOp { kLt, kLe, kGt, kGe };

/// One WHERE term: Agg(Metric(column)) Cmp threshold.
struct MetricConstraint {
  SweepAgg agg = SweepAgg::kMax;
  MetricSelector metric = MetricSelector::kExpect;
  std::string column;
  CmpOp cmp = CmpOp::kLt;
  double threshold = 0.0;

  bool Compare(double lhs) const;
};

/// One FOR term: MAX/MIN @param, evaluated lexicographically in order.
struct ObjectiveTerm {
  std::string param;
  bool maximize = true;
};

struct OptimizeSpec {
  std::vector<std::string> group_params;  ///< decision variables
  std::vector<MetricConstraint> constraints;
  std::vector<ObjectiveTerm> objectives;
};

/// Evaluation record for one group valuation (kept for reporting and the
/// exploration views in the examples).
struct GroupEvaluation {
  std::vector<double> group_valuation;
  std::vector<double> constraint_lhs;  ///< aggregated left-hand sides
  bool feasible = false;
};

struct OptimizeResult {
  bool found = false;
  std::vector<std::string> group_param_names;
  std::vector<double> best_valuation;
  std::vector<GroupEvaluation> groups;
  std::uint64_t points_simulated = 0;
  std::string ToString() const;
};

/// The Selector of Figure 3: ranks feasible valuations lexicographically
/// by the FOR objectives. Exposed separately so tests can exercise it.
class Selector {
 public:
  Selector(std::vector<ObjectiveTerm> objectives,
           std::vector<std::string> group_param_names);

  /// Returns true if `candidate` beats `incumbent`.
  bool Better(const std::vector<double>& candidate,
              const std::vector<double>& incumbent) const;

 private:
  struct ResolvedTerm {
    std::size_t index;
    bool maximize;
  };
  std::vector<ResolvedTerm> terms_;
};

class Optimizer {
 public:
  /// The most requests one RunPoints call carries (unless one sweep
  /// point has more constraints). A group's (sweep point, constraint)
  /// requests go to the runner in windows of whole sweep points, so a
  /// huge sweep holds one window of results at a time; Figure 1's
  /// 53-week groups fit in one window each.
  static constexpr std::size_t kRequestWindow = 4096;

  explicit Optimizer(SimulationRunner* runner) : runner_(runner) {}

  /// Exhaustively explores the group space ("brute force ... necessary to
  /// guarantee the optimization converges to the global maximum for an
  /// arbitrary black-box", Section 2.3). Fingerprint reuse inside the
  /// runner is what makes this affordable. Each group's requests reach
  /// the runner in the order its fold reads them, sweep point major and
  /// constraint minor, which is the order the runner's basis store sees.
  Result<OptimizeResult> Run(const Scenario& scenario,
                             const OptimizeSpec& spec);

 private:
  SimulationRunner* runner_;
};

}  // namespace jigsaw
