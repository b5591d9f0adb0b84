// optimize_fig1: the paper's headline OPTIMIZE query (Figure 1), from SQL
// text to Report(), through ScriptRunner.

#include <algorithm>
#include <memory>
#include <string>

#include "core/optimizer.h"
#include "core/sim_runner.h"
#include "decorators.h"
#include "digest.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/script_runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using jigsaw::Result;
using jigsaw::Status;

// Verbatim from examples/capacity_planning.cpp.
constexpr const char* kFig1Script = R"(
-- DEFINITION --
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
-- BATCH MODE --
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
)";

// The same query over a coarse grid: 3 x 3 x 3 groups of 9 weeks.
constexpr const char* kTinyScript = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 48 STEP BY 6;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 24;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 24;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
)";

class OptimizeFig1 final : public BatchWorkload {
 public:
  explicit OptimizeFig1(const WorkloadOptions& options)
      : script_(options.tiny ? kTinyScript : kFig1Script),
        groups_(options.tiny ? 27 : 588),
        points_(options.tiny ? 27 * 9 : 588 * 53) {
    config_.master_seed = options.seed;
    config_.num_samples = options.tiny ? 200 : 1000;
    config_.fingerprint_size = 10;
    // Serial: at 2 threads RunSweep is no faster on a 4-vCPU box and its
    // latency swings far more from run to run.
    config_.num_threads = 1;
  }

  const char* name() const override { return "optimize_fig1"; }
  double work_per_op() const override { return static_cast<double>(points_); }
  const char* work_unit() const override { return "parameter points"; }

  Status SetUp(const WorkloadOptions& options) override {
    JIGSAW_ASSIGN_OR_RETURN(registry_, CloudModels(options.trace));
    return Status::OK();
  }

  Result<std::uint64_t> RunOp(std::size_t /*variant*/) override {
    jigsaw::sql::ScriptRunner runner(registry_.get(), config_);
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::ScriptOutcome outcome,
                            runner.Run(script_));
    report_bytes_ += outcome.Report().size();
    return Check(outcome);
  }

  Result<std::uint64_t> RunTracedOp(std::size_t /*variant*/) override {
    OperationScope op;
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::Script script,
                            InSpan(SpanKind::kSqlParse, [&] {
                              return jigsaw::sql::ParseScript(script_);
                            }));
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::BoundScript bound,
                            InSpan(SpanKind::kSqlBind, [&] {
                              return jigsaw::sql::Binder(registry_.get())
                                  .Bind(script);
                            }));
    if (!bound.optimize) {
      return Status::ExecutionError("script has no OPTIMIZE statement");
    }
    TimeScenarioColumns(&bound.scenario);

    // ScriptRunner::RunBound's OPTIMIZE path, with the runner in reach so
    // its basis-store counters can be read.
    jigsaw::sql::ScriptOutcome outcome;
    {
      ScopedSpan span(SpanKind::kCoreOptimize);
      jigsaw::SimulationRunner runner(config_);
      jigsaw::Optimizer optimizer(&runner);
      JIGSAW_ASSIGN_OR_RETURN(
          jigsaw::OptimizeResult result,
          optimizer.Run(bound.scenario, *bound.optimize));
      outcome.optimize = std::move(result);
      outcome.runner_stats = runner.stats();
      outcome.basis_count = runner.basis_store().size();
      store_stats_ = runner.basis_store().stats();
    }
    outcome.bound = std::move(bound);
    report_bytes_ += outcome.Report().size();
    last_ = outcome.optimize;
    runner_stats_ = outcome.runner_stats;
    basis_count_ = outcome.basis_count;
    return Check(outcome);
  }

  Result<std::uint64_t> SerialTwinDigest(std::size_t /*variant*/) override {
    jigsaw::RunConfig serial = config_;
    serial.num_threads = 1;
    JIGSAW_ASSIGN_OR_RETURN(auto models, CloudModels(false));
    jigsaw::sql::ScriptRunner twin(models.get(), serial);
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::ScriptOutcome outcome,
                            twin.Run(script_));
    return Check(outcome);
  }

  void AddLayerCounters(WorkloadReport* report) override {
    const auto& s = runner_stats_;
    report->Set("core.reuse_ratio",
                s.points_evaluated == 0
                    ? 0.0
                    : static_cast<double>(s.points_reused) /
                          static_cast<double>(s.points_evaluated),
                "ratio");
    report->Set("core.bases", static_cast<double>(basis_count_), "count");
    report->Set("core.blackbox_invocations",
                static_cast<double>(s.blackbox_invocations), "count");
    report->Set("core.basis_lookups", static_cast<double>(store_stats_.lookups),
                "count");
    report->Set("core.candidate_precision",
                store_stats_.candidates_tested == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(
                                store_stats_.false_positive_candidates) /
                                static_cast<double>(
                                    store_stats_.candidates_tested),
                "ratio");
    if (Status st = AddAccuracyGuards(report); !st.ok()) {
      report->Fail("accuracy guards: " + st.ToString());
    }
  }

 private:
  Result<std::uint64_t> Check(const jigsaw::sql::ScriptOutcome& outcome) const {
    if (!outcome.optimize) {
      return Status::ExecutionError("no OPTIMIZE result");
    }
    const jigsaw::OptimizeResult& r = *outcome.optimize;
    if (!r.found) return Status::ExecutionError("no feasible plan found");
    if (r.groups.size() != groups_) {
      return Status::ExecutionError("expected " + std::to_string(groups_) +
                                    " groups, got " +
                                    std::to_string(r.groups.size()));
    }
    if (outcome.runner_stats.points_evaluated != points_) {
      return Status::ExecutionError(
          "expected " + std::to_string(points_) + " points, got " +
          std::to_string(outcome.runner_stats.points_evaluated));
    }
    Digest d;
    d.Add(r);
    return d.value();
  }

  /// Full simulation (no fingerprint reuse) of the recommended plan's
  /// weeks, and of every group: how risky the chosen plan really is, and
  /// how many groups' feasibility the reuse run got right.
  Status AddAccuracyGuards(WorkloadReport* report) {
    if (!last_ || !last_->found) {
      return Status::ExecutionError("no traced OPTIMIZE result to check");
    }
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::BoundScript bound,
                            jigsaw::sql::ParseAndBind(script_, *registry_));
    jigsaw::RunConfig naive = config_;
    naive.use_fingerprints = false;
    const jigsaw::ParameterSpace& params = bound.scenario.params;
    JIGSAW_ASSIGN_OR_RETURN(const jigsaw::ScenarioColumn* overload,
                            bound.scenario.FindColumn("overload"));
    const auto week = params.IndexOf("current_week");
    if (!week) return Status::ExecutionError("no @current_week");
    std::vector<double> valuation(params.num_params(), 0.0);
    for (std::size_t i = 0; i < last_->group_param_names.size(); ++i) {
      const auto idx = params.IndexOf(last_->group_param_names[i]);
      if (!idx) return Status::ExecutionError("unknown group parameter");
      valuation[*idx] = last_->best_valuation[i];
    }
    jigsaw::SimulationRunner plan_runner(naive);
    double risk = 0.0;
    for (double w : params.def(*week).Values()) {
      valuation[*week] = w;
      risk = std::max(risk,
                      plan_runner.RunPoint(*overload->fn, valuation).metrics.mean);
    }
    report->Set("core.plan_risk", risk, "probability");

    jigsaw::SimulationRunner full_runner(naive);
    jigsaw::Optimizer full(&full_runner);
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::OptimizeResult truth,
                            full.Run(bound.scenario, *bound.optimize));
    std::size_t agree = 0;
    const std::size_t n = std::min(truth.groups.size(), last_->groups.size());
    for (std::size_t g = 0; g < n; ++g) {
      if (truth.groups[g].feasible == last_->groups[g].feasible) ++agree;
    }
    report->Set("core.plan_agreement",
                n == 0 ? 0.0
                       : static_cast<double>(agree) / static_cast<double>(n),
                "ratio");
    report->notes.push_back(
        "plan risk (full simulation of the recommended plan) " +
        std::to_string(risk) + " against the script's 0.01 limit; " +
        std::to_string(agree) + "/" + std::to_string(n) +
        " groups agree with full simulation");
    return Status::OK();
  }

  std::string script_;
  std::size_t groups_;
  std::uint64_t points_;
  jigsaw::RunConfig config_;
  std::unique_ptr<jigsaw::ModelRegistry> registry_;
  std::size_t report_bytes_ = 0;  ///< keeps Report() observable

  // Read from the last traced operation.
  std::optional<jigsaw::OptimizeResult> last_;
  jigsaw::RunnerStats runner_stats_;
  std::size_t basis_count_ = 0;
  jigsaw::BasisStoreStats store_stats_;
};

}  // namespace

std::unique_ptr<BatchWorkload> MakeOptimizeFig1(const WorkloadOptions& o) {
  return std::make_unique<OptimizeFig1>(o);
}

}  // namespace perfbench
