// chain_fig5: the Figure 5 CHAIN scenario evaluated to week 52 with the
// Markov-jump runner, for release_week and for demand.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "decorators.h"
#include "digest.h"
#include "markov/chain_runner.h"
#include "random/splitmix64.h"
#include "sql/binder.h"
#include "sql/chain_process.h"
#include "sql/parser.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using jigsaw::Result;
using jigsaw::Status;

// Verbatim from examples/feature_release_markov.cpp.
constexpr const char* kFig5Script = R"(
-- DEFINITION --
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
  FROM @current_week : @current_week - 1 INITIAL VALUE 52;
SELECT CASE WHEN demand > 26 AND @current_week + 4 < @release_week
            THEN @current_week + 4 ELSE @release_week END AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results;
)";

constexpr std::int64_t kTargetWeek = 52;
constexpr const char* kColumns[] = {"release_week", "demand"};

/// An operation's cost follows its estimator mismatches (each rebuilds
/// the full state of all instances), which number 4 to 6 per seed. On a
/// 4-vCPU VM, the median latencies of 20 s runs under ten seeds spread
/// 21% (interquartile over median), against 5% for ten runs under one
/// seed. Operations therefore rotate through this many seeds derived from
/// the workload seed, so that runs under different workload seeds time
/// comparable mixes.
constexpr std::size_t kVariants = 64;

/// Variant 0 is the workload seed itself, variant j a SplitMix64 scramble
/// of (seed, j).
std::uint64_t VariantSeed(std::uint64_t seed, std::size_t variant) {
  if (variant == 0) return seed;
  // "VARI" tags the derivation apart from the server's session seeds.
  return jigsaw::SplitMix64(seed ^ (0x56415249ULL +
                                    variant * 0x9E3779B97F4A7C15ULL))
      .Next();
}

class ChainFig5 final : public BatchWorkload {
 public:
  explicit ChainFig5(const WorkloadOptions& options) : seed_(options.seed) {
    config_.num_samples = options.tiny ? 100 : 1000;
    config_.fingerprint_size = 10;
    config_.num_threads = 1;
  }

  const char* name() const override { return "chain_fig5"; }
  double work_per_op() const override {
    return 2.0 * static_cast<double>(config_.num_samples * kTargetWeek);
  }
  const char* work_unit() const override { return "instance-steps"; }
  std::size_t variants() const override { return kVariants; }

  Status SetUp(const WorkloadOptions& options) override {
    JIGSAW_ASSIGN_OR_RETURN(registry_, CloudModels(options.trace));
    return Status::OK();
  }

  Result<std::uint64_t> RunOp(std::size_t variant) override {
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::BoundScript bound,
                            jigsaw::sql::ParseAndBind(kFig5Script, *registry_));
    return RunChains(bound, Config(variant));
  }

  Result<std::uint64_t> RunTracedOp(std::size_t variant) override {
    OperationScope op;
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::Script script,
                            InSpan(SpanKind::kSqlParse, [&] {
                              return jigsaw::sql::ParseScript(kFig5Script);
                            }));
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::BoundScript bound,
                            InSpan(SpanKind::kSqlBind, [&] {
                              return jigsaw::sql::Binder(registry_.get())
                                  .Bind(script);
                            }));
    return RunChains(bound, Config(variant));
  }

  /// The workload is already serial; the twin is a fresh bind and run.
  Result<std::uint64_t> SerialTwinDigest(std::size_t variant) override {
    JIGSAW_ASSIGN_OR_RETURN(auto models, CloudModels(false));
    JIGSAW_ASSIGN_OR_RETURN(jigsaw::sql::BoundScript bound,
                            jigsaw::sql::ParseAndBind(kFig5Script, *models));
    return RunChains(bound, Config(variant));
  }

  /// Over the operations' variants: honest steps against the naive
  /// runner's and estimator mismatches per operation (release_week), and
  /// the jump runner's error in units of the naive standard error (the
  /// larger of the two columns', averaged over the variants). Variant 0,
  /// the workload seed, is also spelled out in the notes.
  void AddLayerCounters(WorkloadReport* report) override {
    auto bound = jigsaw::sql::ParseAndBind(kFig5Script, *registry_);
    if (!bound.ok()) {
      report->Fail("bind: " + bound.status().ToString());
      return;
    }
    std::uint64_t jump_steps = 0, naive_steps = 0, mismatches = 0;
    double error_sum = 0.0;
    for (std::size_t variant = 0; variant < kVariants; ++variant) {
      const jigsaw::RunConfig config = Config(variant);
      double worst_error = 0.0;
      for (const char* column : kColumns) {
        jigsaw::ChainRunStats jump_stats, naive_stats;
        auto jump = jigsaw::sql::RunChainScenario(
            bound.value(), column, kTargetWeek, config, true, &jump_stats);
        auto naive = jigsaw::sql::RunChainScenario(
            bound.value(), column, kTargetWeek, config, false, &naive_stats);
        if (!jump.ok() || !naive.ok()) {
          report->Fail(std::string("chain run failed for ") + column);
          return;
        }
        const auto& n = naive.value();
        const double error =
            n.std_error > 0 ? std::abs(jump.value().mean - n.mean) / n.std_error
                            : 0.0;
        worst_error = std::max(worst_error, error);
        if (std::string(column) == "release_week") {
          jump_steps += jump_stats.step_invocations;
          naive_steps += naive_stats.step_invocations;
          mismatches += jump_stats.mismatches;
        }
        if (variant == 0) {
          report->notes.push_back(
              std::string(column) + " at week 52 (workload seed): jump mean " +
              std::to_string(jump.value().mean) + ", naive mean " +
              std::to_string(n.mean) + " (standard error " +
              std::to_string(n.std_error) + "); honest steps: jump " +
              std::to_string(jump_stats.step_invocations) + ", naive " +
              std::to_string(naive_stats.step_invocations) + ", mismatches " +
              std::to_string(jump_stats.mismatches));
        }
      }
      error_sum += worst_error;
    }
    const auto variants = static_cast<double>(kVariants);
    report->Set("markov.honest_step_ratio",
                naive_steps == 0 ? 0.0
                                 : static_cast<double>(jump_steps) /
                                       static_cast<double>(naive_steps),
                "ratio");
    report->Set("markov.mismatches", static_cast<double>(mismatches) / variants,
                "count");
    report->Set("markov.jump_error", error_sum / variants, "stderr");
  }

 private:
  jigsaw::RunConfig Config(std::size_t variant) const {
    jigsaw::RunConfig config = config_;
    config.master_seed = VariantSeed(seed_, variant);
    return config;
  }

  /// Both columns to the target week with the Markov-jump runner.
  static Result<std::uint64_t> RunChains(const jigsaw::sql::BoundScript& bound,
                                         const jigsaw::RunConfig& config) {
    Digest d;
    for (const char* column : kColumns) {
      ScopedSpan span(SpanKind::kMarkovChain);
      JIGSAW_ASSIGN_OR_RETURN(
          jigsaw::OutputMetrics m,
          jigsaw::sql::RunChainScenario(bound, column, kTargetWeek, config,
                                        /*use_jump=*/true));
      if (m.count != static_cast<std::int64_t>(config.num_samples)) {
        return Status::ExecutionError(
            std::string("chain column ") + column + " summarized " +
            std::to_string(m.count) + " instances");
      }
      d.Add(std::string_view(column));
      d.Add(m);
    }
    return d.value();
  }

  std::uint64_t seed_;
  jigsaw::RunConfig config_;  ///< all but the seed
  std::unique_ptr<jigsaw::ModelRegistry> registry_;
};

}  // namespace

std::unique_ptr<BatchWorkload> MakeChainFig5(const WorkloadOptions& o) {
  return std::make_unique<ChainFig5>(o);
}

}  // namespace perfbench
