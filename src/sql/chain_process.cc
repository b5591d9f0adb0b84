#include "sql/chain_process.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw::sql {

ScenarioChainProcess::ScenarioChainProcess(
    std::shared_ptr<const RowProgram> program, BoundChain chain,
    std::vector<double> base_valuation, std::size_t output_column)
    : program_(std::move(program)),
      chain_(chain),
      base_valuation_(std::move(base_valuation)),
      output_column_(output_column),
      name_("chain:" + program_->outer_names[chain.source_column_index]) {
  JIGSAW_CHECK(chain_.chain_param_index < base_valuation_.size());
  JIGSAW_CHECK(chain_.driver_param_index < base_valuation_.size());
  JIGSAW_CHECK(output_column_ < program_->outer_exprs.size());
}

void ScenarioChainProcess::EvalColumnBatch(
    std::size_t column, std::span<const double> chain_states,
    std::int64_t step, std::size_t k_begin, const SeedVector& seeds,
    std::uint64_t salt, std::span<double> out) const {
  std::vector<double> params = base_valuation_;
  params[chain_.driver_param_index] = static_cast<double>(step);
  const pdb::BatchProgram::LaneParam lane_param{chain_.chain_param_index,
                                                chain_states};
  Status s = program_->EvalColumnSpan(
      column, params, k_begin, seeds, salt,
      std::span<const pdb::BatchProgram::LaneParam>(&lane_param, 1), out);
  JIGSAW_CHECK_MSG(s.ok(),
                   "chain scenario evaluation failed: " << s.ToString());
}

void ScenarioChainProcess::StepBatch(std::span<const double> prev_states,
                                     std::int64_t step, std::size_t k_begin,
                                     const SeedVector& seeds,
                                     std::span<double> out) const {
  EvalColumnBatch(chain_.source_column_index, prev_states, step, k_begin,
                  seeds, MarkovStepSalt(step), out);
}

void ScenarioChainProcess::EstimateBatch(
    std::span<const double> anchor_states, std::int64_t /*anchor_step*/,
    std::int64_t step, std::size_t k_begin, const SeedVector& seeds,
    std::span<double> out) const {
  // The synthesized estimator: one transition with the chain input frozen
  // at the anchor value, under the same per-step stream as honest
  // stepping (Section 4.2).
  EvalColumnBatch(chain_.source_column_index, anchor_states, step, k_begin,
                  seeds, MarkovStepSalt(step), out);
}

void ScenarioChainProcess::OutputBatch(std::span<const double> states,
                                       std::int64_t step, std::size_t k_begin,
                                       const SeedVector& seeds,
                                       std::span<double> out) const {
  EvalColumnBatch(output_column_, states, step, k_begin, seeds,
                  MarkovOutputSalt(step), out);
}

Result<OutputMetrics> RunChainScenario(const BoundScript& bound,
                                       const std::string& output_column,
                                       std::int64_t target,
                                       const RunConfig& config, bool use_jump,
                                       ChainRunStats* stats) {
  if (!bound.chain) {
    return Status::InvalidArgument(
        "scenario has no CHAIN parameter; use the batch runner");
  }
  std::size_t out_idx = bound.program->outer_names.size();
  for (std::size_t j = 0; j < bound.program->outer_names.size(); ++j) {
    if (EqualsIgnoreCase(bound.program->outer_names[j], output_column)) {
      out_idx = j;
      break;
    }
  }
  if (out_idx == bound.program->outer_names.size()) {
    return Status::NotFound("no result column named '" + output_column +
                            "'");
  }

  ScenarioChainProcess process(bound.program, *bound.chain,
                               bound.scenario.params.ValuationAt(0),
                               out_idx);

  ChainResult result;
  if (use_jump) {
    MarkovJumpRunner runner(config);
    result = runner.Run(process, target);
    if (stats != nullptr) *stats = result.stats;
    return ChainOutputMetrics(process, result, target, runner.seeds(),
                              config);
  }
  NaiveChainRunner runner(config);
  result = runner.Run(process, target);
  if (stats != nullptr) *stats = result.stats;
  return ChainOutputMetrics(process, result, target, runner.seeds(), config);
}

}  // namespace jigsaw::sql
