#pragma once

/// \file chain_process.h
/// Bridges a bound CHAIN scenario (Figure 5) onto the Markov executor of
/// Section 4. The chain parameter's value is the per-instance state; one
/// chain step evaluates the scenario's projection with
///   @driver = step,  @chain = previous state
/// and feeds the designated source column back as the next state. The
/// synthesized estimator (Section 4.2) freezes the chain parameter at the
/// anchor value — "an estimator from this value will be constructed by
/// fixing release_week (the chain parameter) at its initial value".

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/run_config.h"
#include "markov/chain_runner.h"
#include "markov/markov_process.h"
#include "sql/binder.h"

namespace jigsaw::sql {

class ScenarioChainProcess final : public MarkovProcess {
 public:
  /// `base_valuation` fixes every parameter other than the driver and the
  /// chain parameter (use ParameterSpace::ValuationAt(0) or overrides).
  /// `output_column` is the observable extracted by OutputBatch.
  ScenarioChainProcess(std::shared_ptr<const RowProgram> program,
                       BoundChain chain, std::vector<double> base_valuation,
                       std::size_t output_column);

  const std::string& name() const override { return name_; }
  double initial_state() const override { return chain_.initial; }

  // The batch hooks are the chain runners' only entry points: one
  // RowProgram::EvalColumnSpan call per instance span, with the chain
  // parameter fed per lane — a compiled BatchProgram run, or the
  // interpreter's per-lane walk when the row program did not compile —
  // bit-identical to RowProgram::EvalColumn at each instance. The scalar
  // Step/Estimate/Output are never reached.

  void StepBatch(std::span<const double> prev_states, std::int64_t step,
                 std::size_t k_begin, const SeedVector& seeds,
                 std::span<double> out) const override;

  void EstimateBatch(std::span<const double> anchor_states,
                     std::int64_t anchor_step, std::int64_t step,
                     std::size_t k_begin, const SeedVector& seeds,
                     std::span<double> out) const override;

  void OutputBatch(std::span<const double> states, std::int64_t step,
                   std::size_t k_begin, const SeedVector& seeds,
                   std::span<double> out) const override;

 private:
  /// Span evaluation of `column` with per-lane chain states.
  void EvalColumnBatch(std::size_t column,
                       std::span<const double> chain_states,
                       std::int64_t step, std::size_t k_begin,
                       const SeedVector& seeds, std::uint64_t salt,
                       std::span<double> out) const;

  std::shared_ptr<const RowProgram> program_;
  BoundChain chain_;
  std::vector<double> base_valuation_;
  std::size_t output_column_;
  std::string name_;
};

/// Evaluates a CHAIN scenario to `target` steps and returns metrics of
/// `output_column` over all instances. With use_jump=false this is the
/// naive full-chain baseline.
Result<OutputMetrics> RunChainScenario(const BoundScript& bound,
                                       const std::string& output_column,
                                       std::int64_t target,
                                       const RunConfig& config, bool use_jump,
                                       ChainRunStats* stats = nullptr);

}  // namespace jigsaw::sql
