#pragma once

/// \file markov_process.h
/// Markov processes (Section 4). A simulation with cyclical inter-model
/// dependencies must be evaluated in discrete steps, each step's output
/// depending on the previous step's. Jigsaw models one *instance* of such
/// a process as a scalar state trajectory:
///
///   state_i = Step(state_{i-1}, i, rng_i)
///
/// where rng_i is the deterministic stream for (instance seed, step i).
/// The estimator of Section 4.2 is synthesized by freezing the state
/// input: Fest,anchor(step) = Step(anchor_state, step, rng_step). Because
/// estimator and true chain share the per-(instance, step) stream, their
/// outputs are *identical* wherever the frozen state is still accurate,
/// and linearly mappable wherever the state drifted uniformly — which is
/// exactly what the Markov-jump fingerprint test detects.
///
/// The chain runners call only the batch hooks. Their defaults derive one
/// stream per (instance, step) and call the scalar virtuals; processes
/// that derive their draws otherwise (e.g. SQL-bound chain scenarios,
/// whose expressions take one stream per black-box call site) override
/// the batch hooks instead.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "random/random_stream.h"
#include "random/seed_vector.h"

namespace jigsaw {

/// Deterministic stream salt for chain step `step`; shared by honest
/// stepping and estimator evaluation so seeded comparison is meaningful.
std::uint64_t MarkovStepSalt(std::int64_t step);

/// Salt for the observable extraction at `step`.
std::uint64_t MarkovOutputSalt(std::int64_t step);

class MarkovProcess {
 public:
  virtual ~MarkovProcess() = default;

  virtual const std::string& name() const = 0;

  /// The state every instance starts from (Algorithm 4's `initial`).
  virtual double initial_state() const = 0;

  /// One transition of one instance. `step` is the absolute index of the
  /// state being produced (1-based: the first transition produces step 1).
  /// All randomness must come from `rng`. Subclasses must override either
  /// this or every batch hook (the defaults of which call it).
  virtual double Step(double prev_state, std::int64_t step,
                      RandomStream& rng) const;

  /// Non-Markovian estimator: predicts the state at `step` assuming the
  /// state input has stayed `anchor_state` since `anchor_step` (Section
  /// 4.2: "fixing Fmkv's input state at one point in time"). The default
  /// applies one transition with the frozen input; override when a
  /// cheaper or flatter estimator exists (e.g. "the state stays the
  /// same"). Must draw from `rng` exactly as Step would, so that seeded
  /// comparison is meaningful.
  virtual double Estimate(double anchor_state, std::int64_t anchor_step,
                          std::int64_t step, RandomStream& rng) const {
    (void)anchor_step;
    return Step(anchor_state, step, rng);
  }

  /// Maps an instance's final state to the observable the caller wants
  /// metrics for (e.g. release week -> demand). Default: the state.
  virtual double Output(double state, std::int64_t step,
                        RandomStream& rng) const {
    (void)step;
    (void)rng;
    return state;
  }

  // -- batch hooks (the chain runners' only entry points) ------------------
  //
  // Entry i of each batch is instance k_begin + i. The defaults draw it
  // from seeds.StreamFor(k_begin + i, MarkovStepSalt(step)) —
  // MarkovOutputSalt(step) for OutputBatch — with the salt computed once
  // per batch, and call the scalar Step, Estimate or Output; the
  // estimator shares the honest step's stream (the seeded-comparison
  // requirement). `out` may alias the input span: kernels read entry i
  // before writing it.

  /// Advances instances [k_begin, k_begin + out.size()) one step.
  virtual void StepBatch(std::span<const double> prev_states,
                         std::int64_t step, std::size_t k_begin,
                         const SeedVector& seeds, std::span<double> out) const;

  /// Estimator evaluation for a contiguous instance range.
  virtual void EstimateBatch(std::span<const double> anchor_states,
                             std::int64_t anchor_step, std::int64_t step,
                             std::size_t k_begin, const SeedVector& seeds,
                             std::span<double> out) const;

  /// Observable extraction for a contiguous instance range.
  virtual void OutputBatch(std::span<const double> states, std::int64_t step,
                           std::size_t k_begin, const SeedVector& seeds,
                           std::span<double> out) const;
};

using MarkovProcessPtr = std::shared_ptr<const MarkovProcess>;

}  // namespace jigsaw
