#pragma once

/// \file sim_function.h
/// SimFunction is the unit of Monte Carlo evaluation that fingerprints are
/// computed over. The paper observes that F may be a single black box *or*
/// "the entire Monte Carlo simulation shown inside the dashed box" of its
/// Figure 3; both are SimFunctions here: sample k of parameter point P is
/// a pure function of (P, sigma_k), evaluated under the global seed vector.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "models/black_box.h"
#include "random/seed_vector.h"

namespace jigsaw {

class SimFunction {
 public:
  virtual ~SimFunction() = default;

  /// Diagnostic label (model name, or scenario column name).
  virtual const std::string& label() const = 0;

  /// Returns sample `sample_id` of the output distribution at `params`.
  /// Must be a pure function of (params, seeds.seed(sample_id)).
  virtual double Sample(std::span<const double> params,
                        std::size_t sample_id,
                        const SeedVector& seeds) const = 0;

  /// Evaluates samples [sample_begin, sample_begin + out.size()) into
  /// `out`. Entry i must equal Sample(params, sample_begin + i, seeds)
  /// bit-for-bit; overrides may hoist per-point work out of the sample
  /// loop but never perturb a draw. The default loops over Sample, so
  /// scalar-only SimFunctions keep working.
  virtual void SampleBatch(std::span<const double> params,
                           std::size_t sample_begin, const SeedVector& seeds,
                           std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = Sample(params, sample_begin + i, seeds);
    }
  }
};

using SimFunctionPtr = std::shared_ptr<const SimFunction>;

/// Adapts a single stochastic black box as a SimFunction.
class BlackBoxSimFunction : public SimFunction {
 public:
  explicit BlackBoxSimFunction(BlackBoxPtr model, std::uint64_t call_site = 0)
      : model_(std::move(model)), call_site_(call_site) {}

  const std::string& label() const override { return model_->name(); }

  double Sample(std::span<const double> params, std::size_t sample_id,
                const SeedVector& seeds) const override {
    // Exactly InvokeSeeded(model, params, sigma_k, call_site).
    RandomStream rng = seeds.StreamFor(sample_id, call_site_);
    return model_->Eval(params, rng);
  }

  /// One virtual hop into the model's batch kernel (native or the scalar
  /// fallback loop) instead of out.size() virtual Sample calls.
  void SampleBatch(std::span<const double> params, std::size_t sample_begin,
                   const SeedVector& seeds,
                   std::span<double> out) const override {
    model_->EvalBatch(params, seeds.span(sample_begin, out.size()),
                      call_site_, out);
  }

  const BlackBox& model() const { return *model_; }

 private:
  BlackBoxPtr model_;
  std::uint64_t call_site_;
};

/// Adapts a callable (used by tests and the SQL expression compiler).
class CallableSimFunction : public SimFunction {
 public:
  using Fn = std::function<double(std::span<const double>, std::size_t,
                                  const SeedVector&)>;

  CallableSimFunction(std::string label, Fn fn)
      : label_(std::move(label)), fn_(std::move(fn)) {}

  const std::string& label() const override { return label_; }

  double Sample(std::span<const double> params, std::size_t sample_id,
                const SeedVector& seeds) const override {
    return fn_(params, sample_id, seeds);
  }

 private:
  std::string label_;
  Fn fn_;
};

}  // namespace jigsaw
