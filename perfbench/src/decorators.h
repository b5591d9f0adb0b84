#pragma once

/// \file decorators.h
/// Forwarding decorators that time calls into a layer from outside it.
/// Each forwards every call to the wrapped object unchanged — same
/// arguments, same return value, same output span — and records a span
/// around it while tracing is enabled, so a traced run produces
/// bit-identical results.

#include <memory>
#include <span>
#include <string>

#include "core/scenario.h"
#include "core/sim_function.h"
#include "models/black_box.h"
#include "util/status.h"

namespace perfbench {

/// Black-box model timed as a "models.eval" span per call; the span's
/// items count the samples drawn.
class TimedBlackBox final : public jigsaw::BlackBox {
 public:
  explicit TimedBlackBox(jigsaw::BlackBoxPtr inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  const std::vector<std::string>& param_names() const override {
    return inner_->param_names();
  }
  double Eval(std::span<const double> params,
              jigsaw::RandomStream& rng) const override;
  void EvalBatch(std::span<const double> params, jigsaw::SeedSpan seeds,
                 std::uint64_t call_site,
                 std::span<double> out) const override;

 private:
  jigsaw::BlackBoxPtr inner_;
};

/// A registry of the cloud models; with `timed`, every model wrapped in a
/// TimedBlackBox (scripts bound against it call the decorators). Serial
/// twins use an untimed one, so traced results are checked against
/// undecorated models.
jigsaw::Result<std::unique_ptr<jigsaw::ModelRegistry>> CloudModels(bool timed);

/// Scenario column timed as a "pdb.program" span per call (the compiled
/// BatchProgram behind the column, minus the model calls under it).
class TimedSimFunction final : public jigsaw::SimFunction {
 public:
  explicit TimedSimFunction(jigsaw::SimFunctionPtr inner)
      : inner_(std::move(inner)) {}

  const std::string& label() const override { return inner_->label(); }
  double Sample(std::span<const double> params, std::size_t sample_id,
                const jigsaw::SeedVector& seeds) const override;
  void SampleBatch(std::span<const double> params, std::size_t sample_begin,
                   const jigsaw::SeedVector& seeds,
                   std::span<double> out) const override;

 private:
  jigsaw::SimFunctionPtr inner_;
};

/// Wraps every column of `scenario` in a TimedSimFunction.
void TimeScenarioColumns(jigsaw::Scenario* scenario);

}  // namespace perfbench
