#include "decorators.h"

#include <memory>

#include "models/cloud_models.h"
#include "trace.h"

namespace perfbench {

double TimedBlackBox::Eval(std::span<const double> params,
                           jigsaw::RandomStream& rng) const {
  ScopedSpan span(SpanKind::kModelsEval, 1);
  return inner_->Eval(params, rng);
}

void TimedBlackBox::EvalBatch(std::span<const double> params,
                              jigsaw::SeedSpan seeds,
                              std::uint64_t call_site,
                              std::span<double> out) const {
  ScopedSpan span(SpanKind::kModelsEval,
                  static_cast<std::uint32_t>(out.size()));
  inner_->EvalBatch(params, seeds, call_site, out);
}

jigsaw::Result<std::unique_ptr<jigsaw::ModelRegistry>> CloudModels(bool timed) {
  auto registry = std::make_unique<jigsaw::ModelRegistry>();
  JIGSAW_RETURN_IF_ERROR(jigsaw::RegisterCloudModels(registry.get()));
  if (timed) {
    for (const std::string& name : registry->ModelNames()) {
      JIGSAW_ASSIGN_OR_RETURN(jigsaw::BlackBoxPtr model,
                              registry->Lookup(name));
      registry->RegisterOrReplace(
          std::make_shared<TimedBlackBox>(std::move(model)));
    }
  }
  return registry;
}

double TimedSimFunction::Sample(std::span<const double> params,
                                std::size_t sample_id,
                                const jigsaw::SeedVector& seeds) const {
  ScopedSpan span(SpanKind::kPdbProgram, 1);
  return inner_->Sample(params, sample_id, seeds);
}

void TimedSimFunction::SampleBatch(std::span<const double> params,
                                   std::size_t sample_begin,
                                   const jigsaw::SeedVector& seeds,
                                   std::span<double> out) const {
  ScopedSpan span(SpanKind::kPdbProgram,
                  static_cast<std::uint32_t>(out.size()));
  inner_->SampleBatch(params, sample_begin, seeds, out);
}

void TimeScenarioColumns(jigsaw::Scenario* scenario) {
  for (auto& column : scenario->columns) {
    column.fn = std::make_shared<TimedSimFunction>(column.fn);
  }
}

}  // namespace perfbench
