#include "models/black_box.h"

#include <bit>

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw {

void BlackBox::EvalBatch(std::span<const double> params, SeedSpan seeds,
                         std::uint64_t call_site,
                         std::span<double> out) const {
  JIGSAW_DCHECK(seeds.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    RandomStream rng = StreamForSigma(seeds[i], call_site);
    out[i] = Eval(params, rng);
  }
}

void BlackBox::AppendDrawKey(std::span<const double> params,
                             std::vector<std::uint64_t>* key) const {
  for (const double p : params) key->push_back(std::bit_cast<std::uint64_t>(p));
}

Status ModelRegistry::Register(BlackBoxPtr model) {
  if (Contains(model->name())) {
    return Status::AlreadyExists("model already registered: " +
                                 model->name());
  }
  models_.push_back(std::move(model));
  return Status::OK();
}

void ModelRegistry::RegisterOrReplace(BlackBoxPtr model) {
  for (auto& m : models_) {
    if (EqualsIgnoreCase(m->name(), model->name())) {
      m = std::move(model);
      return;
    }
  }
  models_.push_back(std::move(model));
}

Result<BlackBoxPtr> ModelRegistry::Lookup(const std::string& name) const {
  for (const auto& m : models_) {
    if (EqualsIgnoreCase(m->name(), name)) return m;
  }
  return Status::NotFound("no model named '" + name + "'");
}

bool ModelRegistry::Contains(const std::string& name) const {
  for (const auto& m : models_) {
    if (EqualsIgnoreCase(m->name(), name)) return true;
  }
  return false;
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& m : models_) names.push_back(m->name());
  return names;
}

}  // namespace jigsaw
