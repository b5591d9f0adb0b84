#include "core/parameter_space.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw {

std::size_t ParameterDef::cardinality() const {
  if (const auto* range = std::get_if<RangeDomain>(&domain)) {
    JIGSAW_CHECK_MSG(range->step > 0.0, "non-positive RANGE step");
    // Tolerate floating point drift at the upper bound.
    const double eps = range->step * 1e-9;
    const double span = (range->hi + eps - range->lo) / range->step;
    if (!std::isfinite(span) || span < 0.0) return 0;  // empty/degenerate
    // ParameterSpace::Add and the MONTECARLO OVER binder bound the span
    // with clean errors; a directly-constructed def violating it is a
    // programming bug (the cast below is UB past SIZE_MAX).
    JIGSAW_CHECK_MSG(span < 1e15, "RANGE spans too many values");
    return static_cast<std::size_t>(span) + 1;
  }
  if (const auto* set = std::get_if<SetDomain>(&domain)) {
    return set->values.size();
  }
  return 0;  // CHAIN: not enumerated
}

double ParameterDef::ValueAt(std::size_t i) const {
  // Index-stepped (lo + i*step) rather than accumulated (v += step):
  // accumulation never terminates when lo + step rounds back to lo (e.g.
  // lo=1e16, step=1) and drifts over long fractional-step grids.
  if (const auto* range = std::get_if<RangeDomain>(&domain)) {
    return range->lo + static_cast<double>(i) * range->step;
  }
  const auto* set = std::get_if<SetDomain>(&domain);
  JIGSAW_CHECK_MSG(set != nullptr, "CHAIN parameters are not enumerated");
  return set->values[i];
}

std::vector<double> ParameterDef::Values() const {
  const std::size_t n = cardinality();
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(ValueAt(i));
  return out;
}

Status ParameterSpace::Add(ParameterDef def) {
  if (IndexOf(def.name)) {
    return Status::AlreadyExists("parameter '@" + def.name +
                                 "' declared twice");
  }
  if (const auto* range = std::get_if<RangeDomain>(&def.domain)) {
    if (range->step <= 0.0) {
      return Status::InvalidArgument("parameter '@" + def.name +
                                     "' has non-positive STEP");
    }
    if (range->hi < range->lo) {
      return Status::InvalidArgument("parameter '@" + def.name +
                                     "' has empty RANGE");
    }
    // Bound the grid: Values() enumerates the whole range into a vector,
    // so a non-finite bound or an absurd span must fail here with a clean
    // error rather than abort (or overflow a size_t) when it is counted
    // or enumerated.
    if (!std::isfinite(range->lo) || !std::isfinite(range->hi) ||
        !std::isfinite(range->step)) {
      return Status::InvalidArgument("parameter '@" + def.name +
                                     "' has non-finite RANGE bounds");
    }
    if ((range->hi - range->lo) / range->step >= 1e8) {
      return Status::InvalidArgument("parameter '@" + def.name +
                                     "' RANGE spans more than 100000000 "
                                     "values");
    }
  }
  if (const auto* set = std::get_if<SetDomain>(&def.domain)) {
    if (set->values.empty()) {
      return Status::InvalidArgument("parameter '@" + def.name +
                                     "' has empty SET");
    }
  }
  // NumPoints() multiplies the cardinalities in size_t: a grid that
  // overflows it would wrap (to 0 for three 2^26-value ranges).
  const std::size_t card = def.cardinality();
  if (card != 0 && NumPoints() > SIZE_MAX / card) {
    return Status::InvalidArgument(
        "parameter '@" + def.name + "' makes the parameter grid overflow: " +
        std::to_string(NumPoints()) + " x " + std::to_string(card) +
        " points");
  }
  defs_.push_back(std::move(def));
  return Status::OK();
}

std::optional<std::size_t> ParameterSpace::IndexOf(
    const std::string& name) const {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (EqualsIgnoreCase(defs_[i].name, name)) return i;
  }
  return std::nullopt;
}

std::size_t ParameterSpace::NumPoints() const {
  std::size_t n = 1;
  for (const auto& d : defs_) {
    if (d.is_chain()) continue;
    n *= d.cardinality();
  }
  return n;
}

std::vector<double> ParameterSpace::ValuationAt(std::size_t idx) const {
  std::vector<double> out(defs_.size(), 0.0);
  // Row-major: last non-chain parameter varies fastest.
  std::size_t remaining = idx;
  for (std::size_t i = defs_.size(); i-- > 0;) {
    const auto& d = defs_[i];
    if (d.is_chain()) {
      out[i] = std::get<ChainDomain>(d.domain).initial;
      continue;
    }
    const std::size_t card = d.cardinality();
    out[i] = d.ValueAt(remaining % card);
    remaining /= card;
  }
  JIGSAW_CHECK_MSG(remaining == 0, "valuation index out of range");
  return out;
}

}  // namespace jigsaw
