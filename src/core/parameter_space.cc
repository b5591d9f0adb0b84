#include "core/parameter_space.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ranges>
#include <string>

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw {

namespace {

/// ParameterSpace::Add's cap on one declared domain.
constexpr std::size_t kMaxDeclaredValues = 100000000;

}  // namespace

std::size_t ParameterDef::cardinality() const {
  if (const auto* range = std::get_if<RangeDomain>(&domain)) {
    JIGSAW_CHECK_MSG(range->step > 0.0, "non-positive RANGE step");
    // Tolerate floating point drift at the upper bound.
    const double eps = range->step * 1e-9;
    const double span = (range->hi + eps - range->lo) / range->step;
    if (!std::isfinite(span) || span < 0.0) return 0;  // empty/degenerate
    // Validate bounds the span with a clean error; a def that skipped it
    // and violates it is a programming bug (the cast below is UB past
    // SIZE_MAX).
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

Status ParameterDef::Validate(std::size_t max_values) const {
  const std::string who = "parameter '@" + name + "'";
  const std::string cap = std::to_string(max_values);
  if (const auto* range = std::get_if<RangeDomain>(&domain)) {
    if (range->step <= 0.0) {
      return Status::InvalidArgument(who + " has non-positive STEP");
    }
    if (range->hi < range->lo) {
      return Status::InvalidArgument(who + " has empty RANGE");
    }
    if (!std::isfinite(range->lo) || !std::isfinite(range->hi) ||
        !std::isfinite(range->step)) {
      return Status::InvalidArgument(who + " has non-finite RANGE bounds");
    }
    // The span test comes first: it keeps cardinality()'s count below
    // its own abort bound.
    if ((range->hi - range->lo) / range->step >=
            static_cast<double>(max_values) ||
        cardinality() > max_values) {
      return Status::InvalidArgument(who + " RANGE spans more than " + cap +
                                     " values");
    }
  }
  if (const auto* set = std::get_if<SetDomain>(&domain)) {
    if (set->values.empty()) {
      return Status::InvalidArgument(who + " has empty SET");
    }
    for (double v : set->values) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(who + " has a non-finite SET value");
      }
    }
    if (set->values.size() > max_values) {
      return Status::InvalidArgument(who + " SET holds more than " + cap +
                                     " values");
    }
  }
  return Status::OK();
}

Status ParameterSpace::Add(ParameterDef def) {
  if (IndexOf(def.name)) {
    return Status::AlreadyExists("parameter '@" + def.name +
                                 "' declared twice");
  }
  JIGSAW_RETURN_IF_ERROR(def.Validate(kMaxDeclaredValues));
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

Result<std::size_t> ParameterSpace::PointIndexOf(
    std::span<const double> valuation) const {
  JIGSAW_CHECK_MSG(valuation.size() == defs_.size(),
                   "valuation has the wrong arity");
  std::size_t idx = 0;
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    const ParameterDef& d = defs_[i];
    if (d.is_chain()) continue;
    const double v = valuation[i];
    const std::size_t card = d.cardinality();
    std::size_t pos = card;
    if (const auto* set = std::get_if<SetDomain>(&d.domain)) {
      pos = static_cast<std::size_t>(
          std::find(set->values.begin(), set->values.end(), v) -
          set->values.begin());
    } else {
      // ValueAt is non-decreasing in i, so the first i with
      // ValueAt(i) >= v is the first match when v is there at all.
      const auto indices = std::views::iota(std::size_t{0}, card);
      const auto it = std::ranges::partition_point(
          indices, [&](std::size_t j) { return d.ValueAt(j) < v; });
      if (it != indices.end() && d.ValueAt(*it) == v) pos = *it;
    }
    if (pos == card) {
      return Status::InvalidArgument("parameter '@" + d.name +
                                     "' has no value " + DoubleToString(v) +
                                     " in its declared domain");
    }
    idx = idx * card + pos;
  }
  return idx;
}

}  // namespace jigsaw
