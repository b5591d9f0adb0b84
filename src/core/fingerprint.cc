#include "core/fingerprint.h"

#include "util/logging.h"
#include "util/math_util.h"

namespace jigsaw {

std::optional<std::pair<std::size_t, std::size_t>>
Fingerprint::FirstTwoDistinct(double tol) const {
  if (values_.size() < 2) return std::nullopt;
  const double first = values_[0];
  for (std::size_t i = 1; i < values_.size(); ++i) {
    if (!ApproxEqual(values_[i], first, tol)) return std::make_pair(0UL, i);
  }
  return std::nullopt;
}

Fingerprint ComputeFingerprint(const SimFunction& fn,
                               std::span<const double> params,
                               const SeedVector& seeds, std::size_t m) {
  JIGSAW_CHECK_MSG(m <= seeds.size(),
                   "fingerprint size " << m << " exceeds seed vector size "
                                       << seeds.size());
  std::vector<double> values(m);
  fn.SampleBatch(params, 0, seeds, values);
  return Fingerprint(std::move(values));
}

}  // namespace jigsaw
