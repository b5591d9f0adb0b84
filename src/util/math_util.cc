#include "util/math_util.h"

#include <algorithm>

#include "util/logging.h"

namespace jigsaw {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  JIGSAW_CHECK_MSG(!sorted.empty(), "quantile of empty vector");
  JIGSAW_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of range: " << q);
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

double QuantileSelect(std::vector<double>& values, double q,
                      std::size_t copies) {
  JIGSAW_CHECK_MSG(!values.empty(), "quantile of empty vector");
  JIGSAW_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of range: " << q);
  JIGSAW_CHECK_MSG(copies >= 1, "quantile of zero copies");
  const std::size_t size = values.size() * copies;
  if (size == 1) return values[0];
  const double pos = q * static_cast<double>(size - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, size - 1);
  const double frac = pos - static_cast<double>(lo);
  // Ranks lo and hi of the copies' order are these ranks of `values`.
  const std::size_t value_lo = lo / copies;
  const std::size_t value_hi = hi / copies;
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(value_lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double a = values[value_lo];
  // After the selection every element right of `value_lo` is >= it, so
  // the order statistic one rank up is the minimum of that tail. The
  // interpolation below mirrors QuantileSorted term for term — including
  // the degenerate hi == lo endpoint — so the bits match.
  const double b = value_hi == value_lo
                       ? a
                       : *std::min_element(lo_it + 1, values.end());
  return a * (1.0 - frac) + b * frac;
}

}  // namespace jigsaw
