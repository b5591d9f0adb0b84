#include "random/random_stream.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace jigsaw {

namespace {

/// Folds one slot's run of `len` draws, given by their radii r[i] and
/// angle uniforms u2[i], into `peak` as std::max(peak, LogNormal) would.
/// `x` is scratch for the exponents of the draws that can win.
double MaxLogNormalRun(double sigma, const double* r, const double* u2,
                       std::size_t len, double* x, double peak) {
  // Some draw's exponent is at least `floor`...
  double floor = -HUGE_VAL;
  for (std::size_t i = 0; i < len; ++i) {
    const double lower =
        RandomStream::LogNormalExponentBounds(sigma, r[i], u2[i]).lower;
    if (lower > floor) floor = lower;
  }
  // ...so only draws whose upper bound reaches it need their cos.
  std::size_t m = 0;
  double best = -HUGE_VAL;
  for (std::size_t i = 0; i < len; ++i) {
    if (RandomStream::LogNormalExponentBounds(sigma, r[i], u2[i]).upper <
        floor) {
      continue;
    }
    const double xi = 0.0 + sigma * (r[i] * RandomStream::BoxMullerCos(u2[i]));
    if (xi > best) best = xi;
    x[m++] = xi;
  }
  // And only exponents within the margin of the best need their exp. A
  // best at or below -700 (exp near or past underflow) or at +inf (NaN
  // cut) skips none.
  const double cut =
      best > -700.0 ? best - 1e-9 * (1.0 + std::fabs(best)) : -HUGE_VAL;
  for (std::size_t j = 0; j < m; ++j) {
    if (x[j] < cut) continue;
    peak = std::max(peak, std::exp(x[j]));
  }
  return peak;
}

}  // namespace

double RandomStream::Gaussian() {
  const double u1 = NextDouble();
  const double u2 = NextDouble();
  return BoxMullerRadius(u1) * BoxMullerCos(u2);
}

void RandomStream::MaxLogNormal(double sigma, int depth,
                                std::span<double> peaks) {
  if (depth <= 0) {  // no draws: every peak keeps the loop's 0.0
    std::fill(peaks.begin(), peaks.end(), 0.0);
    return;
  }
  const auto d = static_cast<std::size_t>(depth);
  double r[kMaxLogNormalBlock], u2[kMaxLogNormalBlock], x[kMaxLogNormalBlock];
  std::size_t slot = 0;
  std::size_t owed = d;  // draws the current slot still takes
  double peak = 0.0;
  while (slot < peaks.size()) {
    // A block never draws past the last slot's last draw.
    const std::size_t later_slots = peaks.size() - slot - 1;
    const std::size_t count =
        later_slots >= kMaxLogNormalBlock
            ? kMaxLogNormalBlock
            : std::min(kMaxLogNormalBlock, owed + later_slots * d);
    for (std::size_t i = 0; i < count; ++i) {
      const double u1 = NextDouble();
      u2[i] = NextDouble();
      r[i] = BoxMullerRadius(u1);
    }
    // Each slot's draws in this block form one run; a slot that straddles
    // two blocks carries its peak over.
    for (std::size_t i = 0; i < count;) {
      const std::size_t len = std::min(owed, count - i);
      peak = MaxLogNormalRun(sigma, r + i, u2 + i, len, x, peak);
      i += len;
      owed -= len;
      if (owed == 0) {
        peaks[slot++] = peak;
        peak = 0.0;
        owed = d;
      }
    }
  }
}

double RandomStream::Exponential(double lambda) {
  JIGSAW_DCHECK(lambda > 0.0);
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

std::int64_t RandomStream::Poisson(double mean) {
  JIGSAW_DCHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double prod = NextDouble();
    while (prod > limit) {
      ++k;
      prod *= NextDouble();
    }
    return k;
  }
  const double v = mean + std::sqrt(mean) * Gaussian() + 0.5;
  return v < 0.0 ? 0 : static_cast<std::int64_t>(v);
}

}  // namespace jigsaw
