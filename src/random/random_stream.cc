#include "random/random_stream.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace jigsaw {

namespace {

constexpr double kTwoLn2 = 1.3862943611198906188344642429164;
constexpr double kTwoPiSquared = 19.739208802178717237668981999752;
constexpr double kTwoPiFourthOverThree = 64.939394022668291490960221792470;

/// For u1 = (1 + f) 2^-e (e >= 1, 0 <= f < 1),
///   -2 ln u1 = 2 (e - 1) ln 2 + 2 ln(2 / (1 + f)),
/// and with j = floor(256 f), u1's top 8 mantissa bits, the last term
/// lies in [tail[j + 1], tail[j]], where tail[k] = 2 ln(512 / (256 + k))
/// = 2 log1p((256 - k) / (256 + k)) for k = 0..256. Every term is >= 0
/// and tail[256] is exactly 0, so the bounds carry only relative
/// rounding error.
const double* SquareRadiusTail() {
  static const std::array<double, 257> table = [] {
    std::array<double, 257> t{};
    for (int k = 0; k <= 256; ++k) {
      t[k] = 2.0 * std::log1p((256.0 - k) / (256.0 + k));
    }
    return t;
  }();
  return table.data();
}

/// RandomStream::SquareRadiusBounds with the table passed in, so a loop
/// fetches it once.
RandomStream::Bounds SquareRadiusBoundsFrom(const double* tail, double u1) {
  // u1 = 0 reads as 2^-53, whose biased exponent is 970 and whose top
  // mantissa bits are 0, like u1 = 0's.
  const auto bits = std::bit_cast<std::uint64_t>(u1);
  const auto biased = std::max<std::uint64_t>(bits >> 52, 970);
  const double head =
      static_cast<double>(static_cast<std::int64_t>(1022 - biased)) * kTwoLn2;
  const std::size_t j = (bits >> 44) & 255;
  return {head + tail[j + 1], head + tail[j]};
}

}  // namespace

double RandomStream::Gaussian() {
  const double u1 = NextDouble();
  const double u2 = NextDouble();
  return BoxMullerRadius(u1) * BoxMullerCos(u2);
}

RandomStream::Bounds RandomStream::SquareRadiusBounds(double u1) {
  return SquareRadiusBoundsFrom(SquareRadiusTail(), u1);
}

RandomStream::Bounds RandomStream::CosBounds(bool negative, double u2) {
  // cos(2 pi delta), delta = u2's distance from where the signed cos
  // peaks (0, or 1/2 when negated), lies between 1 - t^2/2 and both
  // 1 - t^2/2 + t^4/24 and 1 - 8 delta^2, t = 2 pi delta.
  const double off = std::fabs(u2 - (negative ? 0.5 : 0.0));
  const double delta = std::min(off, 1.0 - off);
  const double d2 = delta * delta;
  const double lo = 1.0 - kTwoPiSquared * d2;
  const double hi =
      std::min(lo + kTwoPiFourthOverThree * (d2 * d2), 1.0 - 8.0 * d2);
  return {lo, hi};
}

void RandomStream::MaxLogNormal(double sigma, int depth,
                                std::span<double> peaks) {
  const double scale = std::fabs(sigma);
  if (depth < kMaxLogNormalMinBoundedDepth ||
      !(scale >= 1e-150 && scale <= 1e150)) {
    for (double& peak : peaks) {
      peak = 0.0;
      for (int d = 0; d < depth; ++d) {
        peak = std::max(peak, LogNormal(0.0, sigma));
      }
    }
    return;
  }
  const bool negative = sigma < 0.0;
  const double* tail = SquareRadiusTail();
  double u1[kMaxLogNormalBlock], u2[kMaxLogNormalBlock];
  double upper[kMaxLogNormalBlock], x[kMaxLogNormalBlock];
  std::uint32_t kept[kMaxLogNormalBlock];
  for (double& peak : peaks) {
    peak = 0.0;
    // best = max over the slot's draws of (radius * cos)^2's lower bound,
    // signed like cos; upper[i] is draw i's upper bound, signed alike.
    double best = 0.0;
    for (auto owed = static_cast<std::size_t>(depth); owed > 0;) {
      const std::size_t len = std::min(owed, kMaxLogNormalBlock);
      owed -= len;
      for (std::size_t i = 0; i < len; ++i) {
        u1[i] = NextDouble();
        u2[i] = NextDouble();
        const Bounds r2 = SquareRadiusBoundsFrom(tail, u1[i]);
        const Bounds c = CosBounds(negative, u2[i]);
        upper[i] = r2.hi * (c.hi * std::fabs(c.hi));
        best = std::max(best, r2.lo * (c.lo * std::fabs(c.lo)));
      }
      // Some draw's exponent is at least `floor`, so a draw whose upper
      // bound is below it cannot win. A floor <= 0 keeps every draw.
      const double floor = scale * std::sqrt(best) * (1.0 - 1e-7) - 1e-9;
      const double reach = floor / scale;
      const double cut = floor > 0.0 ? reach * reach : -HUGE_VAL;
      std::size_t m = 0;
      for (std::size_t i = 0; i < len; ++i) {
        kept[m] = static_cast<std::uint32_t>(i);
        m += upper[i] >= cut;
      }
      double top = -HUGE_VAL;
      for (std::size_t k = 0; k < m; ++k) {
        const std::uint32_t i = kept[k];
        x[k] = 0.0 + sigma * (BoxMullerRadius(u1[i]) * BoxMullerCos(u2[i]));
        top = std::max(top, x[k]);
      }
      // Only exponents within the margin of the best need their exp. A
      // best at or below -700 (exp near or past underflow) skips none.
      const double exp_cut =
          top > -700.0 ? top - 1e-9 * (1.0 + std::fabs(top)) : -HUGE_VAL;
      for (std::size_t k = 0; k < m; ++k) {
        if (x[k] < exp_cut) continue;
        peak = std::max(peak, std::exp(x[k]));
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
