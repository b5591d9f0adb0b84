#pragma once

/// \file random_stream.h
/// RandomStream is the single source of randomness handed to black-box
/// functions. All distribution algorithms are implemented explicitly (no
/// std::*_distribution) so that a given seed produces bit-identical sample
/// sequences on every platform — the property fingerprints depend on.
/// Every uniform comes from one seeded Xoshiro256 engine.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "random/xoshiro256.h"

namespace jigsaw {

class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform 64-bit word.
  std::uint64_t NextUint64() { return engine_.Next(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(engine_.Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal via the trigonometric Box-Muller transform. Both
  /// variates are computed and one is discarded: the stream then advances
  /// by a fixed amount per call, which keeps call sites independent of
  /// previous Gaussian parity (no cached spare).
  double Gaussian();

  /// The two factors of Gaussian() = BoxMullerRadius(u1) *
  /// BoxMullerCos(u2), for the uniforms (u1, u2) it draws in that order.
  /// Every kernel that must reproduce Gaussian()'s bits calls these, so
  /// the formula exists once. The radius maps u1 <= 0 to 2^-53 (no
  /// log(0)).
  static double BoxMullerRadius(double u1) {
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1));
  }
  static double BoxMullerCos(double u2) { return std::cos(kTwoPi * u2); }

  /// Bounds on the exponent x = 0.0 + sigma * radius * BoxMullerCos(u2)
  /// that LogNormal(0, sigma) passes to exp, known before cos runs:
  /// |x| <= upper = |sigma| * radius, and x >= lower, the cos t >=
  /// 1 - t^2/2 bound |sigma| * radius * (1 - 2 pi^2 delta^2) minus a
  /// margin of 1e-9 * (1 + upper). delta is the distance of u2 from 0 on
  /// the unit circle, or from 1/2 when sigma < 0 (where -cos peaks). The
  /// margin dwarfs every rounding error of x and of the bound, so a draw
  /// whose upper is below another draw's lower has the smaller exponent,
  /// by about 1e-9 or more. A NaN or infinite sigma can make lower NaN.
  struct ExponentBounds {
    double lower;
    double upper;
  };
  static ExponentBounds LogNormalExponentBounds(double sigma, double radius,
                                                double u2) {
    const double upper = std::fabs(sigma) * radius;
    const double off = std::fabs(u2 - (sigma < 0.0 ? 0.5 : 0.0));
    const double delta = std::min(off, 1.0 - off);
    const double cos_floor = 1.0 - kTwoPiSquared * (delta * delta);
    return {upper * cos_floor - 1e-9 * (1.0 + upper), upper};
  }

  /// Draws per block of the MaxLogNormal kernel; its scratch is three
  /// blocks of doubles (96 KiB) on the caller's stack.
  static constexpr std::size_t kMaxLogNormalBlock = 4096;

  /// Fills each peaks[i], slot after slot, with the max of `depth`
  /// LogNormal(0, sigma) draws. Slot i is bit-identical to
  ///   double peak = 0.0;
  ///   for (int d = 0; d < depth; ++d)
  ///     peak = std::max(peak, LogNormal(0.0, sigma));
  /// and the stream ends where that loop leaves it, having consumed the
  /// same uniforms. Only the draws that can win pay for cos and exp: a
  /// block's radii come first, cos runs only where a draw's upper bound
  /// reaches the slot's best lower bound (LogNormalExponentBounds), and
  /// exp only on exponents within 1e-9 * (1 + |best|) of the slot's best
  /// while that best is above -700 (so its exp is a normal number). The
  /// margins are far wider than any libm cos or exp error, so no
  /// monotonicity is assumed; the evaluation order does not matter
  /// because exp never returns -0 and std::max(peak, NaN) keeps peak.
  void MaxLogNormal(double sigma, int depth, std::span<double> peaks);

  /// Normal with the given mean/stddev.
  double Normal(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Exponential with rate lambda (mean 1/lambda) by inversion.
  double Exponential(double lambda);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Poisson. Knuth's product method for small means; for mean >= 30 a
  /// normal approximation with continuity correction (adequate for the
  /// workload models and fully deterministic).
  std::int64_t Poisson(double mean);

  /// LogNormal with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma) {
    return std::exp(Normal(mu, sigma));
  }

 private:
  static constexpr double kTwoPi = 6.283185307179586476925286766559;
  static constexpr double kTwoPiSquared = 19.739208802178717237668981999752;

  Xoshiro256 engine_;
};

}  // namespace jigsaw
