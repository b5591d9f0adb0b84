#pragma once

/// \file random_stream.h
/// RandomStream is the single source of randomness handed to black-box
/// functions. All distribution algorithms are implemented explicitly (no
/// std::*_distribution) so that a given seed produces bit-identical sample
/// sequences on every platform — the property fingerprints depend on.
/// Every uniform comes from one seeded Xoshiro256 engine.

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

  /// Bounds MaxLogNormal prunes with, computed without libm: each holds
  /// lo <= value <= hi up to rounding far inside MaxLogNormal's margins.
  struct Bounds {
    double lo;
    double hi;
  };
  /// BoxMullerRadius(u1)^2 = -2 ln u1, for u1 = 0 (read as 2^-53) or in
  /// [2^-53, 1), from u1's exponent and top 8 mantissa bits.
  static Bounds SquareRadiusBounds(double u1);
  /// BoxMullerCos(u2), negated when `negative`, for u2 in [0, 1).
  static Bounds CosBounds(bool negative, double u2);

  /// Most draws MaxLogNormal holds at once: a slot deeper than a block
  /// folds its draws one block at a time. Its scratch is four blocks of
  /// doubles and one of 32-bit indices (36 KiB) on the caller's stack.
  static constexpr std::size_t kMaxLogNormalBlock = 1024;
  /// Shallowest depth at which MaxLogNormal bounds its draws: below it
  /// the bounds cost more than the libm calls they save, and each slot
  /// runs the plain loop.
  static constexpr int kMaxLogNormalMinBoundedDepth = 3;

  /// Fills each peaks[i], slot after slot, with the max of `depth`
  /// LogNormal(0, sigma) draws. Slot i is bit-identical to
  ///   double peak = 0.0;
  ///   for (int d = 0; d < depth; ++d)
  ///     peak = std::max(peak, LogNormal(0.0, sigma));
  /// and the stream ends where that loop leaves it, having consumed the
  /// same uniforms. Only the draws that can win pay for log, sqrt, cos
  /// and exp. Each draw's exponent x = sigma * radius * cos lies between
  /// bounds built without libm: radius^2 = -2 ln u1 from u1's exponent
  /// and top 8 mantissa bits (a 257-entry log1p table), cos(2 pi delta)
  /// between 1 - t^2/2 and min(1 - t^2/2 + t^4/24, 1 - 8 delta^2), with
  /// t = 2 pi delta and delta u2's distance from 0 on the unit circle (from
  /// 1/2 when sigma < 0). A slot's floor is its best lower bound less
  /// 1e-7 of itself and 1e-9; only draws whose upper bound reaches the
  /// floor take the exact BoxMullerRadius(u1) * BoxMullerCos(u2), and only
  /// exponents within 1e-9 * (1 + |best|) of the slot's best take exp
  /// while that best is above -700 (so its exp is a normal number). The
  /// margins are far wider than any table, rounding or libm error, so a
  /// skipped draw's exp is strictly below a kept one's and no
  /// monotonicity of exp is assumed; the evaluation order does not
  /// matter because exp never returns -0 and std::max(peak, NaN) keeps
  /// peak. A slot whose floor is <= 0 keeps every draw; depths below
  /// kMaxLogNormalMinBoundedDepth and |sigma| outside [1e-150, 1e150]
  /// (or NaN) run the plain loop.
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

  Xoshiro256 engine_;
};

}  // namespace jigsaw
