// Tests for the deterministic random substrate. Determinism (same seed ->
// bit-identical sequence) is a hard requirement: fingerprints compare
// seeded outputs across parameter values and would silently stop matching
// if any distribution consumed platform-dependent randomness.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "random/philox.h"
#include "random/random_stream.h"
#include "random/seed_vector.h"
#include "random/splitmix64.h"
#include "random/xoshiro256.h"

namespace jigsaw {
namespace {

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro256Test, Deterministic) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Xoshiro256Test, JumpProducesDisjointStream) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  b.Jump();
  // The jumped stream should not collide with the head of the original.
  std::vector<std::uint64_t> head;
  for (int i = 0; i < 64; ++i) head.push_back(a.Next());
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v = b.Next();
    for (auto h : head) EXPECT_NE(v, h);
  }
}

TEST(PhiloxTest, BlockIsDeterministicAndKeySensitive) {
  std::uint64_t a0, a1, b0, b1;
  Philox4x32::Block64(1, 2, 3, &a0, &a1);
  Philox4x32::Block64(1, 2, 3, &b0, &b1);
  EXPECT_EQ(a0, b0);
  EXPECT_EQ(a1, b1);
  Philox4x32::Block64(1, 2, 4, &b0, &b1);
  EXPECT_NE(a0, b0);
  Philox4x32::Block64(2, 2, 3, &b0, &b1);
  EXPECT_NE(a0, b0);
}

TEST(PhiloxTest, DeriveStreamSeedSeparatesCallSites) {
  const std::uint64_t sigma = 42;
  EXPECT_NE(DeriveStreamSeed(sigma, 0), DeriveStreamSeed(sigma, 1));
  EXPECT_NE(DeriveStreamSeed(1, 0), DeriveStreamSeed(2, 0));
  EXPECT_EQ(DeriveStreamSeed(5, 9), DeriveStreamSeed(5, 9));
}

TEST(RandomStreamTest, NextDoubleInUnitInterval) {
  RandomStream rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomStreamTest, UniformRespectsBounds) {
  RandomStream rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RandomStreamTest, GaussianMomentsApproximatelyStandard) {
  RandomStream rng(14);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.Gaussian();
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RandomStreamTest, GaussianAdvancesStreamByFixedAmount) {
  // Two streams that interleave Gaussian with other draws must stay in
  // lockstep: Gaussian always consumes exactly two uniforms.
  RandomStream a(15), b(15);
  a.Gaussian();
  b.NextDouble();
  b.NextDouble();
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomStreamTest, NormalScalesAndShifts) {
  RandomStream a(16), b(16);
  const double z = a.Gaussian();
  const double n = b.Normal(10.0, 2.0);
  EXPECT_DOUBLE_EQ(n, 10.0 + 2.0 * z);
}

TEST(RandomStreamTest, ExponentialMeanMatchesRate) {
  RandomStream rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RandomStreamTest, ExponentialAlwaysPositive) {
  RandomStream rng(18);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.Exponential(3.0), 0.0);
}

TEST(RandomStreamTest, BernoulliFrequency) {
  RandomStream rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RandomStreamTest, PoissonSmallMean) {
  RandomStream rng(20);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(2.5));
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RandomStreamTest, PoissonLargeMeanUsesNormalApprox) {
  RandomStream rng(21);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(RandomStreamTest, PoissonZeroMean) {
  RandomStream rng(22);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RandomStreamTest, LogNormalMedian) {
  RandomStream rng(27);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.LogNormal(1.0, 0.5));
  std::sort(xs.begin(), xs.end());
  // Median of lognormal(mu, sigma) is e^mu.
  EXPECT_NEAR(xs[xs.size() / 2], std::exp(1.0), 0.1);
}

// ---------------------------------------------------------------------------
// SeedVector
// ---------------------------------------------------------------------------

TEST(SeedVectorTest, DeterministicExpansion) {
  SeedVector a(555, 100), b(555, 100);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.seed(i), b.seed(i));
  // Entry k does not depend on the vector's size: vectors built at 4, 9
  // and 64 agree on their common prefix. That is why a sweep's world ids
  // are an interactive session's sample ids.
  const SeedVector s4(555, 4), s9(555, 9), s64(555, 64);
  for (std::size_t k = 0; k < s64.size(); ++k) {
    EXPECT_EQ(s64.seed(k), a.seed(k)) << "entry " << k;
    if (k < s9.size()) {
      EXPECT_EQ(s9.seed(k), a.seed(k)) << "entry " << k;
    }
    if (k < s4.size()) {
      EXPECT_EQ(s4.seed(k), a.seed(k)) << "entry " << k;
    }
  }
}

TEST(SeedVectorTest, DistinctSeedsWithinVector) {
  SeedVector sv(777, 1000);
  for (std::size_t i = 1; i < sv.size(); ++i) {
    EXPECT_NE(sv.seed(i), sv.seed(0));
  }
}

TEST(SeedVectorTest, StreamForIsReproducibleAndSiteSeparated) {
  SeedVector sv(999, 10);
  RandomStream a = sv.StreamFor(3, 1);
  RandomStream b = sv.StreamFor(3, 1);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  RandomStream c = sv.StreamFor(3, 2);
  RandomStream d = sv.StreamFor(4, 1);
  RandomStream e = sv.StreamFor(3, 1);
  const std::uint64_t head = e.NextUint64();
  EXPECT_NE(c.NextUint64(), head);
  EXPECT_NE(d.NextUint64(), head);
}

}  // namespace
}  // namespace jigsaw
