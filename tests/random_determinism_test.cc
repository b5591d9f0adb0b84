// Determinism guarantees the engine's correctness argument rests on:
// every generator is a pure function of its seed, sample streams derived
// from a SeedVector are reproducible and mutually independent, and
// nothing about evaluation order or thread scheduling can perturb the
// draws a given (sample, call-site) cell sees.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "random/philox.h"
#include "random/random_stream.h"
#include "random/seed_vector.h"
#include "random/splitmix64.h"
#include "random/xoshiro256.h"

namespace jigsaw {
namespace {

constexpr std::uint64_t kSeed = 0x5160534A00000001ULL;

// ---------------------------------------------------------------------------
// Engine-level reproducibility
// ---------------------------------------------------------------------------

TEST(SplitMix64Test, SameSeedSameSequence) {
  SplitMix64 a(kSeed), b(kSeed);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, KnownAnswerForSeedZero) {
  // Reference values from the published SplitMix64 algorithm.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.Next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sm.Next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(sm.Next(), 0x06C45D188009454FULL);
}

TEST(Xoshiro256Test, SameSeedSameSequence) {
  Xoshiro256 a(kSeed), b(kSeed);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.Next(), b.Next());
}

TEST(Xoshiro256Test, JumpDecorrelatesStreams) {
  Xoshiro256 a(kSeed), b(kSeed);
  b.Jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.Next() == b.Next());
  EXPECT_EQ(equal, 0);
}

TEST(PhiloxTest, BlockIsPureFunctionOfCounterAndKey) {
  const Philox4x32::Counter ctr{1, 2, 3, 4};
  const Philox4x32::Key key{5, 6};
  EXPECT_EQ(Philox4x32::Block(ctr, key), Philox4x32::Block(ctr, key));
  // Single-bit counter change flips the output block.
  EXPECT_NE(Philox4x32::Block(ctr, key),
            Philox4x32::Block({1, 2, 3, 5}, key));
  EXPECT_NE(Philox4x32::Block(ctr, key), Philox4x32::Block(ctr, {5, 7}));
}

TEST(PhiloxTest, DeriveStreamSeedIsStableAndCallSiteSensitive) {
  const std::uint64_t s = DeriveStreamSeed(kSeed, 7);
  EXPECT_EQ(s, DeriveStreamSeed(kSeed, 7));
  EXPECT_NE(s, DeriveStreamSeed(kSeed, 8));
  EXPECT_NE(s, DeriveStreamSeed(kSeed + 1, 7));
}

TEST(PhiloxTest, DeriveStreamSeedsEqualsScalarDerivationAtEveryLength) {
  // The batch kernels derive a span's stream seeds in one pass; every
  // word must be the scalar derivation's, at every span length through
  // two 64-sample chunks, at raw call sites and at sites salted as the
  // expression evaluators and the Markov hooks salt them. The words
  // either side of the output span must stay untouched.
  const SeedVector seeds(kSeed, 140);
  const std::uint64_t raw_sites[] = {0, 1, 7, 0x8000000000000000ULL,
                                     ~std::uint64_t{0}};
  std::vector<std::uint64_t> sites(std::begin(raw_sites),
                                   std::end(raw_sites));
  for (const std::uint64_t salt :
       {std::uint64_t{0x5A17}, std::uint64_t{1}, ~std::uint64_t{0}}) {
    for (const std::uint64_t site : raw_sites) {
      sites.push_back(CombineSite(site, salt));
    }
  }
  constexpr std::uint64_t kGuard = 0xDEADBEEFDEADBEEFULL;
  for (const std::uint64_t site : sites) {
    for (std::size_t len = 0; len <= 130; ++len) {
      for (const std::size_t begin : {std::size_t{0}, std::size_t{9}}) {
        const SeedSpan sigmas = seeds.span(begin, len);
        std::vector<std::uint64_t> out(len + 2, kGuard);
        DeriveStreamSeeds(sigmas, site,
                          std::span<std::uint64_t>(out.data() + 1, len));
        ASSERT_EQ(out.front(), kGuard) << "site " << site << " len " << len;
        ASSERT_EQ(out.back(), kGuard) << "site " << site << " len " << len;
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(out[i + 1], DeriveStreamSeed(sigmas[i], site))
              << "site " << site << " len " << len << " begin " << begin
              << " sample " << i;
        }
      }
    }
  }
}

TEST(PhiloxTest, DrawEachSampleDrawsEachSampleFromItsScalarStream) {
  // The draw loop the batch kernels share: sample i's stream is
  // StreamForSigma(seeds[i], site), samples run in order, and spans
  // longer than one chunk of stream seeds cross it cleanly.
  const SeedVector seeds(kSeed, 140);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                kStreamSeedChunk - 1, kStreamSeedChunk,
                                kStreamSeedChunk + 1, std::size_t{130}}) {
    std::vector<std::size_t> order;
    std::vector<std::uint64_t> words(len);
    DrawEachSample(seeds.span(3, len), 11,
                   [&](std::size_t i, RandomStream& rng) {
                     order.push_back(i);
                     rng.NextUint64();
                     words[i] = rng.NextUint64();
                   });
    ASSERT_EQ(order.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(order[i], i);
      RandomStream want = StreamForSigma(seeds.seed(3 + i), 11);
      want.NextUint64();
      EXPECT_EQ(words[i], want.NextUint64()) << "len " << len << " i " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// SeedVector stream reproducibility and independence
// ---------------------------------------------------------------------------

TEST(SeedVectorDeterminismTest, StreamsReproducibleFromFixedSeedVector) {
  SeedVector seeds(kSeed, 64);
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    RandomStream a = seeds.StreamFor(k, /*call_site=*/3);
    RandomStream b = seeds.StreamFor(k, /*call_site=*/3);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(SeedVectorDeterminismTest, RebuiltVectorYieldsIdenticalStreams) {
  SeedVector first(kSeed, 32);
  SeedVector second(kSeed, 32);
  for (std::size_t k = 0; k < 32; ++k) {
    ASSERT_EQ(first.seed(k), second.seed(k));
    RandomStream a = first.StreamFor(k, 1);
    RandomStream b = second.StreamFor(k, 1);
    for (int i = 0; i < 16; ++i) ASSERT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(SeedVectorDeterminismTest, SampleIndicesAreIndependent) {
  // Draining sample k's stream must not affect sample k+1's draws: each
  // stream is derived solely from (sigma_k, call_site), never from shared
  // sequential state.
  SeedVector seeds(kSeed, 8);

  RandomStream fresh = seeds.StreamFor(5, 0);
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(fresh.NextUint64());

  for (std::size_t k = 0; k < 5; ++k) {
    RandomStream burn = seeds.StreamFor(k, 0);
    for (int i = 0; i < 1000; ++i) burn.NextUint64();
  }
  RandomStream after = seeds.StreamFor(5, 0);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(after.NextUint64(), expected[i]);
}

TEST(SeedVectorDeterminismTest, DistinctCellsGetDistinctStreams) {
  SeedVector seeds(kSeed, 16);
  std::set<std::uint64_t> firsts;
  for (std::size_t k = 0; k < 16; ++k) {
    for (std::uint64_t site = 0; site < 4; ++site) {
      firsts.insert(seeds.StreamFor(k, site).NextUint64());
    }
  }
  EXPECT_EQ(firsts.size(), 64u);  // no collisions across (k, site) cells
}

TEST(SeedVectorDeterminismTest, SeedSpanBoundsIncludeFullAndEmptyViews) {
  SeedVector seeds(kSeed, 16);
  EXPECT_EQ(seeds.span(0, 16).size(), 16u);
  EXPECT_EQ(seeds.span(16, 0).size(), 0u);
  EXPECT_EQ(seeds.span(15, 1).front(), seeds.seed(15));
}

// ---------------------------------------------------------------------------
// Scheduling independence
// ---------------------------------------------------------------------------

TEST(SeedVectorDeterminismTest, ConcurrentDrawsMatchSerialDraws) {
  // Generate the same (sample, call-site) grid serially and from many
  // threads in scrambled order; the values must be bit-identical, which is
  // what lets RunSweep schedule points on any thread.
  constexpr std::size_t kSamples = 32;
  SeedVector seeds(kSeed, kSamples);

  std::vector<double> serial(kSamples);
  for (std::size_t k = 0; k < kSamples; ++k) {
    RandomStream s = seeds.StreamFor(k, 9);
    serial[k] = s.Gaussian() + s.Exponential(2.0) + s.NextDouble();
  }

  std::vector<double> threaded(kSamples);
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      // Interleaved, reversed assignment: worker w handles k ≡ w (mod 4)
      // from the top down.
      for (std::size_t k = kSamples - 1 - static_cast<std::size_t>(w);
           k < kSamples; k -= 4) {
        RandomStream s = seeds.StreamFor(k, 9);
        threaded[k] = s.Gaussian() + s.Exponential(2.0) + s.NextDouble();
        if (k < 4) break;
      }
    });
  }
  for (auto& t : workers) t.join();

  for (std::size_t k = 0; k < kSamples; ++k) {
    std::uint64_t a, b;
    std::memcpy(&a, &serial[k], sizeof a);
    std::memcpy(&b, &threaded[k], sizeof b);
    ASSERT_EQ(a, b) << "sample " << k << " differs bitwise";
  }
}

// ---------------------------------------------------------------------------
// Frozen golden draws. These pin the exact derivation: any change to the
// sequence is a break of the determinism contract, never to ship
// silently.
// ---------------------------------------------------------------------------

TEST(GoldenDrawTest, SchemaV1FirstDrawsAreFrozen) {
  const SeedVector seeds(kSeed, 8);
  const struct {
    std::uint64_t site;
    std::size_t k;
    std::uint64_t want[4];
  } kGolden[] = {
      {0, 0, {0xE108ADAAF074F0B6ULL, 0x1E232F1423DB5025ULL,
              0xD8D19C3AD84D2B93ULL, 0x1E8CE63407EE3147ULL}},
      {0, 1, {0x61B509E179AE8A5BULL, 0xEFB421143E30F2AFULL,
              0x203C59D438A212E0ULL, 0xA73EA3C695697ED8ULL}},
      {0, 5, {0xF41375440240DB71ULL, 0x47843736944C1F62ULL,
              0x1E17C50EE590A7A6ULL, 0x6446229DB89CDD8CULL}},
      {7, 0, {0x85423F946D66D248ULL, 0x985EEE4AC5A2C46DULL,
              0x1185E40A2EB80B43ULL, 0x6C9742C101651287ULL}},
      {7, 2, {0x5ED4A3DFCB9555AEULL, 0x19B953392CB9DAA2ULL,
              0xDC096A50CEE42B39ULL, 0xDB703B75007F4177ULL}},
  };
  for (const auto& g : kGolden) {
    RandomStream s = seeds.StreamFor(g.k, g.site);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(s.NextUint64(), g.want[i])
          << "v1 site=" << g.site << " k=" << g.k << " draw " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The bounded max-of-LogNormals kernel against the loop it replaces. Its
// pruning must never change a bit: every slot and the stream's position
// after the call must match the plain loop, for any sigma.
// ---------------------------------------------------------------------------

/// The loop RandomStream::MaxLogNormal must reproduce, slot by slot.
std::vector<double> PlainMaxLogNormal(RandomStream& rng, double sigma,
                                      int depth, std::size_t slots) {
  std::vector<double> peaks(slots);
  for (double& peak : peaks) {
    peak = 0.0;
    for (int d = 0; d < depth; ++d) {
      peak = std::max(peak, rng.LogNormal(0.0, sigma));
    }
  }
  return peaks;
}

/// The floor MaxLogNormal certifies for one slot, from the same bounds:
/// it prunes against it only when it is > 0. Consumes the slot's draws.
double SlotFloor(RandomStream& rng, double sigma, int depth) {
  double best = 0.0;
  for (int d = 0; d < depth; ++d) {
    const double u1 = rng.NextDouble();
    const double u2 = rng.NextDouble();
    const RandomStream::Bounds r2 = RandomStream::SquareRadiusBounds(u1);
    const RandomStream::Bounds c = RandomStream::CosBounds(sigma < 0.0, u2);
    best = std::max(best, r2.lo * (c.lo * std::fabs(c.lo)));
  }
  return std::fabs(sigma) * std::sqrt(best) * (1.0 - 1e-7) - 1e-9;
}

TEST(MaxLogNormalTest, MatchesThePlainLoopBitForBit) {
  constexpr std::size_t kBlock = RandomStream::kMaxLogNormalBlock;
  constexpr int kBounded = RandomStream::kMaxLogNormalMinBoundedDepth;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // 0.3 is UserSelection's default spread. +-1e-10 keep every draw (their
  // floors are <= 0); 1e-150 and 1e150 are the edges of the bounded path.
  const double kSigmas[] = {0.0,    -0.0,  5e-324, 1e-300, 1e-150, 1e-10,
                            -1e-10, 0.3,   -0.3,   0.8,    2.0,    -2.0,
                            5.0,    30.0,  400.0,  1e150,  1e300,  -1e300,
                            kInf,   -kInf, kNaN};
  // Depth 0 draws nothing; the plain loop runs below kBounded and the
  // bounds from it on; the last depth spans three blocks.
  const int kDepths[] = {0, 1,  kBounded - 1, kBounded, 4,
                         7, 8, 16, 64, 2 * static_cast<int>(kBlock) + 3};
  std::size_t checked = 0, mismatched = 0, zero_floors = 0;
  for (std::uint64_t seed : {0ULL, 1ULL, 7ULL, 29ULL, 12345ULL}) {
    const SeedVector seeds(seed, 1);
    for (double sigma : kSigmas) {
      for (int depth : kDepths) {
        // One slot, and about two blocks of draws.
        const std::size_t many = std::max<std::size_t>(
            2, 2 * kBlock / static_cast<std::size_t>(std::max(depth, 1)));
        for (std::size_t slots : {std::size_t{1}, many}) {
          RandomStream kernel = seeds.StreamFor(0, 3);
          RandomStream plain = seeds.StreamFor(0, 3);
          std::vector<double> got(slots);
          kernel.MaxLogNormal(sigma, depth, got);
          const std::vector<double> want =
              PlainMaxLogNormal(plain, sigma, depth, slots);
          for (std::size_t i = 0; i < slots; ++i) {
            ++checked;
            if (std::bit_cast<std::uint64_t>(got[i]) !=
                std::bit_cast<std::uint64_t>(want[i])) {
              if (++mismatched <= 5) {
                ADD_FAILURE() << "seed=" << seed
                              << " sigma=" << sigma << " depth=" << depth
                              << " slots=" << slots << " slot " << i
                              << ": got " << got[i] << " want " << want[i];
              }
            }
          }
          ASSERT_EQ(kernel.NextUint64(), plain.NextUint64())
              << "stream position: seed=" << seed << " sigma=" << sigma
              << " depth=" << depth << " slots=" << slots;
          // Count the slots of an ordinary sigma whose floor is <= 0, so
          // the keep-every-draw path provably ran outside +-1e-10 too.
          if (std::fabs(sigma) >= 0.3 && std::fabs(sigma) <= 5.0 &&
              depth >= kBounded && depth <= 8) {
            RandomStream replay = seeds.StreamFor(0, 3);
            for (std::size_t i = 0; i < slots; ++i) {
              zero_floors += SlotFloor(replay, sigma, depth) <= 0.0;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatched, 0u) << "of " << checked << " peaks";
  EXPECT_GT(zero_floors, 0u);
}

TEST(MaxLogNormalBoundTest, BoundsBracketTheBoxMullerFactors) {
  // Tolerances far inside the kernel's margins (1e-7 of the floor, and
  // 1e-9): the bounds hold up to rounding, not up to a loose fudge.
  constexpr double kTol = 1e-12;
  // The radius, at every table-bucket edge (1 + j/256) 2^-e, the largest
  // double below it, and the extremes; u1 = 0 reads as 2^-53.
  std::vector<double> u1s = {0.0, 0x1.0p-53, 0.5, 1.0 - 0x1.0p-53};
  for (int e = 1; e <= 53; ++e) {
    for (int j = 0; j < 256; ++j) {
      const double edge = std::ldexp(1.0 + j / 256.0, -e);
      u1s.push_back(edge);
      if (edge > 0x1.0p-53) u1s.push_back(std::nextafter(edge, 0.0));
    }
  }
  for (double u1 : u1s) {
    const double radius = RandomStream::BoxMullerRadius(u1);
    const RandomStream::Bounds b = RandomStream::SquareRadiusBounds(u1);
    EXPECT_LE(b.lo * (1.0 - kTol), radius * radius) << "u1=" << u1;
    EXPECT_LE(radius * radius, b.hi * (1.0 + kTol)) << "u1=" << u1;
    EXPECT_LE(0.0, b.lo) << "u1=" << u1;
  }
  // The cos, signed like sigma, on a dense grid of u2: every multiple of
  // 2^-16 (0, 1/4, 1/2 and 3/4 among them), the doubles next to the
  // quarters, and the largest u2.
  std::vector<double> u2s = {1.0 - 0x1.0p-53};
  for (int i = 0; i < (1 << 16); ++i) u2s.push_back(std::ldexp(i, -16));
  for (double q : {0.25, 0.5, 0.75}) {
    u2s.push_back(std::nextafter(q, 0.0));
    u2s.push_back(std::nextafter(q, 1.0));
  }
  for (bool negative : {false, true}) {
    for (double u2 : u2s) {
      const double c = RandomStream::BoxMullerCos(u2) * (negative ? -1.0 : 1.0);
      const RandomStream::Bounds b = RandomStream::CosBounds(negative, u2);
      EXPECT_LE(b.lo - kTol, c) << "negative=" << negative << " u2=" << u2;
      EXPECT_LE(c, b.hi + kTol) << "negative=" << negative << " u2=" << u2;
    }
  }
}

}  // namespace
}  // namespace jigsaw
