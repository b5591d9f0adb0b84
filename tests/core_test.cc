// Tests for the fingerprint core: fingerprint computation, Algorithm 2
// (FindLinearMapping), the AffineMap value, the three index
// strategies of Section 3.2 and the basis store (Algorithm 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/basis_store.h"
#include "core/fingerprint.h"
#include "core/fingerprint_index.h"
#include "core/mapping.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "core/sim_function.h"
#include "models/cloud_models.h"
#include "random/random_stream.h"
#include "random/splitmix64.h"
#include "util/math_util.h"

namespace jigsaw {
namespace {

constexpr double kTol = 1e-9;

Fingerprint FP(std::vector<double> v) { return Fingerprint(std::move(v)); }

// ---------------------------------------------------------------------------
// Fingerprint basics
// ---------------------------------------------------------------------------

TEST(FingerprintTest, FirstTwoDistinctFindsPair) {
  const auto d = FP({1.0, 1.0, 2.0, 3.0}).FirstTwoDistinct(kTol);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->first, 0u);
  EXPECT_EQ(d->second, 2u);
}

TEST(FingerprintTest, ConstantHasNoDistinctPair) {
  EXPECT_TRUE(FP({5.0, 5.0, 5.0}).IsConstant(kTol));
  EXPECT_FALSE(FP({5.0, 5.0, 5.1}).IsConstant(kTol));
  EXPECT_TRUE(FP({5.0}).IsConstant(kTol));
  EXPECT_TRUE(FP({}).IsConstant(kTol));
}

TEST(FingerprintTest, ComputeIsDeterministicAndUsesFirstSeeds) {
  CloudModelConfig cfg;
  auto model = MakeDemandModel(cfg);
  BlackBoxSimFunction fn(model);
  SeedVector seeds(123, 100);
  const std::vector<double> params = {10.0, 52.0};
  Fingerprint a = ComputeFingerprint(fn, params, seeds, 10);
  Fingerprint b = ComputeFingerprint(fn, params, seeds, 10);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(a[i], b[i]);
  // The k'th entry is exactly sample k.
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(a[k], fn.Sample(params, k, seeds));
  }
}

// ---------------------------------------------------------------------------
// FindLinearMapping (Algorithm 2)
// ---------------------------------------------------------------------------

TEST(LinearMappingTest, RecoversExactAffineMap) {
  const Fingerprint theta1 = FP({0.0, 1.2, 2.3, 1.3, 1.5});
  const Fingerprint theta2 = FP({0.1, 1.3, 2.4, 1.4, 1.6});
  const auto m = FindLinearMapping(theta1, theta2, kTol);
  ASSERT_TRUE(m.has_value());  // the paper's own example: M(x) = x + 0.1
  EXPECT_NEAR(m->alpha, 1.0, 1e-12);
  EXPECT_NEAR(m->beta, 0.1, 1e-12);
}

TEST(LinearMappingTest, PropertySweepRandomAffineMaps) {
  // For random theta and random (alpha, beta), the mapping must be
  // recovered and must invert correctly.
  SplitMix64 rng(2024);
  auto u = [&rng] {
    return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> base(10);
    for (auto& x : base) x = u() * 20 - 10;
    const double alpha = (u() - 0.5) * 6 + 0.01;
    const double beta = (u() - 0.5) * 40;
    std::vector<double> mapped;
    for (double x : base) mapped.push_back(alpha * x + beta);
    const auto m = FindLinearMapping(FP(base), FP(mapped), kTol);
    ASSERT_TRUE(m.has_value()) << "trial " << trial;
    for (double x : base) {
      EXPECT_NEAR(m->Apply(x), alpha * x + beta, 1e-6);
    }
    if (m->Invertible()) {
      for (double x : base) {
        EXPECT_NEAR(m->Invert(m->Apply(x)), x, 1e-6);
      }
    }
  }
}

TEST(LinearMappingTest, RejectsNonLinearRelation) {
  const Fingerprint theta1 = FP({1.0, 2.0, 3.0, 4.0});
  const Fingerprint theta2 = FP({1.0, 4.0, 9.0, 16.0});  // squares
  EXPECT_FALSE(FindLinearMapping(theta1, theta2, kTol).has_value());
}

TEST(LinearMappingTest, RejectsSizeMismatchAndEmpty) {
  EXPECT_FALSE(FindLinearMapping(FP({1, 2}), FP({1, 2, 3}), kTol));
  EXPECT_FALSE(FindLinearMapping(FP({}), FP({}), kTol));
}

TEST(LinearMappingTest, ConstantToConstantIsTranslation) {
  const auto m = FindLinearMapping(FP({2, 2, 2}), FP({5, 5, 5}), kTol);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->Apply(2.0), 5.0);
  EXPECT_DOUBLE_EQ(m->Apply(10.0), 13.0);  // translation by 3
}

TEST(LinearMappingTest, ConstantToVaryingHasNoMapping) {
  EXPECT_FALSE(FindLinearMapping(FP({2, 2, 2}), FP({1, 2, 3}), kTol));
}

TEST(LinearMappingTest, VaryingToConstantIsDegenerateAlphaZero) {
  const auto m = FindLinearMapping(FP({1, 2, 3}), FP({7, 7, 7}), kTol);
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(m->Invertible());
  EXPECT_DOUBLE_EQ(m->Apply(100.0), 7.0);
}

TEST(LinearMappingTest, IdentityIsCanonicalized) {
  const auto m = FindLinearMapping(FP({1, 2, 3}), FP({1, 2, 3}), kTol);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->IsIdentity());
}

TEST(LinearMappingTest, NegativeAlphaSupported) {
  const auto m =
      FindLinearMapping(FP({0, 1, 2, 5}), FP({3, 1, -1, -7}), kTol);
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->alpha, -2.0, 1e-12);
  EXPECT_NEAR(m->beta, 3.0, 1e-12);
}

TEST(LinearMappingTest, ToleranceRejectsNearMisses) {
  const Fingerprint theta1 = FP({0.0, 1.0, 2.0, 3.0});
  const Fingerprint theta2 = FP({0.0, 1.0, 2.0, 3.01});
  EXPECT_FALSE(FindLinearMapping(theta1, theta2, kTol));
  // A looser tolerance accepts it.
  EXPECT_TRUE(FindLinearMapping(theta1, theta2, 1e-2));
}

TEST(MappingTest, DefaultMapIsIdentity) {
  const AffineMap identity;
  EXPECT_TRUE(identity.IsIdentity());
  EXPECT_DOUBLE_EQ(identity.Apply(3.5), 3.5);
  EXPECT_DOUBLE_EQ(identity.Invert(3.5), 3.5);
  EXPECT_FALSE((AffineMap{2.0, -1.0}).IsIdentity());
}

// ---------------------------------------------------------------------------
// Normal forms & indexes (Section 3.2)
// ---------------------------------------------------------------------------

TEST(NormalFormTest, InvariantUnderAffineMaps) {
  SplitMix64 rng(31337);
  auto u = [&rng] {
    return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  };
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> base(10);
    for (auto& x : base) x = u() * 10 - 5;
    const double alpha = (trial % 2 == 0 ? 1 : -1) * (u() * 3 + 0.1);
    const double beta = u() * 8 - 4;
    std::vector<double> mapped;
    for (double x : base) mapped.push_back(alpha * x + beta);
    EXPECT_EQ(LinearNormalForm(FP(base)), LinearNormalForm(FP(mapped)))
        << "trial " << trial << " alpha=" << alpha;
  }
}

TEST(NormalFormTest, DistinguishesUnrelatedFingerprints) {
  EXPECT_NE(LinearNormalForm(FP({0, 1, 2, 3})),
            LinearNormalForm(FP({0, 1, 4, 9})));
}

TEST(NormalFormTest, AllConstantsShareABucket) {
  EXPECT_EQ(LinearNormalForm(FP({3, 3, 3})),
            LinearNormalForm(FP({-8, -8, -8})));
}

TEST(SortedSidTest, InvariantUnderMonotoneIncreasingMaps) {
  const Fingerprint base = FP({3.0, -1.0, 7.5, 0.2, 4.4});
  std::vector<double> mapped;
  for (double x : base.values()) mapped.push_back(std::exp(0.3 * x));  // monotone
  EXPECT_EQ(SortedSidKey(base), SortedSidKey(FP(mapped)));
}

TEST(SortedSidTest, ReversedUnderMonotoneDecreasingMaps) {
  const Fingerprint base = FP({3.0, -1.0, 7.5, 0.2, 4.4});
  std::vector<double> mapped;
  for (double x : base.values()) mapped.push_back(-2.0 * x + 1.0);
  auto key = SortedSidKey(base);
  auto rkey = SortedSidKey(FP(mapped));
  std::reverse(rkey.begin(), rkey.end());
  EXPECT_EQ(key, rkey);
}

class IndexKindTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(IndexKindTest, CandidatesAreSupersetOfTrueMatches) {
  // Property: for any probe, the candidate set must contain every basis
  // with a valid linear mapping (Array is the oracle by construction).
  auto index = MakeFingerprintIndex(GetParam());

  SplitMix64 rng(777);
  auto u = [&rng] {
    return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  };
  // 8 base shapes; 5 affine variants each.
  std::vector<Fingerprint> all;
  for (int shape = 0; shape < 8; ++shape) {
    std::vector<double> base(10);
    for (auto& x : base) x = u() * 10 - 5;
    for (int variant = 0; variant < 5; ++variant) {
      const double alpha = u() * 4 + 0.2;
      const double beta = u() * 10 - 5;
      std::vector<double> v;
      for (double x : base) v.push_back(alpha * x + beta);
      all.push_back(FP(v));
    }
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    index->Insert(static_cast<BasisId>(i), all[i]);
  }

  std::vector<BasisId> candidates;
  for (std::size_t probe = 0; probe < all.size(); ++probe) {
    index->GetCandidates(all[probe], &candidates);
    for (std::size_t b = 0; b < all.size(); ++b) {
      if (FindLinearMapping(all[b], all[probe], kTol)) {
        EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                            static_cast<BasisId>(b)),
                  candidates.end())
            << IndexKindName(GetParam()) << ": probe " << probe
            << " missing true match " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexKindTest,
                         ::testing::Values(IndexKind::kArray,
                                           IndexKind::kNormalization,
                                           IndexKind::kSortedSid),
                         [](const auto& info) {
                           return IndexKindName(info.param);
                         });

TEST(IndexTest, NormalizationPrunesUnrelatedShapes) {
  auto index = MakeFingerprintIndex(IndexKind::kNormalization);
  index->Insert(0, FP({0, 1, 2, 3, 4}));
  index->Insert(1, FP({0, 1, 4, 9, 16}));
  index->Insert(2, FP({5, 7, 9, 11, 13}));  // affine image of basis 0
  std::vector<BasisId> candidates;
  index->GetCandidates(FP({0, 2, 4, 6, 8}), &candidates);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0u),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 2u),
            candidates.end());
  EXPECT_EQ(std::find(candidates.begin(), candidates.end(), 1u),
            candidates.end());
}

TEST(IndexTest, ArrayReturnsEverything) {
  auto index = MakeFingerprintIndex(IndexKind::kArray);
  index->Insert(0, FP({1, 2}));
  index->Insert(1, FP({3, 4}));
  std::vector<BasisId> candidates;
  index->GetCandidates(FP({9, 9}), &candidates);
  EXPECT_EQ(candidates.size(), 2u);
}

TEST(IndexTest, SortedSidReturnsBasisForDecreasingMapProbe) {
  // A monotone *decreasing* map reverses the sorted-SID permutation; the
  // index must still return the basis by probing the reversed key
  // ("comparing both the SID sequence and its inverse", Section 3.2).
  auto index = MakeFingerprintIndex(IndexKind::kSortedSid);
  const Fingerprint basis = FP({3.0, -1.0, 7.5, 0.2, 4.4});
  index->Insert(0, basis);

  std::vector<double> probe_vals;
  for (double x : basis.values()) probe_vals.push_back(-2.0 * x + 1.0);
  const Fingerprint probe = FP(probe_vals);
  ASSERT_TRUE(FindLinearMapping(basis, probe, kTol))
      << "precondition: the decreasing map is in the linear class";

  std::vector<BasisId> candidates;
  index->GetCandidates(probe, &candidates);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0u),
            candidates.end())
      << "reversed-permutation probe must surface the basis";
}

TEST(IndexTest, DecreasingMapProbeParityAcrossIndexKinds) {
  // Array (trivially) and Normalization (alpha < 0 is in the linear
  // class's normal form) must agree with SortedSID on the decreasing-map
  // probe: all three return the basis as a candidate.
  const Fingerprint basis = FP({3.0, -1.0, 7.5, 0.2, 4.4});
  std::vector<double> probe_vals;
  for (double x : basis.values()) probe_vals.push_back(-0.5 * x - 2.0);
  const Fingerprint probe = FP(probe_vals);

  for (IndexKind kind : {IndexKind::kArray, IndexKind::kNormalization,
                         IndexKind::kSortedSid}) {
    auto index = MakeFingerprintIndex(kind);
    index->Insert(0, basis);
    std::vector<BasisId> candidates;
    index->GetCandidates(probe, &candidates);
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0u),
              candidates.end())
        << IndexKindName(kind);
  }
}

// ---------------------------------------------------------------------------
// Metrics & M_est (Section 3's derived mapping on aggregates)
// ---------------------------------------------------------------------------

TEST(MetricsTest, EstimatorComputesSummary) {
  Estimator est(/*keep_samples=*/true, /*histogram_bins=*/10);
  for (int i = 1; i <= 100; ++i) est.Add(static_cast<double>(i));
  OutputMetrics m = est.Finalize();
  EXPECT_EQ(m.count, 100);
  EXPECT_DOUBLE_EQ(m.mean, 50.5);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 100.0);
  EXPECT_NEAR(m.p50, 50.5, 0.01);
  EXPECT_NEAR(m.p95, 95.05, 0.01);
  ASSERT_TRUE(m.histogram.has_value());
  EXPECT_EQ(m.samples.size(), 100u);
}

TEST(MetricsTest, MappedMetricsEqualRecomputedMetrics) {
  // Property: mapping cached metrics == recomputing metrics on mapped
  // samples, for affine maps (this is the exactness claim behind reuse).
  SplitMix64 rng(4242);
  auto u = [&rng] {
    return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  };
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> xs(500);
    for (auto& x : xs) x = u() * 100 - 50;
    const double alpha = (trial % 3 == 0 ? -1 : 1) * (u() * 5 + 0.1);
    const double beta = u() * 20 - 10;
    OutputMetrics base = MetricsFromSamples(xs, true, 10);
    const OutputMetrics mapped = base.MappedBy(AffineMap{alpha, beta});

    std::vector<double> ys;
    for (double x : xs) ys.push_back(alpha * x + beta);
    OutputMetrics direct = MetricsFromSamples(ys, true, 10);

    EXPECT_NEAR(mapped.mean, direct.mean, 1e-9 * (1 + std::fabs(direct.mean)));
    EXPECT_NEAR(mapped.stddev, direct.stddev, 1e-9 * (1 + direct.stddev));
    EXPECT_NEAR(mapped.min, direct.min, 1e-9 * (1 + std::fabs(direct.min)));
    EXPECT_NEAR(mapped.max, direct.max, 1e-9 * (1 + std::fabs(direct.max)));
    EXPECT_EQ(mapped.count, direct.count);
  }
}

TEST(MetricsTest, MappedSamplesTransformElementwise) {
  OutputMetrics base = MetricsFromSamples({1, 2, 3}, true, 4);
  const OutputMetrics mapped = base.MappedBy(AffineMap{2.0, 1.0});
  ASSERT_EQ(mapped.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(mapped.samples[0], 3.0);
  EXPECT_DOUBLE_EQ(mapped.samples[2], 7.0);
}

TEST(MetricsTest, ExtractMetricQuantilesOnSingleSample) {
  const OutputMetrics m = MetricsFromSamples({4.25}, false, 4);
  EXPECT_DOUBLE_EQ(ExtractMetric(m, MetricSelector::kMedian), 4.25);
  EXPECT_DOUBLE_EQ(ExtractMetric(m, MetricSelector::kP95), 4.25);
  EXPECT_DOUBLE_EQ(ExtractMetric(m, MetricSelector::kMin), 4.25);
  EXPECT_DOUBLE_EQ(ExtractMetric(m, MetricSelector::kMax), 4.25);
}

TEST(MetricsTest, ExtractMetricQuantilesOnTwoSamples) {
  // QuantileSorted interpolates between closest ranks: with two samples
  // the q-quantile sits at position q along [s0, s1].
  const OutputMetrics m = MetricsFromSamples({10.0, 20.0}, false, 4);
  EXPECT_DOUBLE_EQ(ExtractMetric(m, MetricSelector::kMedian), 15.0);
  EXPECT_DOUBLE_EQ(ExtractMetric(m, MetricSelector::kP95),
                   10.0 * 0.05 + 20.0 * 0.95);
}

TEST(MetricsTest, ExtractMetricQuantilesOnThreeSamples) {
  // Unsorted input; position for q is q * (n - 1) = 2q.
  const OutputMetrics m = MetricsFromSamples({30.0, 10.0, 20.0}, false, 4);
  EXPECT_DOUBLE_EQ(ExtractMetric(m, MetricSelector::kMedian), 20.0);
  EXPECT_DOUBLE_EQ(ExtractMetric(m, MetricSelector::kP95),
                   20.0 * 0.1 + 30.0 * 0.9);
}

TEST(MetricsTest, AddSpanMatchesElementwiseAddBitForBit) {
  // The batched engine's correctness contract: folding whole spans must
  // be indistinguishable — to the last bit — from per-sample Add.
  SplitMix64 rng(31337);
  std::vector<double> xs(1000);
  for (auto& x : xs) {
    x = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * 200.0 - 100.0;
  }
  Estimator scalar(/*keep_samples=*/true, /*histogram_bins=*/10);
  for (double x : xs) scalar.Add(x);
  Estimator spans(/*keep_samples=*/true, /*histogram_bins=*/10);
  // Ragged chunking, including empty and single-element spans.
  std::size_t i = 0;
  for (std::size_t len : {0u, 1u, 7u, 64u}) {
    spans.AddSpan(std::span<const double>(xs.data() + i, len));
    i += len;
  }
  spans.AddSpan(std::span<const double>(xs.data() + i, xs.size() - i));

  const OutputMetrics a = scalar.Finalize();
  const OutputMetrics b = spans.Finalize();
  auto bits = [](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(bits(a.mean), bits(b.mean));
  EXPECT_EQ(bits(a.stddev), bits(b.stddev));
  EXPECT_EQ(bits(a.std_error), bits(b.std_error));
  EXPECT_EQ(bits(a.min), bits(b.min));
  EXPECT_EQ(bits(a.max), bits(b.max));
  EXPECT_EQ(bits(a.p50), bits(b.p50));
  EXPECT_EQ(bits(a.p95), bits(b.p95));
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t k = 0; k < a.samples.size(); ++k) {
    ASSERT_EQ(bits(a.samples[k]), bits(b.samples[k])) << "sample " << k;
  }
}

// ---------------------------------------------------------------------------
// Estimator::Finalize — over the estimator's own buffer or spans it
// borrowed (AddBorrowed, the columnar folds' double columns), through the
// consuming overload or the const one, and on either side of the radix
// select's cutoff. Each must match, to the last bit, the copying finalize
// they replaced.
// ---------------------------------------------------------------------------

std::uint64_t DoubleBits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

void ExpectBitIdenticalMetrics(const OutputMetrics& expected,
                               const OutputMetrics& actual) {
  EXPECT_EQ(expected.count, actual.count);
  EXPECT_EQ(DoubleBits(expected.mean), DoubleBits(actual.mean));
  EXPECT_EQ(DoubleBits(expected.stddev), DoubleBits(actual.stddev));
  EXPECT_EQ(DoubleBits(expected.std_error), DoubleBits(actual.std_error));
  EXPECT_EQ(DoubleBits(expected.min), DoubleBits(actual.min));
  EXPECT_EQ(DoubleBits(expected.max), DoubleBits(actual.max));
  EXPECT_EQ(DoubleBits(expected.p50), DoubleBits(actual.p50));
  EXPECT_EQ(DoubleBits(expected.p95), DoubleBits(actual.p95));
  ASSERT_EQ(expected.histogram.has_value(), actual.histogram.has_value());
  if (expected.histogram) {
    EXPECT_TRUE(*expected.histogram == *actual.histogram);
    EXPECT_EQ(DoubleBits(expected.histogram->lo()),
              DoubleBits(actual.histogram->lo()));
    EXPECT_EQ(DoubleBits(expected.histogram->hi()),
              DoubleBits(actual.histogram->hi()));
  }
  ASSERT_EQ(expected.samples.size(), actual.samples.size());
  for (std::size_t k = 0; k < expected.samples.size(); ++k) {
    ASSERT_EQ(DoubleBits(expected.samples[k]), DoubleBits(actual.samples[k]))
        << "sample " << k;
  }
}

// The copying finalize: quantiles selected in a copy of the finite
// values, histogram and samples over every value in fold order.
OutputMetrics ReferenceFinalize(const std::vector<double>& xs,
                                bool keep_samples, int histogram_bins) {
  WelfordAccumulator acc;
  acc.AddSpan(xs);
  OutputMetrics out;
  out.count = acc.count();
  out.mean = acc.mean();
  out.stddev = acc.stddev();
  out.std_error = acc.standard_error();
  out.min = acc.count() ? acc.min() : 0.0;
  out.max = acc.count() ? acc.max() : 0.0;
  if (!xs.empty()) {
    std::vector<double> finite;
    for (double x : xs) {
      if (std::isfinite(x)) finite.push_back(x);
    }
    if (!finite.empty()) {
      out.p50 = QuantileSelect(finite, 0.50);
      out.p95 = QuantileSelect(finite, 0.95);
    }
    out.histogram = Histogram::FromSamples(xs, histogram_bins);
  }
  if (keep_samples) out.samples = xs;
  return out;
}

// `n` values of one kind, past the radix select's cutoff at the sizes
// the test uses; the kinds stress its keys, buckets and fallback.
std::vector<double> LargeFinalizeInput(const std::string& kind,
                                       std::size_t n) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SplitMix64 rng(n + kind.size());
  auto uniform = [&rng] {
    return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  };
  std::vector<double> xs(n);
  if (kind == "MaxLogNormal peaks" || kind == "NaN and infinities") {
    // The users table's requirement column: heavy-tailed, one binade
    // holding few of the values.
    RandomStream(n).MaxLogNormal(2.0, 16, xs);
    if (kind == "NaN and infinities") {
      for (std::size_t i = 0; i < n; i += 97) {
        xs[i] = i % 3 == 0 ? nan : i % 3 == 1 ? inf : -inf;
      }
    }
  } else if (kind == "one distinct value") {
    std::fill(xs.begin(), xs.end(), 2.5);
  } else if (kind == "two distinct values") {
    // Alternating, starting with a zero: at an even n, p50's lower rank
    // is the last zero and its upper rank the first one, so the select
    // must step past the zeros' bucket exactly there.
    for (std::size_t i = 0; i < n; ++i) xs[i] = i % 2 == 0 ? 0.0 : 1.0;
  } else if (kind == "subnormals") {
    // Both signs, a few thousand ulps apart, straddling zero's keys.
    for (double& x : xs) {
      const double ulps = static_cast<double>(1 + rng.Next() % (1u << 20));
      x = (rng.Next() % 2 == 0 ? 1.0 : -1.0) * ulps *
          std::numeric_limits<double>::denorm_min();
    }
  } else if (kind == "all negative") {
    for (double& x : xs) x = -std::exp(8.0 * uniform());
  } else if (kind == "both zero signs") {
    for (double& x : xs) {
      x = static_cast<double>(rng.Next() % 40) * 0.25 - 5.0;
      if (x == 0.0 && rng.Next() % 2 == 0) x = -0.0;
    }
  }
  return xs;
}

// `xs` as consecutive spans of uneven lengths: part k is one longer than
// part k - 1, and the last takes the rest.
std::vector<std::span<const double>> UnevenParts(std::span<const double> xs,
                                                 std::size_t num_parts) {
  std::vector<std::span<const double>> parts;
  for (std::size_t k = 0, begin = 0; k < num_parts; ++k) {
    const std::size_t len =
        k + 1 == num_parts
            ? xs.size() - begin
            : std::min(xs.size() - begin, xs.size() / (2 * num_parts) + k);
    parts.push_back(xs.subspan(begin, len));
    begin += len;
  }
  return parts;
}

TEST(EstimatorFinalizeTest, BothFinalizesMatchTheCopyingFinalizeBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Quarter steps over [-5, 5): many duplicates, and zeros of both signs
  // that compare equal but differ in bits, so a selection that picked a
  // different zero would show.
  SplitMix64 rng(2718);
  std::vector<double> finite(3001);
  for (double& x : finite) {
    x = static_cast<double>(rng.Next() % 40) * 0.25 - 5.0;
    if (x == 0.0 && rng.Next() % 2 == 0) x = -0.0;
  }
  auto with = [&finite](std::initializer_list<std::pair<std::size_t, double>>
                            edits) {
    std::vector<double> xs = finite;
    for (const auto& [i, v] : edits) xs[i] = v;
    return xs;
  };
  std::vector<std::pair<std::string, std::vector<double>>> inputs = {
      {"empty", {}},
      {"single value", {4.25}},
      {"single negative zero", {-0.0}},
      {"duplicates and signed zeros", finite},
      {"NaN", with({{7, nan}, {1500, nan}})},
      {"+inf", with({{0, inf}})},
      {"-inf", with({{3000, -inf}})},
      {"NaN and both infinities", with({{1, nan}, {2, inf}, {3, -inf}})},
      {"no finite value", {nan, inf, -inf, nan}},
  };
  // Past the cutoff, where Finalize radix-selects unless zeros of both
  // signs send it back to QuantileSelect. The size is even, so p50
  // interpolates between its two ranks.
  for (const char* kind :
       {"MaxLogNormal peaks", "one distinct value", "two distinct values",
        "subnormals", "all negative", "NaN and infinities",
        "both zero signs"}) {
    inputs.emplace_back(
        std::string(kind) + ", past the cutoff",
        LargeFinalizeInput(kind, 3 * kRadixSelectMinValues + 6));
  }
  for (bool keep_samples : {false, true}) {
    for (const auto& [label, xs] : inputs) {
      SCOPED_TRACE(::testing::Message()
                   << label << (keep_samples ? ", samples kept" : ""));
      Estimator copied(keep_samples, /*histogram_bins=*/10);
      Estimator consumed(keep_samples, /*histogram_bins=*/10);
      copied.AddSpan(xs);
      // Reserving up front changes the buffer's capacity, never a value.
      consumed.Reserve(xs.size());
      consumed.AddSpan(xs);
      const OutputMetrics expected =
          ReferenceFinalize(xs, keep_samples, /*histogram_bins=*/10);
      ExpectBitIdenticalMetrics(expected, copied.Finalize());
      // The const finalize leaves the estimator as it was.
      ExpectBitIdenticalMetrics(expected, copied.Finalize());
      ExpectBitIdenticalMetrics(expected, std::move(consumed).Finalize());
      // Borrowed in 1, 2 and 17 uneven parts, read where they lie.
      for (std::size_t num_parts : {1u, 2u, 17u}) {
        SCOPED_TRACE(::testing::Message() << num_parts << " borrowed parts");
        Estimator borrowed(keep_samples, /*histogram_bins=*/10);
        for (std::span<const double> part : UnevenParts(xs, num_parts)) {
          borrowed.AddBorrowed(part);
        }
        ExpectBitIdenticalMetrics(expected, borrowed.Finalize());
        ExpectBitIdenticalMetrics(expected, std::move(borrowed).Finalize());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Estimator::AddRepeated — a world-invariant column folds one base span W
// times. Against an Estimator over W concatenated copies of the base,
// every field must match bit for bit, histogram and kept samples
// included, whether the estimator kept one base or (for zeros of both
// signs) every copy.
// ---------------------------------------------------------------------------

// A base of `n` values of one kind, drawn from `seed`.
std::vector<double> RepeatedBase(const std::string& kind, std::size_t n,
                                 std::uint64_t seed) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SplitMix64 rng(seed);
  // Quarter steps over [-5, 5): duplicates, with 0.0 the only zero.
  std::vector<double> xs(n);
  for (double& x : xs) x = static_cast<double>(rng.Next() % 40) * 0.25 - 5.0;
  if (n == 0) return xs;
  if (kind == "negative zeros") {
    for (double& x : xs) {
      if (x == 0.0) x = -0.0;
    }
    xs[n / 2] = -0.0;
  } else if (kind == "both zero signs") {
    xs.front() = 0.0;
    xs.back() = -0.0;
  } else if (kind == "NaN") {
    xs[n / 3] = nan;
  } else if (kind == "infinities") {
    xs.front() = inf;
    xs[n / 2] = -inf;
  } else if (kind == "no finite value") {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = i % 3 == 0 ? nan : i % 3 == 1 ? inf : -inf;
    }
  }
  return xs;
}

TEST(EstimatorRepeatedTest, RepeatedBaseMatchesConcatenatedCopiesBitForBit) {
  const std::vector<std::string> kinds = {
      "duplicates", "negative zeros", "both zero signs",
      "NaN",        "infinities",     "no finite value"};
  for (bool keep_samples : {false, true}) {
    for (const std::string& kind : kinds) {
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                            std::size_t{3}, std::size_t{7}, std::size_t{8192},
                            kRadixSelectMinValues + 3}) {
        const std::vector<double> base = RepeatedBase(kind, n, 31 + n);
        for (std::int64_t copies : {0, 1, 2, 64, 128}) {
          SCOPED_TRACE(::testing::Message()
                       << kind << ", n=" << n << ", W=" << copies
                       << (keep_samples ? ", samples kept" : ""));
          Estimator concatenated(keep_samples, /*histogram_bins=*/10);
          for (std::int64_t k = 0; k < copies; ++k) {
            concatenated.AddSpan(base);
          }
          Estimator repeated(keep_samples, /*histogram_bins=*/10);
          repeated.AddRepeated(base, copies);
          EXPECT_EQ(repeated.count(), concatenated.count());
          const OutputMetrics expected = std::move(concatenated).Finalize();
          // The const finalize leaves the base as it was.
          ExpectBitIdenticalMetrics(expected, repeated.Finalize());
          ExpectBitIdenticalMetrics(expected, std::move(repeated).Finalize());
        }
      }
    }
  }
}

TEST(EstimatorRepeatedTest, LaterFoldsWriteTheCopiesOut) {
  // An AddSpan, Add or second AddRepeated after a kept base folds after
  // all of its copies, as if every copy had been added.
  const std::vector<double> base = RepeatedBase("duplicates", 7, 5);
  const std::vector<double> tail = {9.5, -1.25, 0.0};
  for (bool keep_samples : {false, true}) {
    SCOPED_TRACE(keep_samples ? "samples kept" : "no samples");
    Estimator concatenated(keep_samples, /*histogram_bins=*/10);
    for (int k = 0; k < 3; ++k) concatenated.AddSpan(base);
    concatenated.AddSpan(tail);
    concatenated.Add(2.5);
    for (int k = 0; k < 2; ++k) concatenated.AddSpan(base);
    Estimator repeated(keep_samples, /*histogram_bins=*/10);
    repeated.AddRepeated(base, 3);
    repeated.AddSpan(tail);
    repeated.Add(2.5);
    repeated.AddRepeated(base, 2);
    ExpectBitIdenticalMetrics(std::move(concatenated).Finalize(),
                              std::move(repeated).Finalize());
  }
}

// ---------------------------------------------------------------------------
// BasisStore (Algorithm 3)
// ---------------------------------------------------------------------------

TEST(BasisStoreTest, MissThenHit) {
  BasisStore store(IndexKind::kNormalization);
  const Fingerprint fp1 = FP({0, 1, 2, 3});
  EXPECT_FALSE(store.FindMatch(fp1).has_value());
  store.Insert(fp1, MetricsFromSamples({0, 1, 2, 3}, false, 4));
  ASSERT_EQ(store.size(), 1u);

  // An affine image must now hit, with the correct mapping.
  const Fingerprint fp2 = FP({1, 3, 5, 7});  // 2x + 1
  auto match = store.FindMatch(fp2);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->basis_id, 0u);
  EXPECT_NEAR(match->mapping.alpha, 2.0, 1e-12);
  EXPECT_NEAR(match->mapping.beta, 1.0, 1e-12);

  const auto& stats = store.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(store.Get(0).reuse_count, 1u);
}

TEST(BasisStoreTest, UnrelatedShapesCreateSeparateBases) {
  BasisStore store(IndexKind::kSortedSid);
  store.Insert(FP({0, 1, 2, 3}), {});
  store.Insert(FP({0, 1, 4, 9}), {});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.FindMatch(FP({3, 1, 0, 2})).has_value());
}

}  // namespace
}  // namespace jigsaw
