// Unit tests for the util substrate: Status/Result, streaming statistics,
// histograms (including the affine-transform reuse property), string
// helpers and hashing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "util/hash.h"
#include "util/histogram.h"
#include "util/math_util.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace jigsaw {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(Status::ExecutionError("x").code(),
            StatusCode::kExecutionError);
  // ToString names every code with its stable StatusCodeName.
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::AlreadyExists("x").ToString(), "AlreadyExists: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::Unimplemented("x").ToString(), "Unimplemented: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
  EXPECT_EQ(Status::ParseError("x").ToString(), "ParseError: x");
  EXPECT_EQ(Status::BindError("x").ToString(), "BindError: x");
  EXPECT_EQ(Status::ExecutionError("x").ToString(), "ExecutionError: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  JIGSAW_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  auto err = QuarterEven(6);  // 6/2=3 is odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Welford / quantiles / ApproxEqual
// ---------------------------------------------------------------------------

TEST(WelfordTest, MatchesClosedForm) {
  WelfordAccumulator acc;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  for (double x : xs) acc.Add(x);
  EXPECT_EQ(acc.count(), 5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 2.0);       // population
  EXPECT_DOUBLE_EQ(acc.sample_variance(), 2.5);  // n-1
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

TEST(QuantileTest, InterpolatesBetweenRanks) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0 / 3.0), 2.0);
}

TEST(QuantileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.25), 7.0);
}

TEST(QuantileTest, SelectMatchesSortBitForBit) {
  // QuantileSelect's contract is exact equality with the sort-based path:
  // same interpolation, order statistics obtained by selection. Exercise
  // odd/even sizes, heavy duplicates, and q at/between rank boundaries.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) / 1048576.0;
  };
  constexpr std::size_t kCutoff = kRadixSelectMinValues;
  const double qs[] = {0.0, 0.25, 0.5, 0.75, 0.95, 1.0};
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{17}, std::size_t{100}, std::size_t{101},
                        std::size_t{1000}, kCutoff - 1, kCutoff,
                        3 * kCutoff + 7}) {
    // Quantized values, so duplicates occur often; values of both signs
    // spread over a few binades, with +0.0 the only zero; and the
    // integers 0..n-1 permuted, whose ranks meet the radix select's
    // bucket edges at powers of two (the median rank of n = 8192).
    for (int family : {0, 1, 2}) {
      std::vector<double> values;
      values.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        values.push_back(family == 0   ? std::floor(next() * 16.0) / 4.0
                         : family == 1 ? next() * 8.0 - 4.0
                                       : static_cast<double>(i * 7919 % n));
      }
      for (double q : qs) {
        std::vector<double> scratch = values;
        const double by_select = QuantileSelect(scratch, q);
        const double by_sort = Quantile(values, q);
        EXPECT_EQ(by_select, by_sort) << "n=" << n << " q=" << q;
      }
      // SelectQuantiles reads the values as consecutive parts of uneven
      // lengths (part k one longer than part k-1, the last taking the
      // rest), radix-selecting from the cutoff on, and over `copies`
      // repeats of them.
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      for (std::size_t num_parts : {1u, 2u, 17u}) {
        std::vector<std::span<const double>> parts;
        for (std::size_t k = 0, begin = 0; k < num_parts; ++k) {
          const std::size_t len =
              k + 1 == num_parts
                  ? n - begin
                  : std::min(n - begin, n / (2 * num_parts) + k);
          parts.push_back(std::span(values).subspan(begin, len));
          begin += len;
        }
        for (std::size_t copies : {1u, 3u}) {
          std::vector<double> repeated;
          for (std::size_t c = 0; c < copies; ++c) {
            repeated.insert(repeated.end(), values.begin(), values.end());
          }
          double by_parts[std::size(qs)];
          SelectQuantiles({parts, copies, n, *lo, *hi}, qs, by_parts);
          for (std::size_t i = 0; i < std::size(qs); ++i) {
            EXPECT_EQ(by_parts[i], Quantile(repeated, qs[i]))
                << "n=" << n << " q=" << qs[i] << " parts=" << num_parts
                << " copies=" << copies;
          }
        }
      }
    }
  }
}

TEST(ApproxEqualTest, RelativeAndAbsolute) {
  EXPECT_TRUE(ApproxEqual(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(ApproxEqual(1e12, 1e12 * (1 + 1e-10)));
  EXPECT_FALSE(ApproxEqual(1.0, 1.001));
  EXPECT_TRUE(ApproxEqual(0.0, 0.0));
  EXPECT_TRUE(ApproxEqual(0.0, 1e-13));  // absolute floor
  EXPECT_FALSE(ApproxEqual(0.0, 1e-6));
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);   // bin 0
  h.Add(9.5);   // bin 9
  h.Add(-5.0);  // clamped to bin 0
  h.Add(15.0);  // clamped to bin 9
  EXPECT_EQ(h.total_count(), 4);
  EXPECT_EQ(h.bin_count(0), 2);
  EXPECT_EQ(h.bin_count(9), 2);
}

TEST(HistogramTest, FromSamplesCoversRange) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  Histogram h = Histogram::FromSamples(xs, 4);
  EXPECT_DOUBLE_EQ(h.lo(), 1.0);
  EXPECT_DOUBLE_EQ(h.hi(), 4.0);
  EXPECT_EQ(h.total_count(), 4);
}

TEST(HistogramTest, AffineTransformPositiveAlphaPreservesCounts) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(std::sin(i * 0.3) * 5);
  Histogram h = Histogram::FromSamples(xs, 8);
  Histogram t = h.AffineTransformed(2.0, 3.0);
  EXPECT_EQ(t.total_count(), h.total_count());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(t.bin_count(i), h.bin_count(i));
  EXPECT_DOUBLE_EQ(t.lo(), 2.0 * h.lo() + 3.0);
  EXPECT_DOUBLE_EQ(t.hi(), 2.0 * h.hi() + 3.0);
}

TEST(HistogramTest, AffineTransformNegativeAlphaReversesBins) {
  std::vector<double> xs = {0.0, 0.1, 0.2, 0.9};
  Histogram h = Histogram::FromSamples(xs, 4);
  Histogram t = h.AffineTransformed(-1.0, 0.0);
  EXPECT_EQ(t.total_count(), h.total_count());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.bin_count(i), h.bin_count(3 - i));
  }
}

TEST(HistogramTest, TransformedHistogramMatchesTransformedSamples) {
  // Property: histogram(M(x)) == M(histogram(x)) for affine M — this is
  // why basis histogram reuse introduces no resampling error.
  std::vector<double> xs, mapped;
  for (int i = 0; i < 500; ++i) {
    const double x = std::cos(i * 0.11) * 7 + 0.3 * i;
    xs.push_back(x);
    mapped.push_back(-1.5 * x + 4.0);
  }
  Histogram direct = Histogram::FromSamples(xs, 16).AffineTransformed(-1.5, 4.0);
  Histogram recomputed = Histogram::FromSamples(mapped, 16);
  ASSERT_EQ(direct.num_bins(), recomputed.num_bins());
  EXPECT_NEAR(direct.lo(), recomputed.lo(), 1e-9);
  EXPECT_NEAR(direct.hi(), recomputed.hi(), 1e-9);
  for (int i = 0; i < direct.num_bins(); ++i) {
    EXPECT_EQ(direct.bin_count(i), recomputed.bin_count(i)) << "bin " << i;
  }
}

TEST(HistogramTest, CdfMonotone) {
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(i % 17 * 1.0);
  Histogram h = Histogram::FromSamples(xs, 10);
  double prev = -1.0;
  for (double x = h.lo(); x <= h.hi(); x += (h.hi() - h.lo()) / 20) {
    const double c = h.CdfAt(x);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_NEAR(h.CdfAt(h.hi() + 1), 1.0, 1e-12);
}

TEST(HistogramTest, ApproxMeanNearTrueMean) {
  std::vector<double> xs;
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double x = (i % 100) * 0.1;
    xs.push_back(x);
    sum += x;
  }
  Histogram h = Histogram::FromSamples(xs, 50);
  EXPECT_NEAR(h.ApproxMean(), sum / 1000, 0.2);
}

TEST(HistogramTest, NonFiniteSamplesAreDroppedAndCounted) {
  // Regression: floor(NaN)/floor(inf) cast to int is UB; non-finite
  // observations must be skipped and tallied instead of binned.
  Histogram h(0.0, 10.0, 10);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  h.Add(-std::numeric_limits<double>::infinity());
  h.Add(5.0);
  EXPECT_EQ(h.total_count(), 1);
  EXPECT_EQ(h.dropped_count(), 3);
  EXPECT_DOUBLE_EQ(h.CdfAt(10.0), 1.0);  // CDF is over the binned mass
}

TEST(HistogramTest, FromSamplesIgnoresNonFiniteForRange) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Histogram h = Histogram::FromSamples({nan, 1.0, 2.0}, 4);
  EXPECT_DOUBLE_EQ(h.lo(), 1.0);
  EXPECT_DOUBLE_EQ(h.hi(), 2.0);
  EXPECT_EQ(h.total_count(), 2);
  EXPECT_EQ(h.dropped_count(), 1);

  // All-non-finite input must not poison the bin boundaries either.
  Histogram empty = Histogram::FromSamples({nan, nan}, 4);
  EXPECT_EQ(empty.total_count(), 0);
  EXPECT_EQ(empty.dropped_count(), 2);
  EXPECT_DOUBLE_EQ(empty.lo(), 0.0);
  EXPECT_DOUBLE_EQ(empty.hi(), 1.0);
}

TEST(HistogramTest, RangeWiderThanDblMaxBinsEverySample) {
  // Regression: max - min overflowed to inf, so every bound was NaN or
  // inf, the max's quotient was inf / inf and its cast to int was UB.
  Histogram h = Histogram::FromSamples({-1e308, 0.0, 1e308}, 4);
  EXPECT_EQ(h.total_count(), 3);
  EXPECT_EQ(h.dropped_count(), 0);
  EXPECT_EQ(h.bin_count(0), 1);
  EXPECT_EQ(h.bin_count(2), 1);
  EXPECT_EQ(h.bin_count(3), 1);
  EXPECT_EQ(h.bin_lo(0), -1e308);
  EXPECT_EQ(h.bin_hi(3), 1e308);
  for (int i = 0; i < h.num_bins(); ++i) {
    EXPECT_TRUE(std::isfinite(h.bin_lo(i))) << "bin " << i;
    EXPECT_TRUE(std::isfinite(h.bin_hi(i))) << "bin " << i;
    EXPECT_LT(h.bin_lo(i), h.bin_hi(i)) << "bin " << i;
  }

  // One bin cannot span the range in a finite width; it still holds
  // every sample between finite bounds.
  Histogram one = Histogram::FromSamples({-1e308, 1e308}, 1);
  EXPECT_EQ(one.bin_count(0), 2);
  EXPECT_EQ(one.dropped_count(), 0);
  EXPECT_TRUE(std::isfinite(one.bin_lo(0)));
  EXPECT_TRUE(std::isfinite(one.bin_hi(0)));
}

TEST(HistogramTest, AffineTransformZeroAlphaCollapsesToPointMass) {
  // Regression: alpha == 0 used to keep the old bin layout over a
  // silently unit-widened [beta, beta] range. The mapped distribution is
  // the point mass at beta: one bin holds everything.
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  Histogram h = Histogram::FromSamples(xs, 8);
  Histogram t = h.AffineTransformed(0.0, 5.0);
  EXPECT_EQ(t.total_count(), 4);
  int nonzero_bins = 0;
  int mass_bin = -1;
  for (int i = 0; i < t.num_bins(); ++i) {
    if (t.bin_count(i) > 0) {
      ++nonzero_bins;
      mass_bin = i;
    }
  }
  ASSERT_EQ(nonzero_bins, 1);
  EXPECT_EQ(t.bin_count(mass_bin), 4);
  EXPECT_LE(t.bin_lo(mass_bin), 5.0);
  EXPECT_GT(t.bin_hi(mass_bin), 5.0);
  EXPECT_DOUBLE_EQ(t.CdfAt(t.hi()), 1.0);
  EXPECT_NEAR(t.ApproxMean(), 5.0, t.bin_hi(mass_bin) - t.bin_lo(mass_bin));

  // A non-finite beta maps every sample to a non-finite point: all mass
  // drops, exactly as if the samples had been Add'ed after the mapping.
  Histogram inf = h.AffineTransformed(0.0,
                                      std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf.total_count(), 0);
  EXPECT_EQ(inf.dropped_count(), 4);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,,c");
  EXPECT_EQ(Split("a,b,,c", ','), parts);
}

TEST(StringTest, SplitEdgeCases) {
  EXPECT_EQ(Split("", ',').size(), 1u);
  EXPECT_EQ(Split("abc", ',').size(), 1u);
  EXPECT_EQ(Split(",", ',').size(), 2u);
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("EXPECT", "expect"));
  EXPECT_FALSE(EqualsIgnoreCase("EXPECT", "expect_"));
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringTest, StartsWith) {
  EXPECT_TRUE(StartsWith("jigsaw", "jig"));
  EXPECT_FALSE(StartsWith("jig", "jigsaw"));
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(HashTest, Fnv1aDistinguishesInputs) {
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
  EXPECT_EQ(Fnv1a64("same"), Fnv1a64("same"));
}

TEST(HashTest, HashWordsOrderDependent) {
  EXPECT_NE(HashWords({1, 2, 3}), HashWords({3, 2, 1}));
  EXPECT_EQ(HashWords({1, 2, 3}), HashWords({1, 2, 3}));
  EXPECT_NE(HashWords({}), HashWords({0}));
}

TEST(HashTest, HashIdsOrderDependent) {
  EXPECT_NE(HashIds({0, 1, 2}), HashIds({0, 2, 1}));
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace jigsaw
