#pragma once

/// \file math_util.h
/// Numerically stable streaming statistics and small math helpers shared by
/// the estimator, fingerprint tolerance checks, and benchmarks.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace jigsaw {

/// Welford's online algorithm for mean and variance. Single pass, stable.
class WelfordAccumulator {
 public:
  /// Adds one observation.
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Adds a whole span in index order. Exactly equivalent to calling
  /// Add element-wise (bit-for-bit), but keeps the update loop tight for
  /// the batched sampling path: it updates a local copy, whose fields
  /// the compiler can hold in registers, where it must otherwise store
  /// them every step in case `xs` aliases them.
  void AddSpan(std::span<const double> xs) {
    WelfordAccumulator local = *this;
    for (double x : xs) local.Add(x);
    *this = local;
  }

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance (divide by n).
  double variance() const {
    return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
  }
  /// Sample variance (divide by n-1).
  double sample_variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double sample_stddev() const { return std::sqrt(sample_variance()); }
  double min() const { return min_; }
  double max() const { return max_; }
  /// Standard error of the mean (uses sample stddev).
  double standard_error() const {
    return count_ > 1 ? sample_stddev() / std::sqrt(static_cast<double>(count_))
                      : std::numeric_limits<double>::infinity();
  }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Returns the q-quantile (q in [0,1]) of `sorted` using linear
/// interpolation between closest ranks. `sorted` must be ascending.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Convenience: copies, sorts, and computes a quantile.
double Quantile(std::vector<double> values, double q);

/// Bit-identical to `QuantileSorted(sorted(values), q)` but computed by
/// selection (nth_element + a tail scan) in O(n) instead of a full
/// O(n log n) sort — order statistics are unique multiset values, so the
/// interpolated result carries the exact same bits. Partially reorders
/// `values`; elements must be totally ordered (no NaNs).
///
/// With `copies` > 1 it is the q-quantile of `copies` concatenated copies
/// of `values`, selected in `values` alone: rank r of the copies' order
/// is rank r / copies of `values`. Equal doubles then carry equal bits
/// unless they are zeros of both signs, so `values` must not hold both
/// +0.0 and -0.0 (selection over the copies could return either).
double QuantileSelect(std::vector<double>& values, double q,
                      std::size_t copies = 1);

/// The fewest finite values SelectQuantiles hands to its radix select.
/// Below it QuantileSelect runs: over a few thousand values, which fit in
/// cache, its nth_element costs no more than the radix select's two
/// passes, and above it nth_element slows per value while the passes do
/// not (bench_batched_sampling's finalize rows). 1,000-world folds fall
/// below it; a 1,048,576-tuple join column lies far above it.
inline constexpr std::size_t kRadixSelectMinValues = std::size_t{1} << 13;

/// A sequence of doubles held as consecutive parts, read in order and
/// repeated `copies` times, of which quantiles are taken over the finite
/// values: what Estimator::Finalize selects p50 and p95 from.
struct FiniteParts {
  std::span<const std::span<const double>> parts;
  std::size_t copies = 1;
  std::size_t count = 0;  ///< finite values in one copy of `parts`
  double lo = 0.0;        ///< the least of them (either zero for a zero)
  double hi = 0.0;        ///< the greatest of them (either zero for a zero)
};

/// Sets out[i] to the qs[i]-quantile of `values`' finite values, for
/// each i: bit-identical, down to which zero it returns, to calling
/// QuantileSelect(finite, qs[i], values.copies) for each i in turn on
/// one vector `finite` of them in order. `values.count` must be at
/// least 1.
///
/// From kRadixSelectMinValues finite values on, a two-pass radix select
/// reads the parts without changing them. Below that, or when the values
/// hold zeros of both signs (QuantileSelect's nth_element picks which
/// zero), QuantileSelect runs: in `*in_place` when it is non-null, which
/// must then be the one part and may be reordered and lose its
/// non-finite values, and otherwise in a copy of the finite values.
void SelectQuantiles(const FiniteParts& values, std::span<const double> qs,
                     std::span<double> out,
                     std::vector<double>* in_place = nullptr);

/// True if |a-b| <= atol + rtol*max(|a|,|b|). The fingerprint-matching
/// tolerance test used throughout the core.
inline bool ApproxEqual(double a, double b, double rtol = 1e-9,
                        double atol = 1e-12) {
  const double diff = std::fabs(a - b);
  const double scale = std::fmax(std::fabs(a), std::fabs(b));
  return diff <= atol + rtol * scale;
}

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

}  // namespace jigsaw
