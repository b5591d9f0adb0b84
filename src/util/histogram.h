#pragma once

/// \file histogram.h
/// Fixed-bin-count histogram over doubles. Supports the affine transform
/// needed when a basis distribution's histogram is reused for a linearly
/// mapped parameter point (Section 3 of the paper: mapping functions are
/// "easily applied to simple aggregate properties").

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace jigsaw {

class Histogram {
 public:
  /// Builds a histogram with `num_bins` equal-width bins over [lo, hi].
  /// Observations outside the range are clamped into the edge bins.
  Histogram(double lo, double hi, int num_bins);

  /// Builds from samples, choosing [min, max] of the data as range.
  static Histogram FromSamples(const std::vector<double>& samples,
                               int num_bins);

  /// [min, max] of the finite samples that `parts` hold in order, the
  /// range FromSamples bins over; [0, 1] when no sample is finite.
  static std::pair<double, double> FiniteRange(
      std::span<const std::span<const double>> parts);

  /// Bins a finite observation `copies` times: the counts of that many
  /// repeats of it. Non-finite observations (NaN, ±inf) have no bin; they
  /// are skipped and tallied in dropped_count().
  void Add(double x, std::int64_t copies = 1);

  /// Add(x, copies) for each x of `xs`, in order.
  void AddSpan(std::span<const double> xs, std::int64_t copies = 1);

  /// Applies M(x) = alpha*x + beta to the bin boundaries. A negative alpha
  /// reverses bin order. Counts are preserved exactly, which is the key
  /// property that makes histogram reuse free of resampling error.
  /// alpha == 0 collapses the distribution to the point beta: all mass
  /// moves into the single bin containing beta.
  Histogram AffineTransformed(double alpha, double beta) const;

  int num_bins() const { return static_cast<int>(counts_.size()); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::int64_t total_count() const { return total_; }
  /// Non-finite observations rejected by Add.
  std::int64_t dropped_count() const { return dropped_; }
  std::int64_t bin_count(int i) const { return counts_[i]; }
  double bin_lo(int i) const;
  double bin_hi(int i) const;

  /// Probability mass at or below x (inclusive of the full bin containing
  /// x). An approximation suitable for threshold probabilities.
  double CdfAt(double x) const;

  /// Mean of bin midpoints weighted by counts.
  double ApproxMean() const;

  bool operator==(const Histogram& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_ && total_ == other.total_ &&
           dropped_ == other.dropped_ && counts_ == other.counts_;
  }

 private:
  /// Bin of a finite observation; outside the range, the nearest edge bin.
  int BinOf(double x) const;
  /// Lower boundary of bin i (i == num_bins(): the upper end).
  double Edge(int i) const;

  double lo_;
  double hi_;
  double width_;
  std::int64_t total_ = 0;
  std::int64_t dropped_ = 0;
  std::vector<std::int64_t> counts_;
};

}  // namespace jigsaw
