#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/string_util.h"

namespace jigsaw {

OutputMetrics OutputMetrics::MappedBy(const AffineMap& m) const {
  const auto [alpha, beta] = m;
  OutputMetrics out;
  out.count = count;
  out.mean = alpha * mean + beta;
  out.stddev = std::fabs(alpha) * stddev;
  out.std_error = std::fabs(alpha) * std_error;
  const double a = alpha * min + beta;
  const double b = alpha * max + beta;
  out.min = std::min(a, b);
  out.max = std::max(a, b);
  out.p50 = alpha * p50 + beta;
  // Quantiles flip under alpha < 0: p95 of the mapped distribution is the
  // (1-0.95) quantile of the original. Only p50/p95 are cached, so the
  // mapped p50 stands in for it.
  out.p95 = alpha >= 0 ? alpha * p95 + beta : out.p50;
  if (histogram) {
    out.histogram = histogram->AffineTransformed(alpha, beta);
  }
  if (!samples.empty()) {
    out.samples.reserve(samples.size());
    for (double s : samples) out.samples.push_back(alpha * s + beta);
  }
  return out;
}

std::string OutputMetrics::ToString() const {
  return StrFormat(
      "{n=%lld mean=%.6g sd=%.6g se=%.3g min=%.6g max=%.6g p50=%.6g "
      "p95=%.6g}",
      static_cast<long long>(count), mean, stddev, std_error, min, max, p50,
      p95);
}

namespace {

/// True when `xs` holds both +0.0 and -0.0: the only finite doubles that
/// compare equal but differ in bits.
bool HoldsBothZeroSigns(std::span<const double> xs) {
  bool seen[2] = {false, false};
  for (double x : xs) {
    if (x == 0.0) seen[std::signbit(x) ? 1 : 0] = true;
  }
  return seen[0] && seen[1];
}

}  // namespace

void Estimator::AddRepeated(std::span<const double> xs,
                            std::int64_t copies) {
  JIGSAW_CHECK_MSG(borrowed_.empty(), kCopyAfterBorrow);
  if (copies > 1 && !xs.empty() && count() == 0 && !HoldsBothZeroSigns(xs)) {
    for (std::int64_t k = 0; k < copies; ++k) acc_.AddSpan(xs);
    all_.assign(xs.begin(), xs.end());
    copies_ = copies;
    return;
  }
  for (std::int64_t k = 0; k < copies; ++k) AddSpan(xs);
}

void Estimator::Expand() {
  const std::size_t n = all_.size();
  all_.resize(n * static_cast<std::size_t>(copies_));
  for (auto copy = all_.begin() + static_cast<std::ptrdiff_t>(n);
       copy != all_.end(); copy += static_cast<std::ptrdiff_t>(n)) {
    std::copy_n(all_.begin(), n, copy);
  }
  copies_ = 1;
}

OutputMetrics Estimator::Finalize() const& { return Summarize(nullptr); }

OutputMetrics Estimator::Finalize() && {
  return Summarize(borrowed_.empty() ? &all_ : nullptr);
}

OutputMetrics Estimator::Summarize(std::vector<double>* reorderable) const {
  OutputMetrics out;
  out.count = acc_.count();
  out.mean = acc_.mean();
  out.stddev = acc_.stddev();
  out.std_error = acc_.standard_error();
  out.min = acc_.count() ? acc_.min() : 0.0;
  out.max = acc_.count() ? acc_.max() : 0.0;
  // The folded values are `copies_` copies of these parts, in order.
  const std::span<const double> own(all_);
  const std::span<const std::span<const double>> parts =
      borrowed_.empty() ? std::span(&own, 1) : std::span(borrowed_);
  if (out.count != 0) {
    // The histogram (which drops non-finite values itself) and the kept
    // samples read the values in fold order. Welford's extremes are the
    // histogram's range whenever both are finite: like
    // Histogram::FiniteRange they start from the first finite value, skip
    // NaN and move only on a strict comparison, so they agree to the zero
    // sign; otherwise an infinity took one, and the range is rescanned
    // over the finite values. Every value of the parts stands for copies_
    // folded ones, so each bins copies_ times.
    const auto [lo, hi] = std::isfinite(out.min) && std::isfinite(out.max)
                              ? std::pair(out.min, out.max)
                              : Histogram::FiniteRange(parts);
    Histogram histogram(lo, hi, histogram_bins_);
    std::size_t size = 0;
    for (const std::span<const double> part : parts) {
      histogram.AddSpan(part, copies_);
      size += part.size();
    }
    if (keep_samples_) {
      out.samples.reserve(size * static_cast<std::size_t>(copies_));
      for (std::int64_t k = 0; k < copies_; ++k) {
        for (const std::span<const double> part : parts) {
          out.samples.insert(out.samples.end(), part.begin(), part.end());
        }
      }
    }
    // Quantiles are taken over the finite mass: NaNs break selection's
    // strict weak ordering, and the histogram counted every finite value
    // copies_ times. SelectQuantiles returns the bits QuantileSelect, and
    // so a full sort of all the copies, would; at millions of folded
    // tuples it reads the parts where they lie, so a borrowed column is
    // never copied.
    const auto finite =
        static_cast<std::size_t>(histogram.total_count() / copies_);
    if (finite != 0) {
      constexpr double kQuantiles[] = {0.50, 0.95};
      double quantiles[2];
      SelectQuantiles({parts, static_cast<std::size_t>(copies_), finite, lo,
                       hi},
                      kQuantiles, quantiles, reorderable);
      out.p50 = quantiles[0];
      out.p95 = quantiles[1];
    }
    out.histogram = std::move(histogram);
  }
  return out;
}

OutputMetrics MetricsFromSamples(const std::vector<double>& samples,
                                 bool keep_samples, int histogram_bins) {
  Estimator est(keep_samples, histogram_bins);
  est.AddSpan(samples);
  return std::move(est).Finalize();
}

}  // namespace jigsaw
