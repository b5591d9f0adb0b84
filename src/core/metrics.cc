#include "core/metrics.h"

#include <algorithm>
#include <cmath>

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

OutputMetrics Estimator::Finalize() const& {
  return Estimator(*this).Finalize();
}

OutputMetrics Estimator::Finalize() && {
  OutputMetrics out;
  out.count = acc_.count();
  out.mean = acc_.mean();
  out.stddev = acc_.stddev();
  out.std_error = acc_.standard_error();
  out.min = acc_.count() ? acc_.min() : 0.0;
  out.max = acc_.count() ? acc_.max() : 0.0;
  if (!all_.empty()) {
    // The histogram (which drops non-finite values itself) and the kept
    // samples read the values in fold order before selection permutes
    // them. Quantiles are taken over the finite mass: NaNs break
    // selection's strict weak ordering. erase_if keeps the survivors in
    // order, and QuantileSelect returns the same bits a full sort would;
    // at millions of folded tuples the O(n log n) sort, not the fold,
    // used to dominate finalization.
    out.histogram = Histogram::FromSamples(all_, histogram_bins_);
    if (keep_samples_) out.samples = all_;
    std::erase_if(all_, [](double x) { return !std::isfinite(x); });
    if (!all_.empty()) {
      out.p50 = QuantileSelect(all_, 0.50);
      out.p95 = QuantileSelect(all_, 0.95);
    }
  }
  return out;
}

OutputMetrics MetricsFromSamples(const std::vector<double>& samples,
                                 bool keep_samples, int histogram_bins) {
  Estimator est(keep_samples, histogram_bins);
  est.AddSpan(samples);
  return est.Finalize();
}

}  // namespace jigsaw
