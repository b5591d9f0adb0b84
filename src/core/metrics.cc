#include "core/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace jigsaw {

bool CanMapMetrics(const MappingFunction& m, bool has_samples) {
  return m.AsAffine().has_value() || (m.Invertible() && has_samples);
}

std::optional<OutputMetrics> OutputMetrics::MappedBy(
    const MappingFunction& m, int histogram_bins) const {
  if (!CanMapMetrics(m, !samples.empty())) return std::nullopt;
  if (auto affine = m.AsAffine()) {
    const auto [alpha, beta] = *affine;
    OutputMetrics out;
    out.count = count;
    out.mean = alpha * mean + beta;
    out.stddev = std::fabs(alpha) * stddev;
    out.std_error = std::fabs(alpha) * std_error;
    const double a = alpha * min + beta;
    const double b = alpha * max + beta;
    out.min = std::min(a, b);
    out.max = std::max(a, b);
    const double q50 = alpha * p50 + beta;
    const double q95 = alpha * p95 + beta;
    out.p50 = q50;
    out.p95 = alpha >= 0 ? q95 : q50;  // quantiles flip under alpha<0
    if (alpha < 0) {
      // p95 of the mapped distribution is the (1-0.95) quantile of the
      // original; we only cached p50/p95, so approximate with what exists.
      out.p95 = alpha * p50 + beta;
      out.p50 = q50;
    }
    if (histogram) {
      out.histogram = histogram->AffineTransformed(alpha, beta);
    }
    if (!samples.empty()) {
      out.samples.reserve(samples.size());
      for (double s : samples) out.samples.push_back(alpha * s + beta);
    }
    return out;
  }
  if (m.Invertible() && !samples.empty()) {
    std::vector<double> mapped;
    mapped.reserve(samples.size());
    for (double s : samples) mapped.push_back(m.Apply(s));
    return MetricsFromSamples(mapped, /*keep_samples=*/true, histogram_bins);
  }
  return std::nullopt;
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
