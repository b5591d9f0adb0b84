#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace jigsaw {

Histogram::Histogram(double lo, double hi, int num_bins)
    : lo_(lo), hi_(hi), counts_(static_cast<std::size_t>(num_bins), 0) {
  JIGSAW_CHECK_MSG(num_bins > 0, "histogram needs at least one bin");
  if (hi_ <= lo_) hi_ = lo_ + 1.0;  // degenerate range; widen to unit width
  width_ = (hi_ - lo_) / num_bins;
  if (!std::isfinite(width_)) {
    // The range is wider than DBL_MAX, so hi_ - lo_ overflows; a bin's
    // share of it does not, except with one bin, which then spans at most
    // DBL_MAX (every observation lands in it either way).
    width_ = std::min(hi_ / num_bins - lo_ / num_bins,
                      std::numeric_limits<double>::max());
  }
}

int Histogram::BinOf(double x) const {
  double q = (x - lo_) / width_;
  if (!std::isfinite(q)) {
    // x - lo_ overflowed, x lies far outside the range, or the range is
    // degenerate: place x by its share of the range, computed from
    // halves so that every intermediate value stays finite.
    q = (x / 2 - lo_ / 2) / (hi_ / 2 - lo_ / 2) * num_bins();
  }
  // Clamp in double before the cast, with selects rather than a branch
  // (values on the low edge, mixed at random with others, would
  // mispredict one): out-of-range observations land in the edge bins, and
  // a NaN quotient in bin 0. The low clamp is a mask, as GCC turns
  // std::max(0.0, q) into a jump: q > 0 keeps q's bits, and anything else
  // (-0, negative, NaN) becomes +0. The clamped quotient is non-negative,
  // so the truncating cast is its floor.
  const std::uint64_t positive = 0 - static_cast<std::uint64_t>(q > 0);
  q = std::bit_cast<double>(std::bit_cast<std::uint64_t>(q) & positive);
  return static_cast<int>(std::min(q, num_bins() - 1.0));
}

Histogram Histogram::FromSamples(const std::vector<double>& samples,
                                 int num_bins) {
  const std::span<const double> all(samples);
  const auto [lo, hi] = FiniteRange(std::span(&all, 1));
  Histogram h(lo, hi, num_bins);
  h.AddSpan(samples);
  return h;
}

std::pair<double, double> Histogram::FiniteRange(
    std::span<const std::span<const double>> parts) {
  // Range over the finite samples only: a single NaN/inf must not poison
  // every bin boundary (non-finite samples are dropped by Add).
  double lo = 0.0, hi = 1.0;
  bool seen_finite = false;
  for (const std::span<const double> part : parts) {
    for (double s : part) {
      if (!std::isfinite(s)) continue;
      lo = seen_finite ? std::min(lo, s) : s;
      hi = seen_finite ? std::max(hi, s) : s;
      seen_finite = true;
    }
  }
  return {lo, hi};
}

void Histogram::Add(double x, std::int64_t copies) {
  if (!std::isfinite(x)) {
    // floor() of NaN/±inf is non-finite and casting it to int is UB; a
    // non-finite observation has no bin, so count it as dropped instead.
    dropped_ += copies;
    return;
  }
  counts_[static_cast<std::size_t>(BinOf(x))] += copies;
  total_ += copies;
}

void Histogram::AddSpan(std::span<const double> xs, std::int64_t copies) {
  for (double x : xs) Add(x, copies);
}

Histogram Histogram::AffineTransformed(double alpha, double beta) const {
  if (alpha == 0.0) {
    // M collapses every sample to beta; copying the old bin layout would
    // pretend the original spread survived. All mass lands in the single
    // bin containing beta (unit-width range centered there). A non-finite
    // beta has no bin, exactly like a non-finite Add: everything drops.
    if (!std::isfinite(beta)) {
      Histogram out(0.0, 1.0, num_bins());
      out.dropped_ = dropped_ + total_;
      return out;
    }
    Histogram out(beta - 0.5, beta + 0.5, num_bins());
    out.total_ = total_;
    out.dropped_ = dropped_;
    if (total_ > 0) {
      out.counts_[static_cast<std::size_t>(out.BinOf(beta))] = total_;
    }
    return out;
  }
  const double a = lo_ * alpha + beta;
  const double b = hi_ * alpha + beta;
  Histogram out(std::min(a, b), std::max(a, b), num_bins());
  out.total_ = total_;
  out.dropped_ = dropped_;
  if (alpha >= 0) {
    out.counts_ = counts_;
  } else {
    out.counts_.assign(counts_.rbegin(), counts_.rend());
  }
  return out;
}

double Histogram::bin_lo(int i) const { return Edge(i); }
double Histogram::bin_hi(int i) const { return Edge(i + 1); }

double Histogram::Edge(int i) const {
  const double edge = lo_ + width_ * i;
  // Past DBL_MAX above lo_ (a range wider than DBL_MAX), step back from
  // hi_ instead.
  return std::isfinite(edge) ? edge : hi_ - width_ * (num_bins() - i);
}

double Histogram::CdfAt(double x) const {
  if (total_ == 0) return 0.0;
  std::int64_t below = 0;
  for (int i = 0; i < num_bins(); ++i) {
    if (bin_hi(i) <= x) {
      below += counts_[static_cast<std::size_t>(i)];
    } else if (bin_lo(i) <= x) {
      // Partial bin: assume uniform density inside the bin.
      const double frac = (x - bin_lo(i)) / width_;
      below += static_cast<std::int64_t>(
          frac * static_cast<double>(counts_[static_cast<std::size_t>(i)]));
    }
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

double Histogram::ApproxMean() const {
  if (total_ == 0) return 0.0;
  double acc = 0.0;
  for (int i = 0; i < num_bins(); ++i) {
    const double mid = 0.5 * (bin_lo(i) + bin_hi(i));
    acc += mid * static_cast<double>(counts_[static_cast<std::size_t>(i)]);
  }
  return acc / static_cast<double>(total_);
}

}  // namespace jigsaw
