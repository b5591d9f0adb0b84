#pragma once

/// \file metrics.h
/// The Estimator of Figure 3: aggregates i.i.d. samples of a query-result
/// distribution into the "characteristics of interest (mean, standard
/// deviation, etc.)". OutputMetrics is the value cached per basis
/// distribution; MappedBy() is the M_est of Section 3 — it re-derives the
/// metrics of a mapped parameter point without re-simulation.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/mapping.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace jigsaw {

struct OutputMetrics {
  std::int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;       ///< population stddev
  double std_error = 0.0;    ///< standard error of the mean
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  std::optional<Histogram> histogram;
  /// Raw samples, retained only when RunConfig.keep_samples is set (needed
  /// by symbolic post-processing and some tests; costs memory).
  std::vector<double> samples;

  /// Applies a mapping to every derived value, analytically: moments,
  /// extremes and quantiles map through M, the histogram's bin edges
  /// transform and retained samples map element-wise.
  OutputMetrics MappedBy(const AffineMap& m) const;

  std::string ToString() const;
};

/// Streaming estimator used by both the naive path and the fingerprint
/// path (fingerprint samples are the first m simulation rounds and feed
/// the same accumulator). Moments stream through a Welford accumulator;
/// whole sample batches fold via AddSpan, which is bit-identical to
/// element-wise Add — the batched engine's correctness contract.
///
/// Finalize needs every value for the histogram and the exact quantiles.
/// An estimator either copies them into its own buffer (Add, AddSpan,
/// AddRepeated) or borrows the caller's spans (AddBorrowed), never both.
class Estimator {
 public:
  explicit Estimator(bool keep_samples = false, int histogram_bins = 20)
      : keep_samples_(keep_samples), histogram_bins_(histogram_bins) {}

  void Add(double x) {
    JIGSAW_CHECK_MSG(borrowed_.empty(), kCopyAfterBorrow);
    if (copies_ != 1) Expand();
    acc_.Add(x);
    all_.push_back(x);
  }

  /// Folds a whole batch in index order (same result, bit-for-bit, as
  /// adding each element individually).
  void AddSpan(std::span<const double> xs) {
    JIGSAW_CHECK_MSG(borrowed_.empty(), kCopyAfterBorrow);
    if (copies_ != 1) Expand();
    acc_.AddSpan(xs);
    all_.insert(all_.end(), xs.begin(), xs.end());
  }

  /// AddSpan without the copy: Welford folds `xs` now, and Finalize reads
  /// it where it lies, with the same bits as had it been copied. The
  /// caller keeps `xs` alive and unchanged until the last Finalize.
  void AddBorrowed(std::span<const double> xs) {
    JIGSAW_CHECK_MSG(all_.empty(),
                     "an Estimator that copies values cannot borrow spans");
    acc_.AddSpan(xs);
    if (!xs.empty()) borrowed_.push_back(xs);
  }

  /// Folds `copies` concatenated copies of `xs`: bit-identical to calling
  /// AddSpan(xs) `copies` times, Finalize included. Welford consumes every
  /// copy, but when `xs` is the estimator's first fold the buffer keeps
  /// one copy, and Finalize reads the histogram, quantiles and kept
  /// samples of all of them from it — a world-invariant column folds its
  /// one base, not every world's copy of it. A base holding zeros of both
  /// signs is retained in full instead (see QuantileSelect), as is any
  /// later fold.
  void AddRepeated(std::span<const double> xs, std::int64_t copies);

  std::int64_t count() const { return acc_.count(); }

  /// Sizes the retained-value buffer for `n` values in all, so a fold
  /// that knows its tuple count up front allocates it once instead of
  /// growing it by doubling.
  void Reserve(std::size_t n) { all_.reserve(n); }

  /// Finalizes metrics over everything added so far, reading the values
  /// as parts: the estimator's own buffer or its borrowed spans. Both
  /// overloads give the same bits and change no value they read, except
  /// that where SelectQuantiles falls back to QuantileSelect the
  /// consuming one selects in place in its own buffer, and the const one
  /// in a copy of the finite values.
  OutputMetrics Finalize() const&;
  OutputMetrics Finalize() &&;

 private:
  static constexpr const char* kCopyAfterBorrow =
      "an Estimator that borrows spans cannot copy values too";

  /// Writes out the copies all_ stands for, so it holds every value.
  void Expand();

  /// Finalize's one body. `reorderable` is all_ when the caller consumes
  /// the estimator and it owns its values, else null.
  OutputMetrics Summarize(std::vector<double>* reorderable) const;

  WelfordAccumulator acc_;
  bool keep_samples_;
  int histogram_bins_;
  // Kept internally for quantiles/histogram; copied into the result only
  // when keep_samples_ is set. The folded values are `copies_`
  // concatenated copies of it (1 unless AddRepeated kept one base).
  std::vector<double> all_;
  std::int64_t copies_ = 1;
  // The spans AddBorrowed folded, in fold order, when all_ holds nothing.
  std::vector<std::span<const double>> borrowed_;
};

/// Convenience: metrics of a sample vector.
OutputMetrics MetricsFromSamples(const std::vector<double>& samples,
                                 bool keep_samples, int histogram_bins);

}  // namespace jigsaw
