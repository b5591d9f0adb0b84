#pragma once

/// \file symbolic.h
/// Symbolic combination of mapped random variables — the extension the
/// paper sketches in Section 6.2: "Jigsaw's techniques can be further
/// improved by incorporating them into a database engine with a symbolic
/// execution strategy (e.g. PIP). ... consider two random variables
/// X = MX(f(x)) = 2*f(x)+2 and Y = MY(f(x)) = 3*f(x)+3. We can
/// symbolically produce X + Y = 5*f(x)+5. Similarly, given a histogram of
/// f(x) we can efficiently compute the probability that MX > MY."
///
/// A SymbolicVar is an affine view alpha*B + beta over a basis
/// distribution B whose samples were retained by the runner. Because
/// every basis is sampled under the *global* seed vector, samples of two
/// different bases are aligned world-by-world: sample k of each basis
/// belongs to the same possible world. Joint quantities — X + Y,
/// P(X > Y) — therefore reduce to one cheap pass over cached basis
/// samples, with zero further black-box invocations. This is exactly what
/// rescues Overload-style boolean queries (see bench_ablation_symbolic).
///
/// Same-basis pairs take fully analytic fast paths (the paper's example).

#include <vector>

#include "core/basis_store.h"
#include "core/metrics.h"
#include "core/sim_runner.h"
#include "util/status.h"

namespace jigsaw {

class SymbolicVar {
 public:
  /// Builds the symbolic view of a point result: the basis it was served
  /// from plus its mapping. Requires retained basis samples
  /// (RunConfig.keep_samples).
  static Result<SymbolicVar> FromPoint(const BasisStore& store,
                                       const PointResult& point);

  /// Direct constructor for tests / custom pipelines. `basis_samples`
  /// must outlive the SymbolicVar.
  SymbolicVar(BasisId basis_id, const std::vector<double>* basis_samples,
              double alpha, double beta);

  BasisId basis_id() const { return basis_id_; }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  std::size_t num_samples() const { return samples_->size(); }

  /// The k'th aligned sample of this variable.
  double SampleAt(std::size_t k) const {
    return alpha_ * (*samples_)[k] + beta_;
  }

  /// Affine closure: scaling and shifting stay symbolic (and free).
  SymbolicVar Scale(double factor) const {
    return SymbolicVar(basis_id_, samples_, alpha_ * factor, beta_ * factor);
  }
  SymbolicVar Shift(double offset) const {
    return SymbolicVar(basis_id_, samples_, alpha_, beta_ + offset);
  }

  /// X + Y / X - Y. Same basis: purely symbolic (coefficients add), the
  /// paper's example. Different bases: requires equal, seed-aligned
  /// sample counts; the result is materialized from the aligned samples.
  Result<SymbolicVar> Add(const SymbolicVar& other,
                          std::vector<double>* materialized_storage) const;
  Result<SymbolicVar> Sub(const SymbolicVar& other,
                          std::vector<double>* materialized_storage) const;

  /// Distribution summary, computed without any model invocation.
  OutputMetrics Metrics(bool keep_samples, int histogram_bins) const;

  /// P(X > Y) over the joint (seed-aligned) distribution. Same-basis
  /// pairs reduce analytically to a threshold on B; cross-basis pairs
  /// take one pass over the aligned samples.
  Result<double> ProbGreater(const SymbolicVar& other) const;

  /// P(X > t).
  double ProbGreaterThan(double threshold) const;

 private:
  Result<SymbolicVar> Combine(const SymbolicVar& other, double sign,
                              std::vector<double>* storage) const;

  BasisId basis_id_;
  const std::vector<double>* samples_;
  double alpha_;
  double beta_;
};

}  // namespace jigsaw
