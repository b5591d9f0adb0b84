#include "core/symbolic.h"

#include <utility>

#include "util/logging.h"

namespace jigsaw {

SymbolicVar::SymbolicVar(BasisId basis_id,
                         const std::vector<double>* basis_samples,
                         double alpha, double beta)
    : basis_id_(basis_id),
      samples_(basis_samples),
      alpha_(alpha),
      beta_(beta) {
  JIGSAW_CHECK(samples_ != nullptr);
}

Result<SymbolicVar> SymbolicVar::FromPoint(const BasisStore& store,
                                           const PointResult& point) {
  const BasisDistribution& basis = store.Get(point.basis_id);
  if (basis.metrics.samples.empty()) {
    return Status::InvalidArgument(
        "basis samples were not retained; set RunConfig.keep_samples");
  }
  return SymbolicVar(point.basis_id, &basis.metrics.samples,
                     point.mapping.alpha, point.mapping.beta);
}

Result<SymbolicVar> SymbolicVar::Combine(
    const SymbolicVar& other, double sign,
    std::vector<double>* storage) const {
  if (basis_id_ == other.basis_id_ && samples_ == other.samples_) {
    // The paper's analytic case: same underlying f(x), coefficients add.
    return SymbolicVar(basis_id_, samples_, alpha_ + sign * other.alpha_,
                       beta_ + sign * other.beta_);
  }
  if (storage == nullptr) {
    return Status::InvalidArgument(
        "cross-basis combination requires materialization storage");
  }
  if (samples_->size() != other.samples_->size()) {
    return Status::InvalidArgument(
        "cross-basis combination requires equal, seed-aligned sample "
        "counts");
  }
  storage->resize(samples_->size());
  for (std::size_t k = 0; k < samples_->size(); ++k) {
    (*storage)[k] = SampleAt(k) + sign * other.SampleAt(k);
  }
  // The materialized vector becomes its own (identity-mapped) basis.
  return SymbolicVar(basis_id_, storage, 1.0, 0.0);
}

Result<SymbolicVar> SymbolicVar::Add(
    const SymbolicVar& other, std::vector<double>* storage) const {
  return Combine(other, 1.0, storage);
}

Result<SymbolicVar> SymbolicVar::Sub(
    const SymbolicVar& other, std::vector<double>* storage) const {
  return Combine(other, -1.0, storage);
}

OutputMetrics SymbolicVar::Metrics(bool keep_samples,
                                   int histogram_bins) const {
  Estimator est(keep_samples, histogram_bins);
  for (std::size_t k = 0; k < samples_->size(); ++k) est.Add(SampleAt(k));
  return std::move(est).Finalize();
}

Result<double> SymbolicVar::ProbGreater(const SymbolicVar& other) const {
  if (basis_id_ == other.basis_id_ && samples_ == other.samples_) {
    // X - Y = (a1-a2)*B + (b1-b2): threshold on the basis itself.
    const double da = alpha_ - other.alpha_;
    const double db = beta_ - other.beta_;
    if (da == 0.0) return db > 0.0 ? 1.0 : 0.0;
    const double t = -db / da;
    std::size_t above = 0;
    for (double b : *samples_) {
      if (da > 0.0 ? b > t : b < t) ++above;
    }
    return static_cast<double>(above) /
           static_cast<double>(samples_->size());
  }
  if (samples_->size() != other.samples_->size()) {
    return Status::InvalidArgument(
        "cross-basis comparison requires equal, seed-aligned sample "
        "counts");
  }
  std::size_t above = 0;
  for (std::size_t k = 0; k < samples_->size(); ++k) {
    if (SampleAt(k) > other.SampleAt(k)) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(samples_->size());
}

double SymbolicVar::ProbGreaterThan(double threshold) const {
  std::size_t above = 0;
  for (std::size_t k = 0; k < samples_->size(); ++k) {
    if (SampleAt(k) > threshold) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(samples_->size());
}

}  // namespace jigsaw
