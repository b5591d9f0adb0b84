#pragma once

/// \file mapping.h
/// Mapping functions (Section 3): closed-form maps M between the output
/// domains of two instantiations of a stochastic function. Jigsaw ships the
/// linear class M(x) = alpha*x + beta (Algorithm 2) and lets users register
/// their own classes ("the notion of similarity between two signatures is
/// application dependent").
///
/// A MappingFinder embodies one class: it discovers a mapping between two
/// fingerprints, reports whether the class is monotone (enables Sorted-SID
/// indexing) and whether it admits a normal form (enables the
/// Normalization index).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fingerprint.h"

namespace jigsaw {

/// Relative tolerance for validating candidate mappings: Algorithm 2's
/// equality test, adapted to IEEE doubles.
inline constexpr double kMappingTolerance = 1e-9;

class MappingFunction {
 public:
  virtual ~MappingFunction() = default;

  /// Maps one sample value from the basis domain to the target domain.
  virtual double Apply(double x) const = 0;

  /// Inverse map (target -> basis). Only valid when Invertible().
  virtual double Invert(double y) const = 0;
  virtual bool Invertible() const = 0;

  virtual bool IsIdentity() const { return false; }

  /// If this mapping is affine (y = alpha*x + beta), returns (alpha, beta).
  /// Affine mappings transform aggregate metrics analytically: the
  /// "M_expect derived from M" of Section 3.
  virtual std::optional<std::pair<double, double>> AsAffine() const {
    return std::nullopt;
  }

  virtual std::string ToString() const = 0;
};

using MappingPtr = std::shared_ptr<const MappingFunction>;

/// M(x) = x.
class IdentityMapping final : public MappingFunction {
 public:
  double Apply(double x) const override { return x; }
  double Invert(double y) const override { return y; }
  bool Invertible() const override { return true; }
  bool IsIdentity() const override { return true; }
  std::optional<std::pair<double, double>> AsAffine() const override {
    return std::make_pair(1.0, 0.0);
  }
  std::string ToString() const override { return "M(x) = x"; }

  static MappingPtr Make();
};

/// M(x) = alpha*x + beta. alpha == 0 is a legal degenerate (constant)
/// mapping but is not invertible.
class LinearMapping final : public MappingFunction {
 public:
  LinearMapping(double alpha, double beta) : alpha_(alpha), beta_(beta) {}

  double Apply(double x) const override { return alpha_ * x + beta_; }
  double Invert(double y) const override;
  bool Invertible() const override { return alpha_ != 0.0; }
  bool IsIdentity() const override { return alpha_ == 1.0 && beta_ == 0.0; }
  std::optional<std::pair<double, double>> AsAffine() const override {
    return std::make_pair(alpha_, beta_);
  }
  std::string ToString() const override;

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

 private:
  double alpha_;
  double beta_;
};

/// One user-extensible class of mapping functions.
class MappingFinder {
 public:
  virtual ~MappingFinder() = default;

  virtual const std::string& class_name() const = 0;

  /// Algorithm 2 generalized: returns M with M(from[i]) ~= to[i] for every
  /// i (within relative tolerance `tol`), or nullptr if no member of this
  /// class fits.
  virtual MappingPtr Find(const Fingerprint& from, const Fingerprint& to,
                          double tol) const = 0;

  /// True if every member of the class is monotone (Sorted-SID indexing is
  /// sound for the class, Section 3.2).
  virtual bool IsMonotone() const = 0;

  /// True if the class admits a canonical normal form.
  virtual bool SupportsNormalization() const = 0;

  /// Normal form of a fingerprint, quantized to a `quantum` grid for use
  /// as a hash key: two fingerprints related by a mapping of this class
  /// share a normal form. nullopt when unsupported.
  virtual std::optional<std::vector<std::uint64_t>> NormalForm(
      const Fingerprint& fp, double tol, double quantum) const = 0;
};

using MappingFinderPtr = std::shared_ptr<const MappingFinder>;

/// The linear class of Algorithm 2. Normal form: affinely send the first
/// two distinct entries to 0 and 1 — invariant under any M(x)=alpha*x+beta
/// with alpha != 0, because such maps preserve *which* positions hold the
/// first two distinct values.
///
/// Constant fingerprints: the paper's Algorithm 2 literally computes
/// alpha = (x-x)/(y-y) on them and finds nothing. We extend the class
/// with the translation mapping between constant fingerprints (important
/// for boolean outputs like Overload, whose zero-risk regions are all
/// constant-zero). Make() returns the extended finder; MakeStrict()
/// reproduces the paper's literal behaviour for A/B comparison (see
/// bench_fig8_baseline).
class LinearMappingFinder final : public MappingFinder {
 public:
  explicit LinearMappingFinder(bool allow_constant_reuse = true)
      : allow_constant_reuse_(allow_constant_reuse) {}

  const std::string& class_name() const override;
  MappingPtr Find(const Fingerprint& from, const Fingerprint& to,
                  double tol) const override;
  bool IsMonotone() const override { return true; }
  bool SupportsNormalization() const override { return true; }
  std::optional<std::vector<std::uint64_t>> NormalForm(
      const Fingerprint& fp, double tol, double quantum) const override;

  static MappingFinderPtr Make();
  static MappingFinderPtr MakeStrict();

 private:
  bool allow_constant_reuse_;
};

/// Free-function form of Algorithm 2 (FindLinearMapping), with the
/// constant-translation extension. Exposed for tests and documentation
/// symmetry with the paper.
MappingPtr FindLinearMapping(const Fingerprint& theta1,
                             const Fingerprint& theta2, double tol);

}  // namespace jigsaw
