#pragma once

/// \file mapping.h
/// Mapping functions (Section 3): closed-form maps M between the output
/// domains of two instantiations of a stochastic function. Jigsaw has one
/// mapping class, the linear M(x) = alpha*x + beta of Algorithm 2, held as
/// a plain value. The paper allows other classes ("the notion of
/// similarity between two signatures is application dependent"), but no
/// second class was ever written here, and tightening the one class (an
/// identifiability rule for fingerprints with few distinct values)
/// changes FindLinearMapping in place rather than adding a class.

#include <optional>

#include "core/fingerprint.h"
#include "util/logging.h"

namespace jigsaw {

/// Relative tolerance for validating candidate mappings: Algorithm 2's
/// equality test, adapted to IEEE doubles.
inline constexpr double kMappingTolerance = 1e-9;

/// M(x) = alpha*x + beta; the default value is the identity. Every
/// consumer reads the two coefficients: M_est maps a basis's metrics
/// (Algorithm 3), the Markov jump maps rebuilt states (Algorithm 4) and
/// interactive refinement maps samples back through M^-1 (Algorithm 5).
/// alpha == 0 is a legal degenerate (constant) map with no inverse.
struct AffineMap {
  double alpha = 1.0;
  double beta = 0.0;

  double Apply(double x) const { return alpha * x + beta; }
  /// Inverse map (target -> basis). Only valid when Invertible().
  double Invert(double y) const {
    JIGSAW_CHECK_MSG(alpha != 0.0, "constant mapping is not invertible");
    return (y - beta) / alpha;
  }
  bool Invertible() const { return alpha != 0.0; }
  bool IsIdentity() const { return alpha == 1.0 && beta == 0.0; }
};

/// Algorithm 2: returns M with M(theta1[i]) ~= theta2[i] for every i
/// (within relative tolerance `tol`), or nullopt if no linear map fits.
///
/// Constant fingerprints: the paper's Algorithm 2 literally computes
/// alpha = (x-x)/(y-y) on them and finds nothing. We extend the class
/// with the translation M(x) = x + (theta2[0] - theta1[0]) between
/// constant fingerprints (important for boolean outputs like Overload,
/// whose zero-risk regions are all constant-zero). A non-constant fit
/// with alpha == 1 and beta == +-0 is returned as AffineMap{}, whose beta
/// is +0.0.
std::optional<AffineMap> FindLinearMapping(const Fingerprint& theta1,
                                           const Fingerprint& theta2,
                                           double tol);

}  // namespace jigsaw
