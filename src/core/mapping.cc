#include "core/mapping.h"

#include "util/math_util.h"

namespace jigsaw {

std::optional<AffineMap> FindLinearMapping(const Fingerprint& theta1,
                                           const Fingerprint& theta2,
                                           double tol) {
  if (theta1.size() != theta2.size() || theta1.empty()) return std::nullopt;

  const auto distinct = theta1.FirstTwoDistinct(tol);
  if (!distinct) {
    // theta1 is constant: a function can only map one input value to one
    // output value, so theta2 must be constant too. Use the translation
    // M(x) = x + (theta2[0] - theta1[0]).
    if (!theta2.IsConstant(tol)) return std::nullopt;
    return AffineMap{1.0, theta2[0] - theta1[0]};
  }

  const auto [i0, i1] = *distinct;
  const double alpha =
      (theta2[i1] - theta2[i0]) / (theta1[i1] - theta1[i0]);
  const double beta = theta2[i0] - alpha * theta1[i0];

  // Validate the remaining entries (Algorithm 2, lines 3-6), with a
  // relative tolerance in place of the paper's exact equality.
  for (std::size_t i = 0; i < theta1.size(); ++i) {
    if (!ApproxEqual(alpha * theta1[i] + beta, theta2[i], tol)) {
      return std::nullopt;
    }
  }
  // A fitted identity may carry beta == -0.0. Return the canonical
  // AffineMap{} (beta +0.0) so that every identity fit maps values
  // alike: 1 * -0.0 + 0.0 is +0.0, but 1 * -0.0 + -0.0 stays -0.0.
  if (alpha == 1.0 && beta == 0.0) return AffineMap{};
  return AffineMap{alpha, beta};
}

}  // namespace jigsaw
