#pragma once

/// \file fingerprint.h
/// The fingerprint of Section 3.1: for a parameterized stochastic function
/// F(P) and the global seed vector {sigma_k},
///
///   fingerprint({sigma_k}, F(P)) = { F(P, sigma_k) | 0 <= k < m }.
///
/// Because every parameter point is fingerprinted under the *same* seeds,
/// points whose output distributions are related by a mapping function
/// produce fingerprints related by that same mapping, deterministically.

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/sim_function.h"
#include "random/seed_vector.h"

namespace jigsaw {

class Fingerprint {
 public:
  Fingerprint() = default;
  explicit Fingerprint(std::vector<double> values)
      : values_(std::move(values)) {}

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double operator[](std::size_t i) const { return values_[i]; }
  const std::vector<double>& values() const { return values_; }

  /// Indices of the first two entries that differ by more than `tol`
  /// (relative), or nullopt if the fingerprint is constant. Used both by
  /// FindLinearMapping and by the normalization index.
  std::optional<std::pair<std::size_t, std::size_t>> FirstTwoDistinct(
      double tol) const;

  /// True if every entry equals the first within tolerance.
  bool IsConstant(double tol) const { return !FirstTwoDistinct(tol); }

 private:
  std::vector<double> values_;
};

/// Evaluates the first `m` seeded samples of `fn` at `params` — the
/// fingerprint doubles as the first m rounds of the full simulation, so
/// this work is never wasted (Section 3.1, "Using Fingerprints").
Fingerprint ComputeFingerprint(const SimFunction& fn,
                               std::span<const double> params,
                               const SeedVector& seeds, std::size_t m);

}  // namespace jigsaw
