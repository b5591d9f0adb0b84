#pragma once

/// \file fingerprint_index.h
/// Fingerprint indexing (Section 3.2). Given a probe fingerprint, an index
/// returns a candidate set of basis ids that must contain every basis
/// linearly mappable onto it (no false negatives) and may contain false
/// positives, which the caller filters with FindLinearMapping (Algorithm
/// 3).
///
/// Strategies:
///  - Array:         no index; every basis is a candidate (the baseline
///                   the paper plots indexes against in Figures 10/11).
///  - Normalization: hash of the linear class's normal form
///                   (LinearNormalForm).
///  - Sorted SID:    hash of the sample-identifier permutation obtained by
///                   sorting the fingerprint values; valid because linear
///                   maps are monotone. Decreasing maps are handled by
///                   also probing the reversed permutation.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fingerprint.h"

namespace jigsaw {

using BasisId = std::uint32_t;

enum class IndexKind { kArray, kNormalization, kSortedSid };

/// Quantization grid for the index hash keys.
inline constexpr double kIndexQuantum = 1e-6;

const char* IndexKindName(IndexKind kind);

class FingerprintIndex {
 public:
  virtual ~FingerprintIndex() = default;

  /// Registers a basis fingerprint under `id`.
  virtual void Insert(BasisId id, const Fingerprint& fp) = 0;

  /// Appends candidate basis ids for `probe` to `out` (cleared first).
  virtual void GetCandidates(const Fingerprint& probe,
                             std::vector<BasisId>* out) const = 0;
};

/// Builds an empty index of the given strategy.
std::unique_ptr<FingerprintIndex> MakeFingerprintIndex(IndexKind kind);

/// Normal form of a fingerprint under the linear class, the
/// Normalization index's hash key: affinely send the first two distinct
/// entries (kMappingTolerance apart) to 0 and 1 and quantize to a
/// kIndexQuantum grid. Invariant under any M(x) = alpha*x + beta with
/// alpha != 0, because such maps preserve *which* positions hold the
/// first two distinct values. All constant fingerprints share one key:
/// every pair maps by translation.
std::vector<std::uint64_t> LinearNormalForm(const Fingerprint& fp);

/// Computes the sorted sample-identifier sequence of a fingerprint:
/// argsort of the values (ties broken by SID for determinism). Exposed for
/// tests of the monotone-invariance property.
std::vector<std::uint32_t> SortedSidKey(const Fingerprint& fp);

}  // namespace jigsaw
