#pragma once

/// \file fingerprint_index.h
/// Fingerprint indexing (Section 3.2). Given a probe fingerprint, an index
/// returns a candidate set of basis ids that must contain every mappable
/// basis (no false negatives for the index's declared mapping class) and
/// may contain false positives, which the caller filters with FindMapping
/// (Algorithm 3).
///
/// Strategies:
///  - Array:         no index; every basis is a candidate (the baseline
///                   the paper plots indexes against in Figures 10/11).
///  - Normalization: hash of the mapping class's canonical normal form.
///  - Sorted SID:    hash of the sample-identifier permutation obtained by
///                   sorting the fingerprint values; valid for monotone
///                   mapping classes. Decreasing maps are handled by also
///                   probing the reversed permutation.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fingerprint.h"
#include "core/mapping.h"

namespace jigsaw {

using BasisId = std::uint32_t;

enum class IndexKind { kArray, kNormalization, kSortedSid };

/// Quantization grid for the index hash keys.
inline constexpr double kIndexQuantum = 1e-6;

const char* IndexKindName(IndexKind kind);

class FingerprintIndex {
 public:
  virtual ~FingerprintIndex() = default;

  virtual const std::string& name() const = 0;

  /// Registers a basis fingerprint under `id`.
  virtual void Insert(BasisId id, const Fingerprint& fp) = 0;

  /// Appends candidate basis ids for `probe` to `out` (cleared first).
  virtual void GetCandidates(const Fingerprint& probe,
                             std::vector<BasisId>* out) const = 0;

  virtual std::size_t size() const = 0;
};

/// Factory. `finder` supplies the normal form for kNormalization; `tol`
/// and `quantum` control distinctness testing and hash quantization.
std::unique_ptr<FingerprintIndex> MakeFingerprintIndex(
    IndexKind kind, MappingFinderPtr finder, double tol, double quantum);

/// Computes the sorted sample-identifier sequence of a fingerprint:
/// argsort of the values (ties broken by SID for determinism). Exposed for
/// tests of the monotone-invariance property.
std::vector<std::uint32_t> SortedSidKey(const Fingerprint& fp);

}  // namespace jigsaw
