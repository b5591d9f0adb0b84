#include "core/fingerprint_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "core/mapping.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jigsaw {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kArray:
      return "Array";
    case IndexKind::kNormalization:
      return "Normalization";
    case IndexKind::kSortedSid:
      return "SortedSID";
  }
  return "?";
}

std::vector<std::uint32_t> SortedSidKey(const Fingerprint& fp) {
  std::vector<std::uint32_t> sids(fp.size());
  std::iota(sids.begin(), sids.end(), 0);
  // NaN entries sort last (by SID) so the comparator remains a strict
  // weak ordering even for fingerprints of misbehaving models.
  std::stable_sort(sids.begin(), sids.end(),
                   [&fp](std::uint32_t a, std::uint32_t b) {
                     const bool na = std::isnan(fp[a]);
                     const bool nb = std::isnan(fp[b]);
                     if (na || nb) {
                       if (na != nb) return nb;  // non-NaN first
                       return a < b;
                     }
                     if (fp[a] != fp[b]) return fp[a] < fp[b];
                     return a < b;
                   });
  return sids;
}

std::vector<std::uint64_t> LinearNormalForm(const Fingerprint& fp) {
  std::vector<std::uint64_t> key;
  key.reserve(fp.size() + 1);

  const auto distinct = fp.FirstTwoDistinct(kMappingTolerance);
  if (!distinct) {
    // All constant fingerprints share one bucket: every pair is mappable
    // by translation.
    key.push_back(0xC0115741'00000000ULL);  // "constant" tag
    key.insert(key.end(), fp.size(), 0);
    return key;
  }

  const auto [i0, i1] = *distinct;
  const double a = fp[i0];
  const double b = fp[i1];
  key.push_back(0x401A'0000'0000'0000ULL ^ fp.size());
  for (std::size_t i = 0; i < fp.size(); ++i) {
    const double normalized = (fp[i] - a) / (b - a);
    // Quantize for hashing. Candidates from a shared bucket are always
    // re-validated by FindLinearMapping, so quantization can only cause
    // (rare) extra bases, never incorrect reuse. Non-finite entries (a
    // model returned NaN/Inf) get a sentinel: such fingerprints never
    // map, but they must not poison the hash (llround on NaN is
    // undefined).
    const double scaled = normalized / kIndexQuantum;
    const std::uint64_t q =
        std::isfinite(scaled) && std::fabs(scaled) < 9.0e18
            ? static_cast<std::uint64_t>(std::llround(scaled))
            : 0x7FF0DEAD00000000ULL ^ i;
    key.push_back(q);
  }
  return key;
}

namespace {

/// Baseline: candidates = every basis, in insertion order.
class ArrayIndex final : public FingerprintIndex {
 public:
  void Insert(BasisId id, const Fingerprint&) override {
    ids_.push_back(id);
  }

  void GetCandidates(const Fingerprint&,
                     std::vector<BasisId>* out) const override {
    *out = ids_;
  }

 private:
  std::vector<BasisId> ids_;
};

/// Hash of the linear class's normal form; one lookup returns exactly the
/// bases whose normal form matches.
class NormalizationIndex final : public FingerprintIndex {
 public:
  void Insert(BasisId id, const Fingerprint& fp) override {
    buckets_[HashWords(LinearNormalForm(fp))].push_back(id);
  }

  void GetCandidates(const Fingerprint& probe,
                     std::vector<BasisId>* out) const override {
    out->clear();
    auto it = buckets_.find(HashWords(LinearNormalForm(probe)));
    if (it != buckets_.end()) *out = it->second;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<BasisId>> buckets_;
};

/// Hash of the sorted sample-identifier permutation. Monotone increasing
/// maps preserve the permutation; decreasing maps reverse it, so probes
/// also consult the reversed key ("comparing both the SID sequence and its
/// inverse", Section 3.2).
class SortedSidIndex final : public FingerprintIndex {
 public:
  void Insert(BasisId id, const Fingerprint& fp) override {
    buckets_[HashIds(SortedSidKey(fp))].push_back(id);
  }

  void GetCandidates(const Fingerprint& probe,
                     std::vector<BasisId>* out) const override {
    out->clear();
    auto key = SortedSidKey(probe);
    if (auto it = buckets_.find(HashIds(key)); it != buckets_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
    std::reverse(key.begin(), key.end());
    if (auto it = buckets_.find(HashIds(key)); it != buckets_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<BasisId>> buckets_;
};

}  // namespace

std::unique_ptr<FingerprintIndex> MakeFingerprintIndex(IndexKind kind) {
  switch (kind) {
    case IndexKind::kArray:
      return std::make_unique<ArrayIndex>();
    case IndexKind::kNormalization:
      return std::make_unique<NormalizationIndex>();
    case IndexKind::kSortedSid:
      return std::make_unique<SortedSidIndex>();
  }
  JIGSAW_CHECK_MSG(false, "unknown index kind");
  return nullptr;
}

}  // namespace jigsaw
