#include "core/basis_store.h"

#include <utility>

#include "util/logging.h"

namespace jigsaw {

std::optional<BasisMatch> BasisStore::FindMatch(const Fingerprint& probe) {
  ++stats_.lookups;
  index_->GetCandidates(probe, &candidate_buffer_);
  for (BasisId id : candidate_buffer_) {
    ++stats_.candidates_tested;
    if (const auto m = FindLinearMapping(bases_[id].fingerprint, probe,
                                         kMappingTolerance)) {
      ++stats_.hits;
      ++bases_[id].reuse_count;
      return BasisMatch{id, *m};
    }
    ++stats_.false_positive_candidates;
  }
  ++stats_.misses;
  return std::nullopt;
}

const BasisDistribution& BasisStore::Insert(Fingerprint fp,
                                            OutputMetrics metrics) {
  const auto id = static_cast<BasisId>(bases_.size());
  index_->Insert(id, fp);
  bases_.push_back(BasisDistribution{id, std::move(fp), std::move(metrics),
                                     /*reuse_count=*/0});
  return bases_.back();
}

void BasisStore::SetMetrics(BasisId id, OutputMetrics metrics) {
  JIGSAW_CHECK_MSG(id < bases_.size(), "SetMetrics on unknown basis");
  bases_[id].metrics = std::move(metrics);
}

}  // namespace jigsaw
