#pragma once

/// \file basis_store.h
/// The set of basis distributions maintained during execution (Section
/// 3.1, "Using Fingerprints"): tuples (theta_i, o_i) recording that the
/// output metrics o_i were fully computed for a simulation whose
/// fingerprint was theta_i. FindMatch implements lines 2-6 of Algorithm 3:
/// prune with the index, then validate candidates with FindLinearMapping.
///
/// One store belongs to one SimulationRunner and has no lock. The
/// runner's point pipeline (RunPoints) touches it only from the caller's
/// thread, between its pool phases, and relies on the deferred-metrics
/// protocol: Insert registers a fingerprint (making it matchable) before
/// its expensive full simulation has produced metrics, which SetMetrics
/// fills in later.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/fingerprint.h"
#include "core/fingerprint_index.h"
#include "core/mapping.h"
#include "core/metrics.h"

namespace jigsaw {

struct BasisDistribution {
  BasisId id = 0;
  Fingerprint fingerprint;
  OutputMetrics metrics;
  /// How many parameter points have reused this basis.
  std::uint64_t reuse_count = 0;
};

struct BasisMatch {
  BasisId basis_id;
  AffineMap mapping;  ///< maps basis domain -> probe domain
};

/// Counters used by the evaluation (basis counts in Figures 9-11, reuse
/// rates in Figure 8).
struct BasisStoreStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t candidates_tested = 0;
  std::uint64_t false_positive_candidates = 0;
};

class BasisStore {
 public:
  explicit BasisStore(IndexKind index_kind)
      : index_(MakeFingerprintIndex(index_kind)) {}

  /// Finds a basis whose fingerprint maps onto `probe` (basis -> probe
  /// direction, so basis metrics mapped by the result describe the probe).
  std::optional<BasisMatch> FindMatch(const Fingerprint& probe);

  /// Registers a fully-simulated distribution as a new basis.
  const BasisDistribution& Insert(Fingerprint fp, OutputMetrics metrics);

  /// Fills in the metrics of a basis inserted with placeholder metrics.
  /// Matching consults only fingerprints, so a basis may serve as a match
  /// target while its full simulation is still in flight; callers must
  /// SetMetrics before reading Get(id).metrics.
  void SetMetrics(BasisId id, OutputMetrics metrics);

  /// Reference into the deque — stable across Inserts.
  const BasisDistribution& Get(BasisId id) const { return bases_[id]; }
  std::size_t size() const { return bases_.size(); }
  const BasisStoreStats& stats() const { return stats_; }

 private:
  std::unique_ptr<FingerprintIndex> index_;
  /// Deque, not vector: Insert must not invalidate outstanding references.
  std::deque<BasisDistribution> bases_;
  std::vector<BasisId> candidate_buffer_;
  BasisStoreStats stats_;
};

}  // namespace jigsaw
