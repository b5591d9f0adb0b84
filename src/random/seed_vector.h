#pragma once

/// \file seed_vector.h
/// The global seed vector {sigma_k} of Section 3.1. Jigsaw fixes one
/// sequence of seeds at initialization and uses seed sigma_k for the k'th
/// Monte Carlo sample of *every* parameter point. The fingerprint of a
/// point is its first m outputs; because the same seeds are used
/// everywhere, correlated points produce deterministically mappable
/// fingerprints.
///
/// One derivation serves every sample: sigma_k is the k'th output of
/// SplitMix64(master), and sample k draws at black-box call site c from
/// one Xoshiro256 stream seeded with DeriveStreamSeed(sigma_k, c).
///
/// A SimulationRunner's seed vector also carries the runner's DrawMemo
/// (random/draw_memo.h) to the batch kernels. A copy draws the same seeds
/// but carries no memo, so only the runner's own kernels read it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "random/philox.h"
#include "random/random_stream.h"
#include "random/splitmix64.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jigsaw {

class DrawMemo;

/// The draw derivation above, the only one. The enum remains because
/// RunConfig::seed_schema and SeedVector's third constructor parameter
/// still name it.
enum class SeedSchema : std::uint8_t {
  kV1 = 1,
};

/// The seeds of samples [k_begin, k_begin + size): entry i is
/// sigma_{k_begin + i}. BlackBox::EvalBatch's seed input.
using SeedSpan = std::span<const std::uint64_t>;

/// The stream sample seed `sigma` draws from at `call_site` — the scalar
/// twin every batch kernel must reproduce bit-for-bit.
inline RandomStream StreamForSigma(std::uint64_t sigma,
                                   std::uint64_t call_site) {
  return RandomStream(DeriveStreamSeed(sigma, call_site));
}

/// How many samples' stream seeds DrawEachSample derives at a time.
inline constexpr std::size_t kStreamSeedChunk = 64;

/// The batch kernels' draw loop: calls draw(i, rng) for each sample i of
/// `seeds` in order, where rng is StreamForSigma(seeds[i], call_site). It
/// derives the stream seeds of up to kStreamSeedChunk samples at a time
/// through DeriveStreamSeeds, then seeds each sample's stream from its
/// word and draws.
template <typename Draw>
void DrawEachSample(SeedSpan seeds, std::uint64_t call_site, Draw&& draw) {
  std::uint64_t stream_seeds[kStreamSeedChunk];
  for (std::size_t begin = 0; begin < seeds.size();
       begin += kStreamSeedChunk) {
    const std::size_t len = std::min(kStreamSeedChunk, seeds.size() - begin);
    DeriveStreamSeeds(seeds.subspan(begin, len), call_site,
                      std::span<std::uint64_t>(stream_seeds, len));
    for (std::size_t i = 0; i < len; ++i) {
      RandomStream rng(stream_seeds[i]);
      draw(begin + i, rng);
    }
  }
}

/// The call site a model call draws from under a stream salt (a chain
/// step's namespace): salt 0 means "no extra namespace". Both expression
/// evaluators, interpreted and compiled, combine through this one
/// function, so their draws cannot drift apart.
inline std::uint64_t CombineSite(std::uint64_t call_site,
                                 std::uint64_t stream_salt) {
  return stream_salt == 0 ? call_site : HashCombine(stream_salt, call_site);
}

class SeedVector {
 public:
  /// Expands `master_seed` into `count` sample seeds.
  /// Entry k is the k'th output of SplitMix64(master) whatever `count`
  /// is, so vectors of any two sizes agree on their common prefix: a
  /// sweep's world ids are an interactive session's sample ids.
  SeedVector(std::uint64_t master_seed, std::size_t count,
             SeedSchema /*schema*/ = SeedSchema::kV1)
      : master_seed_(master_seed) {
    SplitMix64 gen(master_seed);
    seeds_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) seeds_.push_back(gen.Next());
  }

  /// A copy, and a vector assigned from one, carries no memo: a memo's
  /// entries belong to the runner that filled them.
  SeedVector(const SeedVector& other)
      : master_seed_(other.master_seed_), seeds_(other.seeds_) {}
  SeedVector& operator=(const SeedVector& other) {
    master_seed_ = other.master_seed_;
    seeds_ = other.seeds_;
    draw_memo_ = nullptr;
    return *this;
  }

  std::uint64_t master_seed() const { return master_seed_; }
  std::size_t size() const { return seeds_.size(); }

  /// The k'th sample seed.
  std::uint64_t seed(std::size_t k) const { return seeds_[k]; }

  /// Contiguous view of seeds [begin, begin + count) — what batch kernels
  /// receive through BlackBox::EvalBatch. The bounds check is
  /// overflow-safe: `begin + count` could wrap for adversarial counts.
  SeedSpan span(std::size_t begin, std::size_t count) const {
    JIGSAW_DCHECK(begin <= seeds_.size() &&
                  count <= seeds_.size() - begin);
    return SeedSpan(seeds_).subspan(begin, count);
  }

  /// Builds the deterministic stream for sample k at black-box call site
  /// `call_site`. The same (k, call_site) pair always yields the same
  /// stream regardless of evaluation order or thread scheduling.
  RandomStream StreamFor(std::size_t k, std::uint64_t call_site) const {
    return StreamForSigma(seeds_[k], call_site);
  }

  /// The memo of this vector's fingerprint draws, or null. Non-owning:
  /// the runner that attaches it owns it.
  DrawMemo* draw_memo() const { return draw_memo_; }
  void set_draw_memo(DrawMemo* memo) { draw_memo_ = memo; }

 private:
  std::uint64_t master_seed_;
  std::vector<std::uint64_t> seeds_;
  DrawMemo* draw_memo_ = nullptr;
};

}  // namespace jigsaw
