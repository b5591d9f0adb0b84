#include "random/philox.h"

#include "util/logging.h"

namespace jigsaw {

namespace {

constexpr std::uint64_t kStreamSeedKey = 0x6a09e667f3bcc908ULL;

inline std::uint32_t MulHi(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(a) * b) >> 32);
}
inline std::uint32_t MulLo(std::uint32_t a, std::uint32_t b) {
  return a * b;
}

/// DeriveStreamSeed's body, inline here so that DeriveStreamSeeds runs
/// its blocks back to back with no call between them.
inline std::uint64_t StreamSeed(std::uint64_t sigma, std::uint64_t call_site) {
  std::uint64_t a = 0, b = 0;
  Philox4x32::Block64(sigma, call_site, kStreamSeedKey, &a, &b);
  return a ^ (b * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

Philox4x32::Counter Philox4x32::Block(Counter ctr, Key key) {
  for (int round = 0; round < 10; ++round) {
    const std::uint32_t hi0 = MulHi(kMult0, ctr[0]);
    const std::uint32_t lo0 = MulLo(kMult0, ctr[0]);
    const std::uint32_t hi1 = MulHi(kMult1, ctr[2]);
    const std::uint32_t lo1 = MulLo(kMult1, ctr[2]);
    Counter next;
    next[0] = hi1 ^ ctr[1] ^ key[0];
    next[1] = lo1;
    next[2] = hi0 ^ ctr[3] ^ key[1];
    next[3] = lo0;
    ctr = next;
    key[0] += kWeyl0;
    key[1] += kWeyl1;
  }
  return ctr;
}

void Philox4x32::Block64(std::uint64_t counter_lo, std::uint64_t counter_hi,
                         std::uint64_t key, std::uint64_t* out0,
                         std::uint64_t* out1) {
  Counter ctr = {static_cast<std::uint32_t>(counter_lo),
                 static_cast<std::uint32_t>(counter_lo >> 32),
                 static_cast<std::uint32_t>(counter_hi),
                 static_cast<std::uint32_t>(counter_hi >> 32)};
  Key k = {static_cast<std::uint32_t>(key),
           static_cast<std::uint32_t>(key >> 32)};
  const Counter out = Block(ctr, k);
  *out0 = (static_cast<std::uint64_t>(out[1]) << 32) | out[0];
  *out1 = (static_cast<std::uint64_t>(out[3]) << 32) | out[2];
}

std::uint64_t DeriveStreamSeed(std::uint64_t sigma, std::uint64_t call_site) {
  return StreamSeed(sigma, call_site);
}

void DeriveStreamSeeds(std::span<const std::uint64_t> sigmas,
                       std::uint64_t call_site,
                       std::span<std::uint64_t> out) {
  JIGSAW_DCHECK(sigmas.size() == out.size());
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    out[i] = StreamSeed(sigmas[i], call_site);
  }
}

}  // namespace jigsaw
