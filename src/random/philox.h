#pragma once

/// \file philox.h
/// Philox-4x32-10 counter-based PRNG (Salmon et al., SC'11), used as a
/// keyed mixer: one block maps (sigma_k, call site) to the seed of that
/// cell's stream (DeriveStreamSeed), and the cloud models derive their
/// fixed user population from it. A block is a pure function of (counter,
/// key) with no sequential state, so any (sample, call-site) cell is
/// seeded independently and in parallel.

#include <array>
#include <cstdint>

namespace jigsaw {

class Philox4x32 {
 public:
  using Counter = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;

  /// One 10-round Philox block: 128 bits of output per call.
  static Counter Block(Counter ctr, Key key);

  /// Convenience: collapses a block into two 64-bit words.
  static void Block64(std::uint64_t counter_lo, std::uint64_t counter_hi,
                      std::uint64_t key, std::uint64_t* out0,
                      std::uint64_t* out1);

 private:
  static constexpr std::uint32_t kMult0 = 0xD2511F53;
  static constexpr std::uint32_t kMult1 = 0xCD9E8D57;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9;
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85;
};

/// Derives a stream seed for (sigma, call_site). Different call sites in
/// the same sampled world get independent deterministic streams; the same
/// (sigma, call_site) always yields the same seed. This is the mechanism
/// Section 3.1 requires: "all sources of randomness within F(P, sigma) are
/// replaced by invocations of a pseudorandom generator seeded by sigma".
std::uint64_t DeriveStreamSeed(std::uint64_t sigma, std::uint64_t call_site);

}  // namespace jigsaw
