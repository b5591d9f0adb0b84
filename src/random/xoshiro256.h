#pragma once

/// \file xoshiro256.h
/// xoshiro256** 1.0 (Blackman & Vigna). The main uniform engine behind
/// RandomStream. Chosen over std engines so output is identical across
/// platforms/standard libraries — a hard requirement for fingerprint
/// reproducibility.

#include <cstdint>

#include "random/splitmix64.h"

namespace jigsaw {

class Xoshiro256 {
 public:
  /// Seeds the 256-bit state by SplitMix64 expansion (the authors'
  /// recommended procedure; avoids the all-zero state).
  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.Next();
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls of Next(); used to split non-overlapping
  /// streams when a caller wants many independent engines from one seed.
  void Jump();

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace jigsaw
