#include "random/draw_plane.h"

#include <algorithm>
#include <cmath>

#include "random/random_stream.h"
#include "util/hash.h"

namespace jigsaw {

namespace {

inline Philox4x32::Counter MakeCounter(std::uint64_t block,
                                       std::uint64_t draw) {
  return {static_cast<std::uint32_t>(block),
          static_cast<std::uint32_t>(block >> 32),
          static_cast<std::uint32_t>(draw),
          static_cast<std::uint32_t>(draw >> 32)};
}

inline Philox4x32::Key MakeKey(std::uint64_t key) {
  return {static_cast<std::uint32_t>(key),
          static_cast<std::uint32_t>(key >> 32)};
}

/// Walks dst in 4-lane Philox-block groups (partial head/tail groups for
/// unaligned k_begin or size). fn(i, sub, take, block) must fill
/// dst[i .. i+take) from lanes [sub, sub+take) of `block`.
template <typename Fn>
inline void ForEachBlockGroup(std::size_t dst_size, std::size_t k_begin,
                              Fn&& fn) {
  std::size_t i = 0;
  while (i < dst_size) {
    const std::size_t k = k_begin + i;
    const std::uint64_t block = static_cast<std::uint64_t>(k) >> 2;
    const std::size_t sub = k & 3;
    const std::size_t take = std::min(dst_size - i, std::size_t{4} - sub);
    fn(i, sub, take, block);
    i += take;
  }
}

}  // namespace

std::uint64_t CombineSite(std::uint64_t call_site,
                          std::uint64_t stream_salt) {
  return stream_salt == 0 ? call_site : HashCombine(stream_salt, call_site);
}

void DrawSpan(std::span<double> dst, std::size_t k_begin, std::uint64_t key,
              std::uint64_t draw_idx) {
  const Philox4x32::Key k = MakeKey(key);
  ForEachBlockGroup(
      dst.size(), k_begin,
      [&](std::size_t i, std::size_t sub, std::size_t take,
          std::uint64_t block) {
        const Philox4x32::Counter w =
            Philox4x32::Block(MakeCounter(block, draw_idx), k);
        for (std::size_t j = 0; j < take; ++j) {
          dst[i + j] = static_cast<double>(w[sub + j]) * 0x1.0p-32;
        }
      });
}

void DrawSpan(std::span<double> dst, std::size_t k_begin,
              std::uint64_t master_seed, std::uint64_t call_site,
              std::uint64_t stream_salt, std::uint64_t draw_idx) {
  DrawSpan(dst, k_begin,
           DrawKey(master_seed, CombineSite(call_site, stream_salt)),
           draw_idx);
}

void GaussianPlane(std::span<double> dst, std::size_t k_begin,
                   std::uint64_t key, std::uint64_t draw_idx) {
  const Philox4x32::Key k = MakeKey(key);
  ForEachBlockGroup(
      dst.size(), k_begin,
      [&](std::size_t i, std::size_t sub, std::size_t take,
          std::uint64_t block) {
        const Philox4x32::Counter w1 =
            Philox4x32::Block(MakeCounter(block, draw_idx), k);
        const Philox4x32::Counter w2 =
            Philox4x32::Block(MakeCounter(block, draw_idx + 1), k);
        for (std::size_t j = 0; j < take; ++j) {
          const double u1 = static_cast<double>(w1[sub + j]) * 0x1.0p-32;
          const double u2 = static_cast<double>(w2[sub + j]) * 0x1.0p-32;
          dst[i + j] = RandomStream::BoxMullerRadius(u1) *
                       RandomStream::BoxMullerCos(u2);
        }
      });
}

void ExponentialPlane(std::span<double> dst, std::size_t k_begin,
                      std::uint64_t key, std::uint64_t draw_idx,
                      double lambda) {
  const Philox4x32::Key k = MakeKey(key);
  ForEachBlockGroup(
      dst.size(), k_begin,
      [&](std::size_t i, std::size_t sub, std::size_t take,
          std::uint64_t block) {
        const Philox4x32::Counter w =
            Philox4x32::Block(MakeCounter(block, draw_idx), k);
        for (std::size_t j = 0; j < take; ++j) {
          double u = static_cast<double>(w[sub + j]) * 0x1.0p-32;
          if (u <= 0.0) u = 0x1.0p-53;
          dst[i + j] = -std::log(u) / lambda;
        }
      });
}

}  // namespace jigsaw
