#pragma once

/// \file digest.h
/// Order-sensitive bitwise fold of a workload's results (FNV-1a over
/// 64-bit words; doubles fold by bit pattern, so -0.0, NaN payloads and
/// last-ulp differences all change the digest). Two runs agree only when
/// every folded value is bit-identical and in the same order.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/metrics.h"
#include "core/optimizer.h"

namespace perfbench {

class Digest {
 public:
  void Add(std::uint64_t word);
  void Add(double x);
  void Add(std::string_view text);
  /// Every field: count, moments, extremes, quantiles, the histogram and
  /// any retained samples.
  void Add(const jigsaw::OutputMetrics& m);
  /// Column names and metrics in key order.
  void Add(const std::map<std::string, jigsaw::OutputMetrics>& columns);
  /// found, best valuation, points simulated and every group's valuation,
  /// aggregated constraint sides and feasibility.
  void Add(const jigsaw::OptimizeResult& r);

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A digest as 16 hex digits.
std::string Hex(std::uint64_t digest);

}  // namespace perfbench
