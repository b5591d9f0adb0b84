#include "digest.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

void Digest::Add(std::uint64_t word) { h_ = (h_ ^ word) * 0x100000001b3ULL; }

void Digest::Add(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  Add(bits);
}

void Digest::Add(std::string_view text) {
  Add(static_cast<std::uint64_t>(text.size()));
  for (unsigned char c : text) Add(static_cast<std::uint64_t>(c));
}

void Digest::Add(const jigsaw::OutputMetrics& m) {
  Add(static_cast<std::uint64_t>(m.count));
  for (double x : {m.mean, m.stddev, m.std_error, m.min, m.max, m.p50, m.p95})
    Add(x);
  Add(static_cast<std::uint64_t>(m.histogram.has_value()));
  if (m.histogram) {
    const auto& h = *m.histogram;
    Add(h.lo());
    Add(h.hi());
    Add(static_cast<std::uint64_t>(h.num_bins()));
    for (int i = 0; i < h.num_bins(); ++i)
      Add(static_cast<std::uint64_t>(h.bin_count(i)));
    Add(static_cast<std::uint64_t>(h.dropped_count()));
  }
  Add(static_cast<std::uint64_t>(m.samples.size()));
  for (double x : m.samples) Add(x);
}

void Digest::Add(const std::map<std::string, jigsaw::OutputMetrics>& columns) {
  Add(static_cast<std::uint64_t>(columns.size()));
  for (const auto& [name, metrics] : columns) {
    Add(std::string_view(name));
    Add(metrics);
  }
}

void Digest::Add(const jigsaw::OptimizeResult& r) {
  Add(static_cast<std::uint64_t>(r.found));
  Add(static_cast<std::uint64_t>(r.best_valuation.size()));
  for (double x : r.best_valuation) Add(x);
  Add(r.points_simulated);
  Add(static_cast<std::uint64_t>(r.groups.size()));
  for (const auto& g : r.groups) {
    for (double x : g.group_valuation) Add(x);
    for (double x : g.constraint_lhs) Add(x);
    Add(static_cast<std::uint64_t>(g.feasible));
  }
}

std::string Hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace perfbench
