#pragma once

/// \file stats.h
/// Summary statistics the benchmark reports: medians, tail percentiles
/// under the "at least ten samples beyond" rule, and the process's peak
/// resident set.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double Median(std::vector<double> values);

/// Nearest-rank q-quantile (the value at 1-based rank ceil(q * n)),
/// reported only when at least `min_beyond` samples lie above that rank:
/// a tail percentile needs samples beyond it to mean anything.
std::optional<double> TailQuantile(std::vector<double> values, double q,
                                   std::size_t min_beyond = 10);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMiB();

}  // namespace perfbench
