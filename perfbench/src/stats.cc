#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::sort(values.begin(), values.end());
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> TailQuantile(std::vector<double> values, double q,
                                   std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
