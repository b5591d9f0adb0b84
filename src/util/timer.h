#pragma once

/// \file timer.h
/// Wall-clock timing used by the benchmark harness and the interactive
/// mode's latency budgeting.

#include <chrono>

namespace jigsaw {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace jigsaw
