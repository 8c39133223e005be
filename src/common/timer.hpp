// Wall-clock timer for the benchmark harnesses and one-off elapsed-time
// reads.  Timed phases of an operation use obs::Phase (obs/phase.hpp).
#pragma once

#include <chrono>

namespace llio {

/// Monotonic wall-clock timer with second-resolution double output.
class WallTimer {
 public:
  using Clock = std::chrono::steady_clock;

  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace llio
