#pragma once
// Monotonic stopwatch used for engine time limits and result tables.

#include <chrono>

namespace rfn {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed wall-clock seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Budget shared across the engines of one verification run. Engines poll
/// expired() at coarse boundaries (per image step, per ATPG backtrack batch)
/// so a run never overshoots its limit by more than one engine step.
class Deadline {
 public:
  /// No limit.
  Deadline() : limit_seconds_(-1.0) {}
  explicit Deadline(double limit_seconds) : limit_seconds_(limit_seconds) {}

  bool expired() const {
    return limit_seconds_ >= 0.0 && watch_.seconds() >= limit_seconds_;
  }

  double remaining_seconds() const {
    if (limit_seconds_ < 0.0) return 1e30;
    const double rem = limit_seconds_ - watch_.seconds();
    return rem > 0.0 ? rem : 0.0;
  }

  double elapsed_seconds() const { return watch_.seconds(); }

 private:
  Stopwatch watch_;
  double limit_seconds_;
};

}  // namespace rfn
