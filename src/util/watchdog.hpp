#pragma once
// Resource watchdog: a monitor thread that enforces a per-run process-memory
// budget by firing a CancelToken, so a run that outgrows its budget degrades
// to a clean `resource-out` verdict instead of dying on an allocator limit.
//
// Memory is the one budget no engine can check in line: the wall-clock
// budget rides the run's CancelToken and the BDD-node budget is the BDD
// manager's own cap (see core/rfn.cpp). The watchdog reads process RSS
// (util/prof's /proc/self/statm reader) each poll; enforcement is
// cooperative — it only sets the token, and engines notice at their step
// boundaries.
//
// Lifecycle: construct with the budget + victim token, start(), and stop()
// (idempotent, also run by the destructor) before reading trip state —
// stop() joins the monitor thread, which is the happens-before edge.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/cancel.hpp"

namespace rfn {

struct WatchdogOptions {
  int64_t mem_budget_mb = 0;      // <= 0: no RSS budget
  double poll_interval_s = 0.01;
};

class Watchdog {
 public:
  /// `victim` must outlive the watchdog. The watchdog does not start
  /// monitoring until start().
  Watchdog(const WatchdogOptions& opt, CancelToken* victim)
      : opt_(opt), victim_(victim) {}
  ~Watchdog() { stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Spawns the monitor thread. No-op when no budget is set.
  void start();
  /// Joins the monitor thread; idempotent.
  void stop();

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }
  // Valid after tripped() returned true (release/acquire on tripped_) or
  // after stop(); 0 while the watchdog has not tripped.
  int64_t trip_rss_bytes() const { return trip_rss_; }

 private:
  void run();

  WatchdogOptions opt_;
  CancelToken* victim_;

  std::atomic<bool> tripped_{false};
  int64_t trip_rss_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace rfn
