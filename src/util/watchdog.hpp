#pragma once
// Resource watchdog: a monitor thread that enforces per-run wall-clock,
// BDD-node and process-memory budgets by firing a CancelToken, so a run
// that outgrows its budget degrades to a clean `resource-out` verdict
// instead of dying on an allocator limit or hanging past its deadline.
//
// Enforcement is cooperative — the polling-based cancellation every engine
// already honors: the watchdog only sets the token, and engines notice at
// their step boundaries. The node budget reads a relaxed
// atomic probe the BDD manager publishes (BddMgr::set_live_node_probe);
// the watchdog never touches manager internals, so there is no data race
// with the allocator (TSan-clean by construction). The memory budget reads
// process RSS (util/prof's /proc/self/statm reader) each poll.
//
// Lifecycle: construct with budgets + victim token, start(), and stop()
// (idempotent, also run by the destructor) before reading trip state or
// exporting spans — stop() joins the monitor thread, which is the
// happens-before edge for both.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/cancel.hpp"

namespace rfn {

struct WatchdogOptions {
  double wall_budget_s = -1.0;    // <= 0: no wall budget
  int64_t bdd_node_budget = 0;    // <= 0: no node budget
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

  /// Engines publish the current BDD live-node count here (the RFN loop
  /// wires it to BddMgr::set_live_node_probe each iteration).
  std::atomic<int64_t>* node_probe() { return &bdd_nodes_; }

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }
  // Valid only after tripped() returned true (release/acquire on tripped_).
  const char* trip_reason() const { return reason_; }
  double trip_seconds() const { return trip_seconds_; }
  int64_t trip_bdd_nodes() const { return trip_nodes_; }
  int64_t trip_rss_bytes() const { return trip_rss_; }

 private:
  void run();

  WatchdogOptions opt_;
  CancelToken* victim_;
  std::atomic<int64_t> bdd_nodes_{0};

  std::atomic<bool> tripped_{false};
  const char* reason_ = "";
  double trip_seconds_ = 0.0;
  int64_t trip_nodes_ = 0;
  int64_t trip_rss_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace rfn
