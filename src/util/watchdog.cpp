#include "util/watchdog.hpp"

#include <chrono>

#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace rfn {

void Watchdog::start() {
  if (opt_.wall_budget_s <= 0.0 && opt_.bdd_node_budget <= 0 &&
      opt_.mem_budget_mb <= 0)
    return;
  started_ = true;
  // The monitor inherits the starter's metrics binding so its trip/poll
  // counters land in the same (possibly per-request) registry as the run it
  // watches.
  MetricsRegistry* bound = MetricsRegistry::current_binding();
  thread_ = std::thread([this, bound] {
    MetricsScope scope(bound);
    run();
  });
}

void Watchdog::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  started_ = false;
}

void Watchdog::run() {
  SpanTracer::global().set_thread_name("watchdog");
  Stopwatch watch;
  const auto interval = std::chrono::duration<double>(
      opt_.poll_interval_s > 0.0 ? opt_.poll_interval_s : 0.01);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, interval, [this] { return stop_requested_; });
    if (stop_requested_) return;

    const double elapsed = watch.seconds();
    const int64_t nodes = bdd_nodes_.load(std::memory_order_relaxed);
    // RSS is a syscall-backed read, so only the memory budget pays for it.
    const int64_t rss = opt_.mem_budget_mb > 0 ? prof::read_rss_bytes() : 0;
    const char* reason = nullptr;
    if (opt_.wall_budget_s > 0.0 && elapsed >= opt_.wall_budget_s)
      reason = "wall-budget";
    else if (opt_.bdd_node_budget > 0 && nodes >= opt_.bdd_node_budget)
      reason = "bdd-node-budget";
    else if (opt_.mem_budget_mb > 0 && rss >= opt_.mem_budget_mb * (1 << 20))
      reason = "mem-budget";
    if (reason == nullptr) continue;

    // One-shot trip: record the state, publish it (release pairs with the
    // acquire in tripped()), annotate the span trace, then cancel the run.
    reason_ = reason;
    trip_seconds_ = elapsed;
    trip_nodes_ = nodes;
    trip_rss_ = rss;
    tripped_.store(true, std::memory_order_release);
    MetricsRegistry::global().counter("watchdog.trips").add();
    MetricsRegistry::global()
        .counter(std::string("watchdog.trips.") + reason)
        .add();
    SpanTracer::global().instant("budget-trip", "reason", reason);
    victim_->cancel();
    return;
  }
}

}  // namespace rfn
