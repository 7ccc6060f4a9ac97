#include "util/watchdog.hpp"

#include <chrono>

#include "util/prof.hpp"

namespace rfn {

void Watchdog::start() {
  if (opt_.mem_budget_mb <= 0) return;
  started_ = true;
  thread_ = std::thread([this] { run(); });
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
  const auto interval = std::chrono::duration<double>(
      opt_.poll_interval_s > 0.0 ? opt_.poll_interval_s : 0.01);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, interval, [this] { return stop_requested_; });
    if (stop_requested_) return;
    const int64_t rss = prof::read_rss_bytes();
    if (rss < opt_.mem_budget_mb * (1 << 20)) continue;

    // One-shot trip: record the state, publish it (release pairs with the
    // acquire in tripped()), then cancel the run.
    trip_rss_ = rss;
    tripped_.store(true, std::memory_order_release);
    victim_->cancel();
    return;
  }
}

}  // namespace rfn
