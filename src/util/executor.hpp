#pragma once
// Fixed-size worker pool for session property jobs and rfn_serve's queue.
//
// A deliberately small executor: N std::threads draining one FIFO work
// queue. Submitted jobs are fire-and-forget; completion signalling is the
// caller's business (VerifySession::run layers a countdown latch on top).
// With zero workers the executor runs every job inline inside submit(),
// which is what lets a session degrade to plain sequential execution — same
// code path, no threads, deterministic order.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cancel.hpp"

namespace rfn {

class Executor {
 public:
  /// Spawns `workers` threads; 0 means inline execution inside submit().
  explicit Executor(size_t workers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  size_t workers() const { return threads_.size(); }

  /// Enqueues `fn` (runs it before returning when the pool has no workers).
  void submit(std::function<void()> fn);

  /// Total thread-CPU seconds consumed by submitted tasks so far — each
  /// task's CLOCK_THREAD_CPUTIME_ID delta, accumulated whether it ran on a
  /// worker or inline. Monotone; read at quiescent points (after the jobs
  /// whose cost you want have finished) for exact attribution.
  double cpu_seconds() const {
    return static_cast<double>(cpu_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  void worker_loop();
  void run_task(std::function<void()>& fn);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
  std::atomic<int64_t> cpu_ns_{0};
};

}  // namespace rfn
