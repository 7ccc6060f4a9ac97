#pragma once
// Fixed-size worker pool for session property jobs and rfn_serve's queue.
//
// A deliberately small executor: N std::threads draining one FIFO work
// queue. Submitted jobs are fire-and-forget; completion signalling is the
// caller's business (VerifySession::run layers a countdown latch on top).
// With zero workers the executor runs every job inline inside submit(),
// which is what lets a session degrade to plain sequential execution — same
// code path, no threads, deterministic order.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace rfn
