#include "util/executor.hpp"

#include "util/metrics.hpp"

namespace rfn {

Executor::Executor(size_t workers) {
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Executor::submit(std::function<void()> fn) {
  if (threads_.empty()) {
    fn();
    return;
  }
  // Metrics binding travels with the task: a worker records into the
  // registry the submitter was bound to (rfn_serve's per-request isolation
  // depends on this — session property jobs run here).
  MetricsRegistry* bound = MetricsRegistry::current_binding();
  std::function<void()> task = std::move(fn);
  if (bound != nullptr)
    task = [bound, f = std::move(task)] {
      MetricsScope scope(bound);
      f();
    };
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void Executor::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

}  // namespace rfn
