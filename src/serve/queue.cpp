#include "serve/queue.hpp"

#include <cstdio>
#include <limits>
#include <utility>

namespace rfn::serve {

double request_demand_ms(const api::VerifyRequest& req, double default_ms) {
  if (req.options.time_limit_s > 0) return req.options.time_limit_s * 1000.0;
  return default_ms;
}

bool FairQueue::try_push(Job job, std::string* reject_reason,
                         std::string* detail) {
  std::lock_guard<std::mutex> lk(mu_);
  char buf[160];
  if (outstanding_jobs_ >= limits_.queue_capacity) {
    *reject_reason = "queue-full";
    std::snprintf(buf, sizeof(buf), "%zu jobs outstanding (capacity %zu)",
                  outstanding_jobs_, limits_.queue_capacity);
    *detail = buf;
    return false;
  }
  if (limits_.time_window_ms > 0 &&
      outstanding_ms_ + job.demand_ms > limits_.time_window_ms) {
    *reject_reason = "time-oversubscribed";
    std::snprintf(buf, sizeof(buf),
                  "%.0f ms outstanding + %.0f ms demanded > %.0f ms window",
                  outstanding_ms_, job.demand_ms, limits_.time_window_ms);
    *detail = buf;
    return false;
  }
  if (limits_.mem_window_mb > 0 &&
      outstanding_mem_mb_ + job.demand_mem_mb > limits_.mem_window_mb) {
    *reject_reason = "mem-oversubscribed";
    std::snprintf(buf, sizeof(buf),
                  "%lld MB outstanding + %lld MB demanded > %lld MB window",
                  static_cast<long long>(outstanding_mem_mb_),
                  static_cast<long long>(job.demand_mem_mb),
                  static_cast<long long>(limits_.mem_window_mb));
    *detail = buf;
    return false;
  }
  if (limits_.bdd_node_window > 0 &&
      outstanding_bdd_nodes_ + job.demand_bdd_nodes > limits_.bdd_node_window) {
    *reject_reason = "bdd-oversubscribed";
    std::snprintf(
        buf, sizeof(buf),
        "%lld nodes outstanding + %lld nodes demanded > %lld node window",
        static_cast<long long>(outstanding_bdd_nodes_),
        static_cast<long long>(job.demand_bdd_nodes),
        static_cast<long long>(limits_.bdd_node_window));
    *detail = buf;
    return false;
  }
  ++outstanding_jobs_;
  outstanding_ms_ += job.demand_ms;
  outstanding_mem_mb_ += job.demand_mem_mb;
  outstanding_bdd_nodes_ += job.demand_bdd_nodes;
  Tenant& t = tenants_[job.tenant];
  t.jobs.push_back(std::move(job));
  t.arrivals.push_back(++arrival_tick_);
  ++pending_;
  return true;
}

bool FairQueue::pop_fairest(Job* out) {
  std::lock_guard<std::mutex> lk(mu_);
  Tenant* best = nullptr;
  for (auto& [name, t] : tenants_) {
    if (t.jobs.empty()) continue;
    if (best == nullptr || t.started < best->started ||
        (t.started == best->started &&
         t.arrivals.front() < best->arrivals.front())) {
      best = &t;
    }
  }
  if (best == nullptr) return false;
  *out = std::move(best->jobs.front());
  best->jobs.pop_front();
  best->arrivals.pop_front();
  ++best->started;
  ++best->running;
  --pending_;
  return true;
}

void FairQueue::finish(const Job& job) {
  std::lock_guard<std::mutex> lk(mu_);
  --outstanding_jobs_;
  outstanding_ms_ -= job.demand_ms;
  outstanding_mem_mb_ -= job.demand_mem_mb;
  outstanding_bdd_nodes_ -= job.demand_bdd_nodes;
  // Drop fully idle tenant records: the name is client-controlled, so
  // keeping every name ever seen would grow without bound.
  auto it = tenants_.find(job.tenant);
  if (it == tenants_.end()) return;
  Tenant& t = it->second;
  if (t.running > 0) --t.running;
  if (t.jobs.empty() && t.running == 0) tenants_.erase(it);
}

size_t FairQueue::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_;
}

size_t FairQueue::tenant_records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_.size();
}

}  // namespace rfn::serve
