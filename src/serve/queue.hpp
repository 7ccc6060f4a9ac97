#pragma once
// FairQueue: bounded admission + per-tenant fair-share scheduling for
// rfn_serve.
//
// Admission is decided at enqueue time, before any engine work, so an
// oversubscribed server answers in microseconds instead of queueing a
// request it cannot honor. A request is rejected with a NAMED reason —
// "queue-full", "time-oversubscribed", "mem-oversubscribed",
// "bdd-oversubscribed" — computed from the same budget knobs the engines
// enforce (time-limit / budget-mem-mb / budget-bdd-nodes): the queue sums the declared demands of every admitted-but-unfinished job and
// refuses to let the total cross the configured window.
//
// Scheduling is fair-share by tenant: pop_fairest() serves the pending
// tenant with the fewest jobs started so far (FIFO within a tenant, arrival
// order on ties), so a tenant that floods the queue cannot starve one that
// sends a single request. The queue does not run jobs — rfn_serve drains it
// from util/executor workers, one drain token per admitted job.
//
// Tenant names are client-controlled, so a tenant's record is erased once
// it has no queued and no running jobs — the map is bounded by the
// admission capacity, not by the number of distinct names ever seen. The
// cost is that a fully idle tenant's fair-share history resets.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "api/api.hpp"

namespace rfn::serve {

/// Admission windows. Any limit <= 0 disables that check.
struct AdmissionLimits {
  /// Bound on admitted-but-unfinished jobs ("queue-full" beyond it).
  size_t queue_capacity = 64;
  /// Wall-time window: sum of outstanding per-request time demands.
  double time_window_ms = -1.0;
  /// Memory window: sum of outstanding budget-mem-mb declarations.
  int64_t mem_window_mb = -1;
  /// BDD-node window: sum of outstanding budget-bdd-nodes declarations.
  int64_t bdd_node_window = -1;
  /// Time demand assumed for a request that declares no time-limit (an
  /// unbounded request must still cost something against the window, or the
  /// window checks nothing).
  double default_demand_ms = 300000.0;
};

/// One admitted job: the scheduling key, the admission demands it holds
/// until finish(), and the closure that runs it on a worker.
struct Job {
  std::string tenant;
  double demand_ms = 0.0;
  int64_t demand_mem_mb = 0;
  int64_t demand_bdd_nodes = 0;
  std::function<void()> run;
};

/// A request's declared wall-time demand: time-limit, else `default_ms`.
double request_demand_ms(const api::VerifyRequest& req, double default_ms);

class FairQueue {
 public:
  explicit FairQueue(AdmissionLimits limits) : limits_(limits) {}

  /// Admits or rejects `job`. On rejection returns false with the named
  /// reason in `reject_reason` and a human detail in `detail`.
  bool try_push(Job job, std::string* reject_reason, std::string* detail);

  /// Pops the next job fair-share (see file comment). False when empty.
  bool pop_fairest(Job* out);

  /// Releases a popped job's admission demands. Call exactly once per
  /// successful pop, after the job ran.
  void finish(const Job& job);

  /// Admitted-but-unstarted jobs.
  size_t pending() const;

  /// Live tenant records (those with queued or running jobs) — bounded by
  /// the admission capacity, not by distinct names ever seen.
  size_t tenant_records() const;

 private:
  struct Tenant {
    std::deque<Job> jobs;
    /// Arrival tick of each queued job (parallel to `jobs`), for tie-breaks.
    std::deque<uint64_t> arrivals;
    /// Jobs handed to workers while this record has existed — the
    /// fair-share charge.
    size_t started = 0;
    /// Popped-but-unfinished jobs; the record lives while this is nonzero.
    size_t running = 0;
  };

  const AdmissionLimits limits_;
  mutable std::mutex mu_;
  std::map<std::string, Tenant> tenants_;
  size_t pending_ = 0;
  /// Admitted-but-unfinished totals, per admission dimension.
  size_t outstanding_jobs_ = 0;
  double outstanding_ms_ = 0.0;
  int64_t outstanding_mem_mb_ = 0;
  int64_t outstanding_bdd_nodes_ = 0;
  uint64_t arrival_tick_ = 0;
};

}  // namespace rfn::serve
