#pragma once
// Engine-portfolio scheduler: race heterogeneous engines against one proof
// obligation and keep the verdict the sequential order would keep.
//
// The paper's power comes from combining formal, simulation and hybrid
// engines; this scheduler lets them run concurrently instead of
// back-to-back. Each engine is wrapped as a closure that polls a CancelToken
// at its step boundaries and returns true when it reached a conclusive
// verdict (storing its payload wherever the closure captured it — each job
// writes only its own slot, so slots need no locking). race() returns after
// every *started* job has finished, which is what makes reading the slots
// afterwards data-race-free; cancelled jobs are expected to notice their
// token within one engine step, and the portfolio tests pin that latency.
//
// One race rule for every worker count: the lineup order is the priority
// order, and the winner is the first job in it that is conclusive. A
// conclusive job cancels only the jobs behind it; the jobs ahead of it keep
// running, and it wins once all of them have finished without a verdict.
// Workers therefore change wall time, never the winner. With a zero- or
// one-worker executor this is plain sequential in-order execution: the
// first conclusive job cancels the ones behind it in the queue, which then
// never run.
//
// Ownership rule the tests lock in: BDD managers are single-owner. A job
// that needs BDDs creates (or exclusively borrows) its own BddMgr; no two
// concurrent jobs may ever touch the same manager. Netlists are immutable
// after construction and safe to share read-only.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/executor.hpp"

namespace rfn {

struct PortfolioJob {
  /// Engine name for the winner histogram and logs.
  std::string name;
  /// Per-job wall-clock budget (seconds); negative = unlimited. The budget
  /// starts when the job starts running, not when it is enqueued.
  double time_limit_s = -1.0;
  /// The engine closure. Must poll `cancel` at step boundaries and return
  /// true iff it reached a conclusive verdict.
  std::function<bool(const CancelToken&)> run;
};

struct RaceResult {
  /// True when some job reported a conclusive verdict.
  bool conclusive = false;
  /// Index of the winning job in the vector passed to race().
  size_t winner = static_cast<size_t>(-1);
  std::string winner_name;
  double seconds = 0.0;
  /// Thread-CPU seconds summed over every launched job (winner, losers and
  /// cancelled alike), measured per job via CLOCK_THREAD_CPUTIME_ID. With
  /// workers racing this exceeds `seconds`; sequential it cannot.
  double cpu_seconds = 0.0;
  size_t launched = 0;
  size_t cancelled = 0;
};

class Portfolio {
 public:
  /// `workers` = 0 runs jobs sequentially inline; otherwise a fixed pool of
  /// that many threads is shared by all races of this portfolio.
  explicit Portfolio(size_t workers);

  /// Races `jobs` and returns once every started job has finished. The
  /// winner is the first job in `jobs` order that reports a conclusive
  /// verdict; each conclusive job cancels the jobs behind it (running jobs
  /// see their token flip; queued jobs are skipped) and none ahead of it. An
  /// optional `parent` token cancels the whole race from outside.
  /// Not itself thread-safe: one race at a time per Portfolio.
  RaceResult race(const std::vector<PortfolioJob>& jobs,
                  const CancelToken* parent = nullptr);

  size_t workers() const { return exec_.workers(); }

 private:
  Executor exec_;
};

}  // namespace rfn
