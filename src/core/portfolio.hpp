#pragma once
// Engine-portfolio race: try heterogeneous engines on one proof obligation
// in priority order and keep the first verdict.
//
// The paper's power comes from combining formal, simulation and hybrid
// engines; a race lines them up against one obligation. Each engine is
// wrapped as a closure that polls a CancelToken at its step boundaries and
// returns true when it reached a conclusive verdict (storing its payload
// wherever the closure captured it).
//
// The race rule is a loop on the calling thread: the lineup order is the
// priority order, each job runs under its own token (its wall budget,
// chained to the caller's token), and the first conclusive job wins. The
// jobs behind the winner are skipped, so a later engine decides only when
// every engine ahead of it finished without a verdict.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/cancel.hpp"

namespace rfn {

struct PortfolioJob {
  /// Engine name for the winner histogram and logs.
  std::string name;
  /// Per-job wall-clock budget (seconds); negative = unlimited. The budget
  /// starts when the job starts running.
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
  /// Thread-CPU seconds summed over the jobs that ran, measured per job via
  /// CLOCK_THREAD_CPUTIME_ID. Skipped jobs burn none.
  double cpu_seconds = 0.0;
  /// Jobs that ran; jobs skipped (behind the winner, or after the caller's
  /// token fired) or cut short by the caller's token.
  size_t launched = 0;
  size_t cancelled = 0;
};

/// Runs `jobs` in order and returns at the first conclusive one; the jobs
/// behind it are skipped. A job that ends without a verdict (its own budget
/// expired, or it gave up) is inconclusive and the next job runs. An
/// optional `parent` token cancels the whole race from outside: the running
/// job sees it through its own token and the rest are skipped.
RaceResult race(const std::vector<PortfolioJob>& jobs,
                const CancelToken* parent = nullptr);

}  // namespace rfn
