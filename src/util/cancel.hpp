#pragma once
// Cooperative cancellation: the one stop signal below the RFN loop.
//
// A CancelToken is an atomic flag plus an optional wall-clock limit, chained
// to an optional parent, so one poll answers "was I cancelled, did my limit
// expire, or was the whole run called off". Every time-bounded caller
// (run_property, rfn_coverage_analysis, bfs_coverage_analysis,
// plain_model_check) builds one token and hands the same pointer to every
// engine it calls and to every BDD manager it owns:
//   * forward_reach polls it per image step;
//   * combinational and sequential ATPG poll it per backtrack and per
//     decision batch, the hybrid walk per pre-image step;
//   * BddMgr::set_cancel polls it every 16,384 computed-table probes and per
//     variable of a sifting pass, so a single long BDD operation (image
//     construction, a reordering) stops too.
// Engines never block on a token and never get interrupted mid-step: all
// cancellation in this codebase is polling-based, which keeps every engine's
// data structures in a sane state when it unwinds. An engine a token
// stopped reports Abort / ResourceOut / a null Bdd, like any other
// resource limit; callers tell the two apart by polling the token.

#include <atomic>

#include "util/stopwatch.hpp"

namespace rfn {

class CancelToken {
 public:
  CancelToken() = default;
  /// Token with a wall-clock limit (negative = unlimited) that starts at
  /// construction, optionally chained to a parent: cancelled() reports true
  /// as soon as the flag is raised, the limit expires, or the parent is
  /// cancelled.
  explicit CancelToken(double time_limit_s, const CancelToken* parent = nullptr)
      : time_limit_s_(time_limit_s), parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() { flag_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    if (flag_.load(std::memory_order_relaxed)) return true;
    if (expired()) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

  /// True once this token's own wall-clock limit has run out, whatever its
  /// flag and its parent say.
  bool expired() const {
    return time_limit_s_ >= 0.0 && watch_.seconds() >= time_limit_s_;
  }

 private:
  std::atomic<bool> flag_{false};
  Stopwatch watch_;
  double time_limit_s_ = -1.0;  // negative: no limit
  const CancelToken* parent_ = nullptr;
};

/// Null-safe poll helper for the optional `cancel` members of engine option
/// structs: engines carry a `const CancelToken*` that defaults to nullptr so
/// callers without a budget pay nothing.
inline bool should_stop(const CancelToken* token) {
  return token != nullptr && token->cancelled();
}

}  // namespace rfn
