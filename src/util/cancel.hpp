#pragma once
// Cooperative cancellation for the engines.
//
// A CancelToken is an atomic flag engines poll at their step boundaries (per
// image step, per ATPG backtrack batch, per simulated cycle). Tokens can
// carry a wall-clock budget and chain to a parent token, so one poll answers
// "was I cancelled, did my budget expire, or was the whole run called off".
// Engines never block on a token and never get interrupted mid-step: all
// cancellation in this codebase is polling-based, which keeps every engine's
// data structures in a sane state when it unwinds.

#include <atomic>

#include "util/stopwatch.hpp"

namespace rfn {

class CancelToken {
 public:
  CancelToken() = default;
  /// Token with a wall-clock budget (negative = unlimited) that starts at
  /// construction, optionally chained to a parent: cancelled() reports true
  /// as soon as the flag is raised, the budget expires, or the parent is
  /// cancelled.
  explicit CancelToken(double time_limit_s, const CancelToken* parent = nullptr)
      : deadline_(time_limit_s), parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() { flag_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    if (flag_.load(std::memory_order_relaxed)) return true;
    if (deadline_.expired()) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

  /// True once this token's own wall-clock budget has run out, whatever
  /// its flag and its parent say.
  bool expired() const { return deadline_.expired(); }

 private:
  std::atomic<bool> flag_{false};
  Deadline deadline_;  // default-constructed: no budget
  const CancelToken* parent_ = nullptr;
};

/// Null-safe poll helper for the optional `cancel` members of engine option
/// structs: engines carry a `const CancelToken*` that defaults to nullptr so
/// callers without a budget pay nothing.
inline bool should_stop(const CancelToken* token) {
  return token != nullptr && token->cancelled();
}

}  // namespace rfn
