#pragma once
// Structured observability for the CEGAR loop: a thread-safe registry of
// named counters, gauges and histogram timers.
//
// Every engine layer (BDD manager flushes, image/reach steps, ATPG
// backtracks, hybrid cut-cube classification, the RFN loop itself) records into one process-global registry. The design splits the
// cost into two tiers:
//   * the hot path — Counter::add / Gauge::record_max / Timer::record — is
//     a single relaxed atomic RMW, safe from any executor thread;
//   * registration — MetricsRegistry::counter("name") — takes a mutex, so
//     call sites either run at step boundaries (once per reach / per ATPG
//     call) or cache the returned reference in a function-local static.
// Metric objects are never deallocated while the registry lives, and
// reset() zeroes values without invalidating references, so cached
// references stay valid across test cases and bench repetitions.
//
// Snapshots flatten the registry into name -> double for delta arithmetic
// (per-bench counters, per-test assertions) and to_json()
// serializes the whole registry for the batch summary of the JSON event
// trace and the bench regression gate.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace rfn {

/// Monotonically increasing event count. Lock-free.
class Counter {
 public:
  void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-written level plus a high-water mark. Lock-free.
class Gauge {
 public:
  void set(int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    record_max(v);
  }
  /// Raises the high-water mark without touching the level. This is the
  /// call engines use for peak trackers (BDD live nodes, abstraction size).
  void record_max(int64_t v) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> max_{0};
};

/// Accumulated duration histogram: count, total and max, in nanoseconds
/// internally so accumulation is a single atomic add. Lock-free.
class Timer {
 public:
  void record(double seconds) {
    const auto ns = static_cast<uint64_t>(seconds < 0.0 ? 0.0 : seconds * 1e9);
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (ns > cur &&
           !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double total_seconds() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  double max_seconds() const {
    return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
};

/// Flat name -> value view of a registry at one instant. Counters appear
/// under their name; gauges add ".max"; timers add ".count", ".seconds" and
/// ".max_seconds".
struct MetricsSnapshot {
  std::map<std::string, double> values;

  double value(const std::string& name, double fallback = 0.0) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  /// Pointwise this - before (names missing from `before` count as 0).
  /// Meaningful for counters and timer totals; gauge levels and maxima are
  /// not differences — read those off the raw snapshot.
  MetricsSnapshot delta(const MetricsSnapshot& before) const;
};

class MetricsRegistry {
 public:
  /// The registry engines record into: the registry bound to this thread
  /// (MetricsScope), or the process-wide one when nothing is bound. Every
  /// recording site already routes through global(), so binding a scope
  /// redirects a whole run — including executor workers and the watchdog
  /// monitor, which propagate their creator's binding — without touching
  /// any call site.
  static MetricsRegistry& global();
  /// The process-wide registry, ignoring any thread binding (server-level
  /// counters that must aggregate across requests).
  static MetricsRegistry& process();
  /// This thread's current binding (nullptr = process registry). Exposed so
  /// thread-launching utilities (Executor, Watchdog) can propagate it.
  static MetricsRegistry* current_binding();
  /// Rebinds this thread and returns the previous binding. Prefer
  /// MetricsScope; this is the primitive it and the thread-propagation
  /// paths use.
  static MetricsRegistry* bind(MetricsRegistry* reg);

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference is stable for the registry's
  /// lifetime (entries are never erased, reset() only zeroes them).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Timer& timer(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// Full registry as one JSON object: {"counters": {...}, "gauges":
  /// {name: {"value": v, "max": m}}, "timers": {name: {"count": c,
  /// "seconds": s, "max_seconds": m}}}. Keys are sorted (std::map), so the
  /// document is stable for golden tests and the bench gate.
  ///
  /// With a non-null `baseline` (a snapshot taken at a run's start, see
  /// MetricsEpoch) counters and timer count/seconds are reported relative
  /// to it, so two runs in one process each serialize only their own work.
  /// Gauge levels and maxima are not differences and stay raw.
  json::Value to_json(const MetricsSnapshot* baseline = nullptr) const;

  /// Monotonically increasing epoch id, bumped by each MetricsEpoch. Lets
  /// consumers detect that two summaries came from different runs.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  uint64_t begin_epoch() {
    return epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Zeroes every registered metric without invalidating references.
  /// For per-run isolation in tests and benches.
  void reset();

 private:
  mutable std::mutex mu_;
  std::atomic<uint64_t> epoch_{0};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

/// RAII thread binding: while alive, MetricsRegistry::global() on this
/// thread (and on any Executor worker running tasks submitted from it, and
/// any Watchdog started under it) resolves to `reg`. Binding nullptr
/// restores the process registry for the scope. rfn_serve binds one fresh
/// registry per request so concurrent requests' batch summaries are
/// request-relative instead of process-cumulative.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry* reg)
      : prev_(MetricsRegistry::bind(reg)) {}
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;
  ~MetricsScope() { MetricsRegistry::bind(prev_); }

 private:
  MetricsRegistry* prev_;
};

/// Per-run isolation guard for a shared registry. Resetting the registry
/// between runs would break callers that hold snapshot/delta pairs across a
/// run (metrics tests) or accumulate across bench repetitions, so an
/// epoch instead captures a baseline snapshot at run start; serializing the
/// run's summary through to_json(&epoch.baseline()) subtracts everything
/// recorded before this run began. Two run_rfn calls in one process thus
/// get disjoint summaries without either seeing a zeroed registry.
class MetricsEpoch {
 public:
  explicit MetricsEpoch(MetricsRegistry& reg = MetricsRegistry::global())
      : id_(reg.begin_epoch()), baseline_(reg.snapshot()) {}

  uint64_t id() const { return id_; }
  const MetricsSnapshot& baseline() const { return baseline_; }

 private:
  uint64_t id_;
  MetricsSnapshot baseline_;
};

}  // namespace rfn
