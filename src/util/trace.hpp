#pragma once
// Causal span tracing for the engine stack: RAII spans recorded into
// lock-free per-thread ring buffers, exported as Chrome trace-event JSON so
// any run opens directly in Perfetto / chrome://tracing.
//
// The metrics registry (util/metrics) answers *how much*; spans answer
// *where the wall-clock went*: which engine stalled a portfolio race, which
// BDD reordering blocked an image step, how long an inconclusive engine ran
// before the next one took over. The cost model mirrors the registry's two
// tiers:
//   * disabled (the default), every recording call is one relaxed atomic
//     load — engines keep their spans compiled in unconditionally;
//   * enabled, a span begin/end is a steady_clock read plus one store into
//     the calling thread's own ring buffer. No locks, no allocation: names
//     and string arguments are string literals or strings interned once
//     through SpanTracer::intern (a mutex, at setup boundaries only).
//
// Causality. Within a thread, parent/child is the begin/end nesting the
// Chrome format derives from B/E pairs; each thread is its own track.
//
// Thread-safety contract: enable(), disable() and the exporters must run at
// quiescent points — no concurrent emission. Emission itself is safe from
// any thread. The exporter re-reads every thread's buffer; the caller's
// synchronization with those threads (VerifySession waiting out its property
// jobs, Watchdog::stop joining the monitor) is what makes that race-free.
//
// Export (schema "rfn-spans-v1"): {"traceEvents":[...], "displayTimeUnit":
// "ms", "otherData":{"trace_version":"rfn-spans-v1","dropped_events":N}}.
// The exporter guarantees balanced B/E pairs per thread and per-thread
// monotonic timestamps even after ring overwrite: orphaned ends (their
// begin was overwritten) are discarded and spans still open at export get a
// synthesized end at the thread's last timestamp.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace rfn {

enum class SpanPhase : uint8_t { Begin, End, Instant };

/// One ring-buffer record. `name`, `arg_name`, `arg_str` and `arg2_name`
/// must be string literals or pointers obtained from SpanTracer::intern —
/// only the pointer is stored.
struct SpanEvent {
  SpanPhase phase = SpanPhase::Instant;
  const char* name = nullptr;
  uint64_t ts_ns = 0;      // since the tracer's enable() epoch
  const char* arg_name = nullptr;  // optional key/value payload
  const char* arg_str = nullptr;
  double arg_num = 0.0;
  bool arg_is_num = false;
  const char* arg2_name = nullptr;  // optional second, numeric payload
  double arg2_num = 0.0;
};

class SpanTracer {
 public:
  /// The process-wide tracer every engine records into.
  static SpanTracer& global();

  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Starts a fresh trace: drops all previous buffers, re-arms the epoch
  /// clock and caps each thread's ring at `events_per_thread` records
  /// (oldest overwritten first). Quiescent callers only.
  void enable(size_t events_per_thread = 1u << 16);
  void disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Copies `s` into tracer-owned storage and returns a stable pointer,
  /// deduplicated per distinct string. For dynamic span names; literals
  /// need no interning.
  const char* intern(std::string_view s);

  /// Names the calling thread's track in the exported trace. No-op while
  /// disabled.
  void set_thread_name(const char* name);

  // --- recording (every call is a no-op while disabled) ---

  void begin(const char* name);
  void end(const char* name, const char* arg_name = nullptr,
           const char* arg_str = nullptr, double arg_num = 0.0,
           bool arg_is_num = false, const char* arg2_name = nullptr,
           double arg2_num = 0.0);
  /// Point event (scope: global) — e.g. a run's budget trip.
  void instant(const char* name, const char* arg_name = nullptr,
               const char* arg_str = nullptr, double arg_num = 0.0,
               bool arg_is_num = false);

  // --- export (quiescent callers only) ---

  /// The whole trace as one Chrome trace-event document.
  json::Value to_chrome_json();
  void write_chrome_json(std::ostream& os);

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::string name;
    std::vector<SpanEvent> ring;
    uint64_t count = 0;  // total emitted; count > ring.size() => overwrite
  };

  ThreadBuffer* buffer();
  void emit(const SpanEvent& e);
  uint64_t now_ns() const;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> generation_{0};  // bumped by enable(); invalidates TLS
  std::atomic<int64_t> epoch_ns_{0};  // steady_clock at enable()

  mutable std::mutex mu_;  // buffers_, interned_, capacity_, next_tid_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::unique_ptr<std::string>> interned_;
  size_t capacity_ = 1u << 16;
  uint32_t next_tid_ = 1;
};

/// RAII span: begin on construction, end at scope exit (or an explicit
/// end()). A span constructed while the tracer is disabled costs one atomic
/// load and never emits. annotate() attaches one key/value, or two numeric
/// ones, to the end event (last call wins) — the exporter renders them as
/// the span's args.
class Span {
 public:
  explicit Span(const char* name)
      : name_(SpanTracer::global().enabled() ? name : nullptr) {
    if (name_ != nullptr) SpanTracer::global().begin(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  void annotate(const char* key, const char* interned_value) {
    arg_name_ = key;
    arg_str_ = interned_value;
    arg_is_num_ = false;
    arg2_name_ = nullptr;
  }
  void annotate(const char* key, double value) {
    arg_name_ = key;
    arg_num_ = value;
    arg_is_num_ = true;
    arg2_name_ = nullptr;
  }
  void annotate(const char* key, double value, const char* key2, double value2) {
    annotate(key, value);
    arg2_name_ = key2;
    arg2_num_ = value2;
  }

  /// Idempotent early end.
  void end() {
    if (name_ == nullptr) return;
    SpanTracer::global().end(name_, arg_name_, arg_str_, arg_num_, arg_is_num_,
                             arg2_name_, arg2_num_);
    name_ = nullptr;
  }

 private:
  const char* name_;
  const char* arg_name_ = nullptr;
  const char* arg_str_ = nullptr;
  double arg_num_ = 0.0;
  bool arg_is_num_ = false;
  const char* arg2_name_ = nullptr;
  double arg2_num_ = 0.0;
};

}  // namespace rfn
