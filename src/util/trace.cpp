#include "util/trace.hpp"

#include <algorithm>
#include <chrono>

namespace rfn {
namespace {

int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double to_us(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

}  // namespace

SpanTracer& SpanTracer::global() {
  // Leaked singleton, same lifetime rule as MetricsRegistry::global():
  // executor threads may record during static destruction of other objects.
  static SpanTracer* tracer = new SpanTracer();
  return *tracer;
}

void SpanTracer::enable(size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  next_tid_ = 1;
  capacity_ = events_per_thread == 0 ? 1 : events_per_thread;
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  // The generation bump invalidates every thread's cached buffer pointer;
  // stale threads re-register on their next emission.
  generation_.fetch_add(1, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

const char* SpanTracer::intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& owned : interned_)
    if (*owned == s) return owned->c_str();
  interned_.push_back(std::make_unique<std::string>(s));
  return interned_.back()->c_str();
}

uint64_t SpanTracer::now_ns() const {
  const int64_t delta =
      steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed);
  return delta < 0 ? 0 : static_cast<uint64_t>(delta);
}

SpanTracer::ThreadBuffer* SpanTracer::buffer() {
  struct Cache {
    SpanTracer* owner = nullptr;
    uint64_t gen = 0;
    ThreadBuffer* buf = nullptr;
  };
  thread_local Cache cache;
  const uint64_t gen = generation_.load(std::memory_order_acquire);
  if (cache.owner == this && cache.gen == gen) return cache.buf;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buf = buffers_.back().get();
  buf->tid = next_tid_++;
  buf->ring.resize(capacity_);
  cache = {this, gen, buf};
  return buf;
}

void SpanTracer::emit(const SpanEvent& e) {
  ThreadBuffer* buf = buffer();
  buf->ring[buf->count % buf->ring.size()] = e;
  ++buf->count;
}

void SpanTracer::set_thread_name(const char* name) {
  if (!enabled()) return;
  buffer()->name = name;
}

void SpanTracer::begin(const char* name) {
  if (!enabled()) return;
  SpanEvent e;
  e.phase = SpanPhase::Begin;
  e.name = name;
  e.ts_ns = now_ns();
  emit(e);
}

void SpanTracer::end(const char* name, const char* arg_name,
                     const char* arg_str, double arg_num, bool arg_is_num,
                     const char* arg2_name, double arg2_num) {
  if (!enabled()) return;
  SpanEvent e;
  e.phase = SpanPhase::End;
  e.name = name;
  e.ts_ns = now_ns();
  e.arg_name = arg_name;
  e.arg_str = arg_str;
  e.arg_num = arg_num;
  e.arg_is_num = arg_is_num;
  e.arg2_name = arg2_name;
  e.arg2_num = arg2_num;
  emit(e);
}

void SpanTracer::instant(const char* name, const char* arg_name,
                         const char* arg_str, double arg_num,
                         bool arg_is_num) {
  if (!enabled()) return;
  SpanEvent e;
  e.phase = SpanPhase::Instant;
  e.name = name;
  e.ts_ns = now_ns();
  e.arg_name = arg_name;
  e.arg_str = arg_str;
  e.arg_num = arg_num;
  e.arg_is_num = arg_is_num;
  emit(e);
}

json::Value SpanTracer::to_chrome_json() {
  json::Value events = json::Value::array();
  uint64_t dropped = 0;

  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    // Process metadata: one shared pid, per-buffer tid with an optional
    // human name for the track.
    {
      json::Value meta = json::Value::object();
      meta.set("name", "thread_name");
      meta.set("ph", "M");
      meta.set("pid", 1);
      meta.set("tid", static_cast<uint64_t>(buf->tid));
      json::Value args = json::Value::object();
      args.set("name", buf->name.empty()
                           ? "thread-" + std::to_string(buf->tid)
                           : buf->name);
      meta.set("args", std::move(args));
      events.push(std::move(meta));
    }

    // Chronological reconstruction of the ring. When the ring overflowed,
    // the surviving window starts mid-stream: any End whose Begin was
    // overwritten arrives before its opener and must be discarded to keep
    // the exported B/E pairs balanced. RAII guarantees proper nesting per
    // thread, so the orphans are exactly the unmatched Ends seen while the
    // reconstruction's open-span depth is zero.
    const size_t cap = buf->ring.size();
    const uint64_t n = std::min<uint64_t>(buf->count, cap);
    const uint64_t first = buf->count - n;  // index of oldest surviving event
    dropped += first;

    size_t depth = 0;
    uint64_t last_ts = 0;
    for (uint64_t i = 0; i < n; ++i) {
      const SpanEvent& e = buf->ring[(first + i) % cap];
      last_ts = std::max(last_ts, e.ts_ns);
      if (e.phase == SpanPhase::End) {
        if (depth == 0) {
          ++dropped;  // opener was overwritten
          continue;
        }
        --depth;
      } else if (e.phase == SpanPhase::Begin) {
        ++depth;
      }

      json::Value ev = json::Value::object();
      ev.set("name", e.name);
      switch (e.phase) {
        case SpanPhase::Begin:
          ev.set("ph", "B");
          ev.set("cat", "rfn");
          break;
        case SpanPhase::End:
          ev.set("ph", "E");
          ev.set("cat", "rfn");
          break;
        case SpanPhase::Instant:
          ev.set("ph", "i");
          ev.set("cat", "rfn");
          ev.set("s", "g");
          break;
      }
      ev.set("pid", 1);
      ev.set("tid", static_cast<uint64_t>(buf->tid));
      ev.set("ts", to_us(e.ts_ns));
      if (e.arg_name != nullptr) {
        json::Value args = json::Value::object();
        if (e.arg_is_num)
          args.set(e.arg_name, e.arg_num);
        else
          args.set(e.arg_name, e.arg_str == nullptr ? "" : e.arg_str);
        if (e.arg2_name != nullptr) args.set(e.arg2_name, e.arg2_num);
        ev.set("args", std::move(args));
      }
      events.push(std::move(ev));
    }

    // Spans still open at export (or whose End fell victim to a concurrent
    // writer — the contract forbids that, but a synthesized close keeps the
    // file loadable either way) get an End at the thread's last timestamp.
    for (; depth > 0; --depth) {
      json::Value ev = json::Value::object();
      ev.set("name", "(unclosed)");
      ev.set("ph", "E");
      ev.set("cat", "rfn");
      ev.set("pid", 1);
      ev.set("tid", static_cast<uint64_t>(buf->tid));
      ev.set("ts", to_us(last_ts));
      events.push(std::move(ev));
    }
  }

  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  json::Value other = json::Value::object();
  other.set("trace_version", "rfn-spans-v1");
  other.set("dropped_events", dropped);
  doc.set("otherData", std::move(other));
  return doc;
}

void SpanTracer::write_chrome_json(std::ostream& os) {
  os << to_chrome_json().dump(1) << "\n";
}

}  // namespace rfn
