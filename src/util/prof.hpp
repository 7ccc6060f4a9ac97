#pragma once
// Resource accounting and profiling: thread-CPU clocks, RSS sampling, and
// the rfn-prof-v1 artifact.
//
// Three independent meters feed this layer:
//   * CPU — thread_cpu_ns() reads CLOCK_THREAD_CPUTIME_ID, which is how a
//     run reports the CPU seconds of the thread it ran on;
//     process_cpu_ns() covers a whole CLI invocation.
//   * Heap — BddMgr keeps a byte-exact tally of its arena capacity (node
//     pool + unique table + computed cache) and flushes it as the
//     `bdd.heap_bytes` gauge. The counter lives in the BDD package; this
//     header only defines where it is aggregated.
//   * RSS — read_rss_bytes() reads /proc/self/statm; the watchdog's monitor
//     thread samples it into the process-global RssLog each poll, which both
//     backs --budget-mem-mb enforcement and the artifact's RSS timeline.
//
// build_prof_json() bundles all three into one rfn-prof-v1 document
// (validated offline by tools/trace_report.py --prof), and folded_stacks()
// renders the span tracer's Chrome trace as collapsed stacks with self-time
// for flamegraph.pl.

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rfn::prof {

/// CPU time consumed by the calling thread, in nanoseconds
/// (CLOCK_THREAD_CPUTIME_ID). Monotone per thread. Returns 0 on platforms
/// without per-thread CPU clocks, so deltas degrade to 0, never garbage.
int64_t thread_cpu_ns();

/// CPU time consumed by the whole process, in nanoseconds
/// (CLOCK_PROCESS_CPUTIME_ID). 0 when unavailable.
int64_t process_cpu_ns();

/// Current resident set size in bytes, from /proc/self/statm (resident
/// pages x page size). 0 when the file is unreadable (non-Linux).
int64_t read_rss_bytes();

struct RssSample {
  double t_ms = 0.0;   // since enable()
  int64_t bytes = 0;
};

/// Process-global bounded RSS timeline. The watchdog's monitor thread calls
/// sample() each poll; the CLI enables it for the lifetime of a profiled
/// run and serializes it into the rfn-prof-v1 artifact. Bounded: past
/// kMaxSamples the log thins itself (keeps every other sample and doubles
/// its accept stride), so an hours-long run still fits — the peak is exact
/// regardless of thinning.
class RssLog {
 public:
  static RssLog& global();

  /// Clears the log and starts a new timeline epoch at t = 0.
  void enable();
  void disable();
  bool enabled() const;

  /// Reads RSS now and appends it (subject to the accept stride). No-op
  /// when disabled. Returns the bytes read (0 when disabled/unreadable).
  int64_t sample();
  /// Appends an externally-read value — same stride and peak rules.
  void record(int64_t bytes);

  int64_t peak_bytes() const;
  std::vector<RssSample> samples() const;

  static constexpr size_t kMaxSamples = 4096;

 private:
  void record_locked(int64_t bytes);

  mutable std::mutex mu_;
  bool enabled_ = false;
  Stopwatch watch_;
  uint64_t calls_ = 0;
  uint64_t stride_ = 1;
  int64_t peak_ = 0;
  std::vector<RssSample> samples_;
};

/// Assembles the rfn-prof-v1 document from the registry snapshot `now`
/// taken after the run: `wall_s` is the run's wall time, `cpu_s` the
/// process-CPU delta over the same interval. The BDD subsystem's peak comes
/// from the `bdd.heap_bytes` gauge (a high-water mark, so never
/// baseline-differenced), and the RSS block from RssLog::global().
json::Value build_prof_json(const MetricsSnapshot& now, double wall_s,
                            double cpu_s);

/// Renders a Chrome trace-event document (SpanTracer::to_chrome_json) as
/// collapsed stacks: one "thread;outer;inner <self-microseconds>" line per
/// distinct stack, sorted, ready for flamegraph.pl. Self time is the span's
/// duration minus its children's — the invariant prof_test pins is that the
/// per-thread line sums equal the per-thread root span durations.
std::string folded_stacks(const json::Value& chrome_doc);

}  // namespace rfn::prof
