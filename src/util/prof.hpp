#pragma once
// Resource meters: thread and process CPU clocks, current RSS and the
// process's peak RSS.
//
//   * CPU — thread_cpu_ns() reads CLOCK_THREAD_CPUTIME_ID, which is how a
//     run reports the CPU seconds of the thread it ran on;
//     process_cpu_ns() covers a whole batch (the rfn-trace-v2 batch
//     summary's `cpu_ms`).
//   * RSS — read_rss_bytes() reads /proc/self/statm; the watchdog's monitor
//     thread reads it each poll to enforce --budget-mem-mb.
//     peak_rss_bytes() is the process high-water mark (the batch summary's
//     `peak_rss_bytes`).
//
// The BDD arena's byte tally lives in the BDD package and is flushed as the
// `bdd.heap_bytes` gauge; its maximum is in the batch summary's metrics.

#include <cstdint>

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

/// Peak resident set size of the process so far, in bytes
/// (getrusage(RUSAGE_SELF).ru_maxrss x 1024). 0 when unavailable.
int64_t peak_rss_bytes();

}  // namespace rfn::prof
