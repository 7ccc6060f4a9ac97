// Resource-meter tests (util/prof and its consumers): CPU clock
// monotonicity, RSS reads, byte-exact arena accounting in the BDD manager
// (tracked == recomputed from the live containers), the per-thread balance
// of trace_report.py --folded on a two-thread span trace, the watchdog's
// memory budget, end-to-end --budget-mem-mb degradation to resource-out,
// and a golden check of the cost fields of the CLI's batch summary.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/rfn.hpp"
#include "core/trace_json.hpp"
#include "netlist/builder.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace rfn {
namespace {

/// Burns CPU (not wall) until the calling thread's CPU clock has advanced
/// by at least `ns` — the way to make CPU-attribution tests deterministic
/// on loaded machines.
void burn_thread_cpu(int64_t ns) {
  const int64_t start = prof::thread_cpu_ns();
  volatile uint64_t sink = 1;
  while (prof::thread_cpu_ns() - start < ns) {
    for (int i = 0; i < 4096; ++i) sink = sink * 2862933555777941757ull + 3037ull;
  }
}

TEST(ProfClock, ThreadCpuAdvancesMonotone) {
  const int64_t t0 = prof::thread_cpu_ns();
  ASSERT_GE(t0, 0);
  burn_thread_cpu(2'000'000);  // 2 ms of real CPU work
  const int64_t t1 = prof::thread_cpu_ns();
  EXPECT_GE(t1 - t0, 2'000'000);
  EXPECT_GE(prof::thread_cpu_ns(), t1);  // monotone on re-read
}

TEST(ProfClock, ProcessCpuCoversThreadDelta) {
  // The process clock aggregates every thread, so over a bracketed burst of
  // single-thread work its delta can never be below the thread's own.
  const int64_t p0 = prof::process_cpu_ns();
  const int64_t t0 = prof::thread_cpu_ns();
  burn_thread_cpu(2'000'000);
  const int64_t t1 = prof::thread_cpu_ns();
  const int64_t p1 = prof::process_cpu_ns();
  EXPECT_GE(p1 - p0, t1 - t0);
}

TEST(ProfClock, RssReadableOnLinux) {
#if defined(__linux__)
  EXPECT_GT(prof::read_rss_bytes(), 0);
#else
  EXPECT_EQ(prof::read_rss_bytes(), 0);  // degrade to 0, never garbage
#endif
}

TEST(ProfClock, PeakRssIsAHighWaterMark) {
#if defined(__linux__)
  // Touching 32 MiB lifts the high-water mark past it, and freeing the
  // block does not lower it.
  constexpr size_t kBlock = size_t{32} << 20;
  {
    std::vector<char> block(kBlock, 1);
    EXPECT_EQ(block[kBlock / 2], 1);
  }
  const int64_t peak = prof::peak_rss_bytes();
  EXPECT_GE(peak, static_cast<int64_t>(kBlock));
  EXPECT_GE(prof::peak_rss_bytes(), peak);
#else
  EXPECT_EQ(prof::peak_rss_bytes(), 0);
#endif
}

TEST(BddArena, TrackedBytesMatchRecomputed) {
  BddMgr mgr(24);
  // The constructor's pre-sized pool/cache/buckets are already tracked.
  EXPECT_GT(mgr.heap_bytes(), 0u);
  EXPECT_EQ(mgr.heap_bytes(), mgr.heap_bytes_recomputed());

  // Grow through every instrumented path: fresh nodes (pool growth +
  // unique-table inserts), bucket rehashing, then GC and sifting, which
  // recycle nodes but never return capacity.
  Bdd f = mgr.bdd_true();
  for (BddVar i = 0; i < 12; ++i) f &= !(mgr.var(i) ^ mgr.var(i + 12));
  Bdd g = mgr.bdd_false();
  for (BddVar i = 0; i < 12; ++i) g |= mgr.var(i) & mgr.nvar(23 - i);
  EXPECT_EQ(mgr.heap_bytes(), mgr.heap_bytes_recomputed());

  g = mgr.bdd_false();  // drop refs, then collect
  mgr.garbage_collect();
  EXPECT_EQ(mgr.heap_bytes(), mgr.heap_bytes_recomputed());
  mgr.reorder_sift();
  EXPECT_EQ(mgr.heap_bytes(), mgr.heap_bytes_recomputed());

  // The arena never shrinks (freed nodes go to the free list), so within
  // one manager live == peak — the documented BddStats contract.
  EXPECT_EQ(mgr.stats().heap_bytes, mgr.stats().heap_peak_bytes);
}

#ifdef RFN_TOOLS_DIR
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// Spans recorded on two named threads, exported as a Chrome trace and
// folded by trace_report.py --folded: per thread, the self times of the
// collapsed stacks sum to that thread's root-span durations.
TEST(FoldedStacks, SelfTimesSumToRootDurationsPerThread) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 unavailable";
  SpanTracer::global().enable(1u << 12);
  SpanTracer::global().set_thread_name("prof-main");
  {
    Span outer("outer");
    burn_thread_cpu(1'000'000);
    {
      Span inner("inner");
      burn_thread_cpu(1'000'000);
    }
    { Span inner2("inner2"); }
  }
  { Span second_root("second-root"); }
  std::thread t([] {
    SpanTracer::global().set_thread_name("prof-worker");
    Span s("task");
    burn_thread_cpu(1'000'000);
  });
  t.join();
  SpanTracer::global().disable();
  const json::Value doc = SpanTracer::global().to_chrome_json();

  const std::string spans = ::testing::TempDir() + "/folded_spans.json";
  const std::string folded = ::testing::TempDir() + "/folded_spans.folded";
  {
    std::ofstream out(spans);
    SpanTracer::global().write_chrome_json(out);
  }
  const std::string cmd = std::string("python3 ") + RFN_TOOLS_DIR +
                          "/trace_report.py --folded " + spans + " > " +
                          folded;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // Parse "thread;frame;... <us>" lines.
  std::map<std::string, long long> self_us;
  const std::vector<std::string> lines = read_lines(folded);
  for (const std::string& line : lines) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    self_us[line.substr(0, space)] = std::stoll(line.substr(space + 1));
  }
  ASSERT_GT(lines.size(), 0u);
  EXPECT_TRUE(self_us.count("prof-main;outer"));
  EXPECT_TRUE(self_us.count("prof-main;outer;inner"));
  EXPECT_TRUE(self_us.count("prof-worker;task"));

  // Balance: per thread, the folded self times sum to the root-span
  // durations (self = dur - children by construction). Recompute the root
  // durations from the same Chrome doc; allow 1 us of rounding per line.
  std::map<uint64_t, std::string> thread_names;
  std::map<uint64_t, int> depth;
  std::map<uint64_t, double> begin_ts;
  std::map<uint64_t, double> root_us;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    const std::string& ph = e.find("ph")->as_string();
    const uint64_t tid = e.find("tid")->as_uint();
    if (ph == "M") {
      if (e.find("name")->as_string() == "thread_name")
        thread_names[tid] = e.find_path("args.name")->as_string();
      continue;
    }
    if (ph == "B" && depth[tid]++ == 0) begin_ts[tid] = e.find("ts")->as_double();
    if (ph == "E" && --depth[tid] == 0)
      root_us[tid] += e.find("ts")->as_double() - begin_ts[tid];
  }
  EXPECT_EQ(root_us.size(), 2u);
  for (const auto& [tid, total_us] : root_us) {
    ASSERT_TRUE(thread_names.count(tid));
    const std::string& prefix = thread_names[tid];
    long long folded_total = 0;
    for (const auto& [key, us] : self_us)
      if (key.rfind(prefix + ";", 0) == 0) folded_total += us;
    EXPECT_NEAR(static_cast<double>(folded_total), total_us,
                static_cast<double>(lines.size()) + 1.0)
        << "thread " << prefix;
  }
  std::remove(spans.c_str());
  std::remove(folded.c_str());
}
#endif  // RFN_TOOLS_DIR

TEST(Watchdog, MemBudgetTripsOnResidentSet) {
  // Any live test process is resident well past 1 MiB, so the first poll
  // trips — deterministically, without allocating anything.
  CancelToken token;
  WatchdogOptions opt;
  opt.mem_budget_mb = 1;
  opt.poll_interval_s = 0.005;
  Watchdog dog(opt, &token);
  dog.start();
  for (int i = 0; i < 400 && !token.cancelled(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  dog.stop();
  ASSERT_TRUE(dog.tripped());
  EXPECT_TRUE(token.cancelled());
  EXPECT_GE(dog.trip_rss_bytes(), int64_t{1} << 20);
}

/// 24-bit free-running counter (same design as tests/data/slow24.v): every
/// engine needs ~2^24 steps, so the run reliably outlives any small budget.
Netlist slow_counter_netlist() {
  NetBuilder b;
  const Word cnt = b.reg_word("cnt", 24);
  b.set_next_word(cnt, b.inc_word(cnt));
  const GateId bad = b.reg("bad");
  b.set_next(bad, b.or_(bad, b.eq_const(cnt, (1u << 24) - 1)));
  b.output("bad", bad);
  return b.take();
}

TEST(ResourceOut, MemBudgetDegradesRunDeterministically) {
  // A 1 MiB budget is below any live process's footprint: the trip must be
  // deterministic, name the memory budget, and carry the RSS it saw — on
  // every run, which is what the CI negative self-check relies on.
  const Netlist n = slow_counter_netlist();
  for (int round = 0; round < 2; ++round) {
    RfnOptions opt;
    opt.budget_mem_mb = 1;
    const RfnResult res = run_property(n, n.output("bad"), opt);
    EXPECT_EQ(res.verdict, Verdict::ResourceOut) << "round " << round;
    ASSERT_TRUE(res.budget_trip.tripped) << "round " << round;
    EXPECT_EQ(res.budget_trip.reason, "mem-budget");
    EXPECT_GE(res.budget_trip.rss_bytes, int64_t{1} << 20);
    EXPECT_LT(res.seconds, 30.0);  // degradation must be prompt

    PropertyResult pr;
    pr.name = "bad";
    pr.verdict = res.verdict;
    pr.stats = res;
    const json::Value rec = property_json(pr);
    EXPECT_EQ(rec.find("verdict")->as_string(), "resource-out");
    EXPECT_EQ(rec.find_path("budget_trip.reason")->as_string(), "mem-budget");
    EXPECT_GE(rec.find_path("budget_trip.rss_bytes")->as_double(),
              static_cast<double>(int64_t{1} << 20));
  }
}

#ifdef RFN_CLI_PATH
std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// End-to-end --budget-mem-mb through the CLI on the committed slow design:
// exit 1 (resource-out is inconclusive, never a crash or a hang) and the
// tripped budget named in the rfn-trace-v2 property record.
TEST(ProfCli, MemBudgetTripNamedInTrace) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/slow24.v";
  const std::string trace = ::testing::TempDir() + "/trace_mem.jsonl";
  const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                          " --bad bad --budget-mem-mb 1" +
                          " --trace-json " + trace + " > /dev/null";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1) << cmd;

  std::string err;
  const json::Value prop = json::parse(read_first_line(trace), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(prop.find("type")->as_string(), "property");
  EXPECT_EQ(prop.find("verdict")->as_string(), "resource-out");
  EXPECT_EQ(prop.find_path("budget_trip.reason")->as_string(), "mem-budget");
  EXPECT_GE(prop.find_path("budget_trip.rss_bytes")->as_double(),
            static_cast<double>(int64_t{1} << 20));
  std::remove(trace.c_str());
}

// Golden check of what a run reports it cost, on the committed demo design:
// the rfn-trace-v2 batch summary carries the process CPU, the process's
// peak RSS and the BDD arena's peak bytes (the bdd.heap_bytes gauge), and
// trace_report.py --batch accepts the file.
TEST(ProfCli, ProfArtifactGoldenSchema) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/demo.v";
  const std::string trace = ::testing::TempDir() + "/trace_cost.jsonl";
  const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                          " --bad bad_q --trace-json " + trace + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(trace);
  std::string line, last;
  while (std::getline(in, line))
    if (!line.empty()) last = line;
  std::string err;
  const json::Value summary = json::parse(last, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(summary.find("type")->as_string(), "batch-summary");
  EXPECT_GT(summary.find("seconds")->as_double(), 0.0);
  ASSERT_NE(summary.find("cpu_ms"), nullptr);
  EXPECT_GT(summary.find("cpu_ms")->as_double(), 0.0);
  ASSERT_NE(summary.find("peak_rss_bytes"), nullptr);
  EXPECT_GT(summary.find("peak_rss_bytes")->as_double(), 0.0);
  for (const char* gone : {"workers", "engines", "portfolio", "rss"})
    EXPECT_EQ(summary.find(gone), nullptr) << gone;
  // The demo run exercises the BDD engine; its arena peak must be real.
  const json::Value* gauges = summary.find_path("metrics.gauges");
  ASSERT_NE(gauges, nullptr);
  const json::Value* heap = gauges->find("bdd.heap_bytes");
  ASSERT_NE(heap, nullptr);
  EXPECT_GT(heap->find("max")->as_double(), 0.0);
  EXPECT_GE(heap->find("max")->as_double(), heap->find("value")->as_double());

#ifdef RFN_TOOLS_DIR
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    std::remove(trace.c_str());
    GTEST_SKIP() << "python3 unavailable";
  }
  const std::string py_cmd = std::string("python3 ") + RFN_TOOLS_DIR +
                             "/trace_report.py --batch " + trace +
                             " > /dev/null";
  EXPECT_EQ(std::system(py_cmd.c_str()), 0) << py_cmd;
#endif  // RFN_TOOLS_DIR
  std::remove(trace.c_str());
}
#endif  // RFN_CLI_PATH

}  // namespace
}  // namespace rfn
