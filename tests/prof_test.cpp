// Resource-profiler tests (util/prof and its consumers): CPU clock
// monotonicity, byte-exact arena accounting in the BDD manager (tracked ==
// recomputed from the live containers), RssLog thinning
// with an exact peak, per-task executor CPU attribution, folded-stack self-time balance, the watchdog's memory
// budget, end-to-end --budget-mem-mb degradation to resource-out, and a
// golden check of the CLI's rfn-prof-v1 artifact cross-validated with
// tools/trace_report.py --prof when python3 is available.

#include <gtest/gtest.h>

#include <atomic>
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
#include "util/executor.hpp"
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

TEST(RssLog, PeakExactUnderThinningAndTimelineBounded) {
  prof::RssLog& log = prof::RssLog::global();
  log.enable();
  // 5x the capacity, with the spike at an index a doubled stride will skip:
  // the timeline must thin, the peak must survive exactly.
  constexpr int64_t kSpike = int64_t{1} << 40;
  const size_t n = prof::RssLog::kMaxSamples * 5;
  for (size_t i = 0; i < n; ++i)
    log.record(i == n / 2 + 3 ? kSpike : static_cast<int64_t>(i));
  log.disable();
  EXPECT_EQ(log.peak_bytes(), kSpike);
  const std::vector<prof::RssSample> samples = log.samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), prof::RssLog::kMaxSamples);
  for (size_t i = 1; i < samples.size(); ++i)
    EXPECT_GE(samples[i].t_ms, samples[i - 1].t_ms) << "sample " << i;
  for (const prof::RssSample& s : samples) EXPECT_LE(s.bytes, log.peak_bytes());
}

TEST(RssLog, DisabledRecordsNothingAndEnableResets) {
  prof::RssLog& log = prof::RssLog::global();
  log.enable();
  log.record(123);
  log.disable();
  log.record(1 << 30);  // dropped: disabled
  EXPECT_EQ(log.peak_bytes(), 123);
  EXPECT_EQ(log.sample(), 0);  // sample() is also a no-op when disabled
  log.enable();  // a new epoch drops the previous timeline
  EXPECT_EQ(log.peak_bytes(), 0);
  EXPECT_TRUE(log.samples().empty());
  log.disable();
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

TEST(ExecutorCpu, AccumulatesTaskCpuAcrossWorkers) {
  Executor exec(2);
  for (int i = 0; i < 4; ++i)
    exec.submit([] { burn_thread_cpu(2'000'000); });
  // Quiesce: enqueue nothing more and wait for the counter to reach the
  // total (each task adds its delta as it finishes).
  for (int spin = 0; spin < 2000 && exec.cpu_seconds() < 0.008; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(exec.cpu_seconds(), 0.008);  // 4 tasks x 2 ms
}

TEST(ExecutorCpu, InlineModeCountsToo) {
  Executor exec(0);  // no workers: submit() runs inline
  exec.submit([] { burn_thread_cpu(2'000'000); });
  EXPECT_GE(exec.cpu_seconds(), 0.002);
}

TEST(FoldedStacks, SelfTimesSumToRootDurationsPerThread) {
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
  const std::string folded = prof::folded_stacks(doc);

  // Parse "thread;frame;... <us>" lines.
  std::map<std::string, long long> self_us;
  std::istringstream in(folded);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    self_us[line.substr(0, space)] = std::stoll(line.substr(space + 1));
    ++lines;
  }
  ASSERT_GT(lines, 0u);
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
  for (const auto& [tid, total_us] : root_us) {
    ASSERT_TRUE(thread_names.count(tid));
    const std::string& prefix = thread_names[tid];
    long long folded_total = 0;
    for (const auto& [key, us] : self_us)
      if (key.rfind(prefix + ";", 0) == 0) folded_total += us;
    EXPECT_NEAR(static_cast<double>(folded_total), total_us,
                static_cast<double>(lines) + 1.0)
        << "thread " << prefix;
  }
}

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
  EXPECT_STREQ(dog.trip_reason(), "mem-budget");
  EXPECT_GE(dog.trip_rss_bytes(), int64_t{1} << 20);
}

TEST(Watchdog, SampleRssAloneNeverTrips) {
  prof::RssLog::global().enable();
  CancelToken token;
  WatchdogOptions opt;
  opt.sample_rss = true;  // no budgets: the monitor runs purely as sampler
  opt.poll_interval_s = 0.005;
  Watchdog dog(opt, &token);
  dog.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  dog.stop();
  prof::RssLog::global().disable();
  EXPECT_FALSE(dog.tripped());
  EXPECT_FALSE(token.cancelled());
  const std::vector<prof::RssSample> samples = prof::RssLog::global().samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_GT(samples.front().bytes, 0);
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

json::Value parse_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  json::Value doc = json::parse(buf.str(), &err);
  EXPECT_TRUE(err.empty()) << path << ": " << err;
  return doc;
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

// Golden check of the rfn-prof-v1 artifact and the folded-stack export on
// the committed demo design, cross-validated with trace_report.py --prof.
TEST(ProfCli, ProfArtifactGoldenSchema) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/demo.v";
  const std::string prof = ::testing::TempDir() + "/prof.json";
  const std::string folded = ::testing::TempDir() + "/prof.folded";
  const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                          " --bad bad_q --prof-json " + prof +
                          " --prof-folded " + folded + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const json::Value doc = parse_file(prof);
  EXPECT_EQ(doc.find("format")->as_string(), "rfn-prof-v1");
  EXPECT_GT(doc.find("wall_ms")->as_double(), 0.0);
  EXPECT_GT(doc.find("total_cpu_ms")->as_double(), 0.0);
  for (const char* gone : {"workers", "engines", "portfolio"})
    EXPECT_EQ(doc.find(gone), nullptr) << gone;
  EXPECT_EQ(doc.find_path("subsystems.sat"), nullptr);
  // The demo run exercises the BDD engine; its arena peak must be real.
  EXPECT_GT(doc.find_path("subsystems.bdd.peak_bytes")->as_double(), 0.0);
  EXPECT_GE(doc.find_path("subsystems.bdd.peak_bytes")->as_double(),
            doc.find_path("subsystems.bdd.live_bytes")->as_double());
  EXPECT_GT(doc.find_path("rss.peak_bytes")->as_double(), 0.0);
  ASSERT_NE(doc.find_path("rss.samples"), nullptr);
  EXPECT_FALSE(doc.find_path("rss.samples")->items().empty());

  // The folded export: every line is "thread;frame[;frame...] <integer>".
  std::ifstream fin(folded);
  std::string line;
  size_t folded_lines = 0;
  while (std::getline(fin, line)) {
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NE(line.find(';'), std::string::npos) << line;
    EXPECT_GE(std::stoll(line.substr(space + 1)), 0) << line;
    ++folded_lines;
  }
  EXPECT_GT(folded_lines, 0u);

#ifdef RFN_TOOLS_DIR
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    std::remove(prof.c_str());
    std::remove(folded.c_str());
    GTEST_SKIP() << "python3 unavailable";
  }
  const std::string py_cmd = std::string("python3 ") + RFN_TOOLS_DIR +
                             "/trace_report.py --prof " + prof +
                             " > /dev/null";
  EXPECT_EQ(std::system(py_cmd.c_str()), 0) << py_cmd;
#endif  // RFN_TOOLS_DIR
  std::remove(prof.c_str());
  std::remove(folded.c_str());
}
#endif  // RFN_CLI_PATH

}  // namespace
}  // namespace rfn
