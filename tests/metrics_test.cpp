// Metrics registry tests: concurrent counter increments from executor
// threads, scoped-timer nesting, JSON serialization round-trips, and a
// golden-schema check of the CLI's --trace-json event trace on a committed
// design (the CLI binary path is injected as RFN_CLI_PATH at compile time).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/executor.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rfn {
namespace {

TEST(Metrics, ConcurrentCounterIncrements) {
  Counter& c = MetricsRegistry::global().counter("test.concurrent");
  c.reset();
  constexpr uint64_t kJobs = 64;
  constexpr uint64_t kAddsPerJob = 1000;
  {
    Executor exec(4);
    for (uint64_t j = 0; j < kJobs; ++j)
      exec.submit([&c] {
        for (uint64_t i = 0; i < kAddsPerJob; ++i) c.add(1);
      });
    // ~Executor drains the queue and joins the workers.
  }
  EXPECT_EQ(c.value(), kJobs * kAddsPerJob);
}

TEST(Metrics, RegistryReferencesSurviveReset) {
  MetricsRegistry reg;
  Counter& c = reg.counter("alpha");
  c.add(41);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // the cached reference still points at the live counter
  EXPECT_EQ(reg.counter("alpha").value(), 1u);
}

TEST(Metrics, GaugeLevelAndHighWaterMark) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("nodes");
  g.set(10);
  g.set(3);
  g.record_max(7);  // below the mark: no effect on either
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 10);
}

TEST(Metrics, TimerNesting) {
  MetricsRegistry reg;
  Timer& outer = reg.timer("outer");
  Timer& inner = reg.timer("inner");
  {
    const Stopwatch outer_watch;
    {
      const Stopwatch inner_watch;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      inner.record(inner_watch.seconds());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    outer.record(outer_watch.seconds());
  }
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_EQ(inner.count(), 1u);
  // The outer scope strictly contains the inner one.
  EXPECT_GT(outer.total_seconds(), inner.total_seconds());
  EXPECT_GT(inner.total_seconds(), 0.0);
}

TEST(Metrics, SnapshotFlattensAndDeltas) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(7);
  reg.timer("t").record(0.25);
  const MetricsSnapshot before = reg.snapshot();
  EXPECT_EQ(before.value("c"), 5.0);
  EXPECT_EQ(before.value("g"), 7.0);
  EXPECT_EQ(before.value("g.max"), 7.0);
  EXPECT_EQ(before.value("t.count"), 1.0);
  EXPECT_NEAR(before.value("t.seconds"), 0.25, 1e-9);
  EXPECT_EQ(before.value("missing", -1.0), -1.0);

  reg.counter("c").add(3);
  reg.timer("t").record(0.25);
  const MetricsSnapshot d = reg.snapshot().delta(before);
  EXPECT_EQ(d.value("c"), 3.0);
  EXPECT_EQ(d.value("t.count"), 1.0);
  EXPECT_NEAR(d.value("t.seconds"), 0.25, 1e-9);
}

TEST(Metrics, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("engine.calls").add(1234567);
  reg.gauge("engine.peak").set(42);
  reg.gauge("engine.peak").record_max(99);
  reg.timer("engine.race").record(1.5);
  const json::Value doc = reg.to_json();

  // Compact and pretty forms parse back to the identical document.
  for (const int indent : {-1, 2}) {
    std::string err;
    const json::Value parsed = json::parse(doc.dump(indent), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(parsed == doc) << "indent=" << indent;
  }

  // Dotted metric names collide with dotted-path hops, so look the flat
  // keys up through the nested objects rather than via find_path.
  ASSERT_NE(doc.find("counters"), nullptr);
  const json::Value* calls = doc.find("counters")->find("engine.calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(calls->as_uint(), 1234567u);
  const json::Value* peak = doc.find("gauges")->find("engine.peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->find("value")->as_uint(), 42u);
  EXPECT_EQ(peak->find("max")->as_uint(), 99u);
  const json::Value* race = doc.find("timers")->find("engine.race");
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->find("count")->as_uint(), 1u);
  EXPECT_NEAR(race->find("seconds")->as_double(), 1.5, 1e-9);
}

TEST(Metrics, BaselineRelativeJson) {
  MetricsRegistry reg;
  reg.counter("runs").add(1);
  reg.gauge("level").set(10);
  reg.timer("race").record(2.0);
  const MetricsSnapshot baseline = reg.snapshot();

  reg.counter("runs").add(1);
  reg.gauge("level").set(4);
  reg.timer("race").record(0.5);
  const json::Value doc = reg.to_json(&baseline);

  // Counters and timer totals are baseline-subtracted; gauges report the
  // current level (a level is not a difference).
  EXPECT_EQ(doc.find("counters")->find("runs")->as_uint(), 1u);
  EXPECT_EQ(doc.find("gauges")->find("level")->find("value")->as_uint(), 4u);
  const json::Value* race = doc.find("timers")->find("race");
  EXPECT_EQ(race->find("count")->as_uint(), 1u);
  EXPECT_NEAR(race->find("seconds")->as_double(), 0.5, 1e-9);

  // A baseline above the current value (registry reset between snapshot and
  // serialization) clamps to zero instead of going negative.
  reg.counter("runs").reset();
  EXPECT_EQ(reg.to_json(&baseline).find("counters")->find("runs")->as_uint(),
            0u);
}

TEST(Metrics, EpochGuardSnapshotsAndIncrements) {
  MetricsRegistry reg;
  reg.counter("work").add(7);
  const uint64_t before = reg.epoch();
  const MetricsEpoch epoch(reg);
  EXPECT_EQ(epoch.id(), before + 1);
  EXPECT_EQ(reg.epoch(), before + 1);
  EXPECT_EQ(epoch.baseline().value("work"), 7.0);
  // Distinct guards get distinct ids — two runs can never share an epoch.
  const MetricsEpoch other(reg);
  EXPECT_NE(other.id(), epoch.id());
}

TEST(Json, LargeCountersKeepExactIntegerForm) {
  // Counters are doubles in the document model; integers below 2^53 must
  // print without exponent or fraction so golden diffs stay byte-stable.
  json::Value v = json::Value::object();
  v.set("n", uint64_t{9007199254740992ull >> 1});
  EXPECT_EQ(v.dump(), "{\"n\":4503599627370496}");
}

TEST(Json, ParserRejectsTrailingGarbage) {
  std::string err;
  const json::Value v = json::parse("{\"a\":1} x", &err);
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(err.empty());
}

#ifdef RFN_CLI_PATH
// Golden-schema check: run the real CLI on the committed demo design and
// validate the --trace-json document shape (the property record, one
// iteration record per CEGAR iteration, then the batch summary carrying the
// registry dump).
TEST(TraceJson, CliGoldenSchema) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/demo.v";
  const std::string out = ::testing::TempDir() + "/trace.jsonl";
  const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                          " --bad bad_q --trace-json " + out + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(out);
  ASSERT_TRUE(in.is_open()) << out;
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string err;
    lines.push_back(json::parse(line, &err));
    ASSERT_TRUE(err.empty()) << err << " in: " << line;
  }
  // The property, at least one iteration, and the summary.
  ASSERT_GE(lines.size(), 3u);
  const size_t iterations = lines.size() - 2;

  const json::Value& prop = lines.front();
  ASSERT_EQ(prop.find("type")->as_string(), "property");
  EXPECT_EQ(prop.find("name")->as_string(), "bad_q");
  EXPECT_EQ(prop.find("verdict")->as_string(), "T");  // demo.v holds
  EXPECT_EQ(prop.find("iterations")->as_uint(), iterations);

  for (size_t i = 0; i < iterations; ++i) {
    const json::Value& it = lines[i + 1];
    ASSERT_EQ(it.find("type")->as_string(), "iteration") << "line " << i;
    EXPECT_EQ(it.find("property")->as_string(), "bad_q");
    EXPECT_EQ(it.find("iter")->as_uint(), i);
    for (const char* key : {"abstraction", "reach", "bdd", "hybrid",
                            "concretize", "refine"})
      ASSERT_NE(it.find(key), nullptr) << key << " missing at line " << i;
    for (const char* key : {"sat", "pdr", "engines"})
      EXPECT_EQ(it.find(key), nullptr) << key << " present at line " << i;
    EXPECT_GE(it.find_path("abstraction.regs")->as_uint(), 1u);
    EXPECT_GT(it.find_path("bdd.peak_nodes")->as_uint(), 0u);
    ASSERT_NE(it.find_path("refine.final_count"), nullptr);
    ASSERT_NE(it.find_path("reach.seconds"), nullptr);
    EXPECT_GE(it.find_path("reach.seconds")->as_double(), 0.0);
    ASSERT_NE(it.find_path("concretize.seconds"), nullptr);
    EXPECT_FALSE(it.find_path("reach.status")->as_string().empty());
  }

  const json::Value& summary = lines.back();
  ASSERT_EQ(summary.find("type")->as_string(), "batch-summary");
  EXPECT_EQ(summary.find("trace_version")->as_string(), "rfn-trace-v2");
  EXPECT_EQ(summary.find("properties")->as_uint(), 1u);
  const json::Value* metrics = summary.find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* key : {"counters", "gauges", "timers"})
    ASSERT_NE(metrics->find(key), nullptr) << key;
  // The run must have recorded its CEGAR iterations and its reaches.
  EXPECT_EQ(metrics->find("counters")->find("rfn.iterations")->as_uint(),
            iterations);
  EXPECT_GE(metrics->find("counters")->find("mc.reach.calls")->as_uint(), 1u);
  std::remove(out.c_str());
}

// The paper-scale Table 1 processor is a builtin like the small designs:
// the CLI verifies and certifies both of its properties, and the batch
// summary counts the sequential ATPG questions refuted before any view.
TEST(TraceJson, CliVerifiesPaperScaleProcessor) {
  const std::string trace = ::testing::TempDir() + "/paper.jsonl";
  const std::string out = ::testing::TempDir() + "/paper.out";
  const std::string cmd = std::string(RFN_CLI_PATH) +
                          " verify builtin:processor@paper --bad bad_mutex --bad error_flag"
                          " --certify --trace-json " + trace + " > " + out;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream in(out);
  std::stringstream report;
  report << in.rdbuf();
  EXPECT_NE(report.str().find("regs=4968"), std::string::npos) << report.str();
  EXPECT_NE(report.str().find("certificate: OK bad_mutex"), std::string::npos);
  EXPECT_NE(report.str().find("certificate: OK error_flag"), std::string::npos);

  std::ifstream lines(trace);
  std::string line, last;
  while (std::getline(lines, line))
    if (!line.empty()) last = line;
  std::string err;
  const json::Value summary = json::parse(last, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(summary.find_path("verdicts.T")->as_uint(), 1u);
  EXPECT_EQ(summary.find_path("verdicts.F")->as_uint(), 1u);
  const json::Value* counters = summary.find_path("metrics.counters");
  ASSERT_NE(counters, nullptr);
  const uint64_t early = counters->find("atpg.seq.refuted_early")->as_uint();
  EXPECT_GT(early, 0u);
  EXPECT_LE(early, counters->find("atpg.seq.unsat")->as_uint());
  std::remove(trace.c_str());
  std::remove(out.c_str());
}

// The flags of the old single-property path are refused as usage errors
// rather than ignored: --cert-out used to imply certification, so a silent
// exit 0 would read as a certified verdict.
TEST(TraceJson, CliRejectsRemovedFlags) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/demo.v";
  const std::string out = ::testing::TempDir() + "/removed_flag.out";
  for (const char* flag :
       {"--cert-out x.json", "--aiger-witness x.wit", "--batch",
        "--prof-json x.json", "--prof-folded x.folded", "--metrics",
        "--no-reuse", "--budget-ms 150"}) {
    const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                            " --bad bad_q " + flag + " > /dev/null 2> " + out;
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(WEXITSTATUS(rc), 2) << cmd;
    std::ifstream in(out);
    std::stringstream err;
    err << in.rdbuf();
    EXPECT_NE(err.str().find("was removed"), std::string::npos) << err.str();
  }
  // Knobs deleted with their mechanism are plain unknown flags.
  for (const char* flag :
       {"--no-approx", "--traces 2", "--proof-shrink", "--workers 4",
        "--engine bdd", "--pdr-max-frames 64", "--pdr-time 5",
        "--cluster-overlap 0", "--max-cluster 4"}) {
    const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                            " --bad bad_q " + flag + " > /dev/null 2> " + out;
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(WEXITSTATUS(rc), 2) << cmd;
    std::ifstream in(out);
    std::stringstream err;
    err << in.rdbuf();
    EXPECT_NE(err.str().find("unknown flag"), std::string::npos) << err.str();
  }
  std::remove(out.c_str());
}

// Per-property overrides are validated like the flags they override: each
// bad --props line is a usage error naming the line, and a negative count
// is refused at parse time instead of wrapping to 2^64-1.
TEST(TraceJson, CliRejectsInvalidPropsOverrides) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/demo.v";
  const std::string props = ::testing::TempDir() + "/bad_overrides.props";
  const std::string out = ::testing::TempDir() + "/bad_overrides.out";
  for (const char* line : {"bad_q max-iterations=0", "bad_q budget-bdd-nodes=-5",
                           "bad_q max-iterations=-1"}) {
    std::ofstream(props) << line << "\n";
    const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                            " --props " + props + " > /dev/null 2> " + out;
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(WEXITSTATUS(rc), 2) << line;
    std::ifstream in(out);
    std::stringstream err;
    err << in.rdbuf();
    EXPECT_NE(err.str().find("props line 1"), std::string::npos)
        << line << ": " << err.str();
  }
  std::remove(props.c_str());
  std::remove(out.c_str());
}

// Flags are as strict as rfn-req-v1 keys: a misspelled flag or a value that
// fails its knob's type is a usage error naming the flag, not a run with
// the default (or with strtod's 0).
TEST(TraceJson, CliRejectsUnknownFlagsAndBadValues) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/demo.v";
  const std::string out = ::testing::TempDir() + "/bad_flag.out";
  const std::pair<const char*, const char*> cases[] = {
      {"--time-limt 5", "time-limt"},
      {"--time-limit abc", "time-limit"},
      {"--max-iterations 1.7", "max-iterations"},
      {"--max-iterations -1", "max-iterations"},
      {"--max-iterations 0", "max-iterations"},
  };
  for (const auto& [flags, named] : cases) {
    const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                            " --bad bad_q " + flags + " > /dev/null 2> " + out;
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(WEXITSTATUS(rc), 2) << flags;
    std::ifstream in(out);
    std::stringstream err;
    err << in.rdbuf();
    EXPECT_NE(err.str().find(named), std::string::npos)
        << flags << ": " << err.str();
  }
  std::remove(out.c_str());
}
#endif  // RFN_CLI_PATH

}  // namespace
}  // namespace rfn
