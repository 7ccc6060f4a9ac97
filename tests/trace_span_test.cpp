// Span tracer + budget tests: ring-buffer balance under overflow, the
// watchdog's no-budget no-op, end-to-end resource-out degradation of the
// verifier under its wall and BDD-node budgets, the
// rfn-trace-v2 record edge cases, metrics-epoch run isolation, and a
// golden-schema check of the CLI's --trace-spans Chrome trace export
// (cross-validated with tools/trace_report.py when python3 is available).

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bdd/bdd.hpp"
#include "core/rfn.hpp"
#include "core/trace_json.hpp"
#include "netlist/builder.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace rfn {
namespace {

// The tracer is process-global; every test starts its own trace epoch and
// disables on exit so tests stay independent.
struct TracerGuard {
  explicit TracerGuard(size_t capacity = 1u << 12) {
    SpanTracer::global().enable(capacity);
  }
  ~TracerGuard() { SpanTracer::global().disable(); }
};

struct EventCounts {
  int begins = 0, ends = 0, flows_out = 0, flows_in = 0, instants = 0;
};

EventCounts count_events(const json::Value& doc,
                         const std::string& name = std::string()) {
  EventCounts c;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    if (!name.empty() && e.find("name")->as_string() != name) continue;
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "B") ++c.begins;
    if (ph == "E") ++c.ends;
    if (ph == "s") ++c.flows_out;
    if (ph == "f") ++c.flows_in;
    if (ph == "i") ++c.instants;
  }
  return c;
}

/// Per-tid B/E balance and monotonic timestamps — the exporter's contract.
void expect_well_formed(const json::Value& doc) {
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  ASSERT_EQ(doc.find_path("otherData.trace_version")->as_string(),
            "rfn-spans-v1");
  std::map<uint64_t, int> depth;
  std::map<uint64_t, double> last_ts;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "M") continue;
    const uint64_t tid = e.find("tid")->as_uint();
    const double ts = e.find("ts")->as_double();
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]) << "tid " << tid;
    }
    last_ts[tid] = ts;
    if (ph == "B") ++depth[tid];
    if (ph == "E") {
      ASSERT_GT(depth[tid], 0) << "orphan end on tid " << tid;
      --depth[tid];
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
}

TEST(SpanTracer, DisabledRecordsNothing) {
  SpanTracer::global().disable();
  {
    Span s("never");
    s.annotate("k", 1.0);
  }
  SpanTracer::global().instant("never");
  TracerGuard guard;  // enable() drops all previous buffers
  const json::Value doc = SpanTracer::global().to_chrome_json();
  EXPECT_EQ(count_events(doc, "never").begins, 0);
  EXPECT_EQ(count_events(doc, "never").instants, 0);
}

TEST(SpanTracer, NestedSpansExportBalanced) {
  TracerGuard guard;
  {
    Span outer("outer");
    {
      Span inner("inner");
      inner.annotate("n", 42.0);
    }
  }
  SpanTracer::global().disable();
  const json::Value doc = SpanTracer::global().to_chrome_json();
  expect_well_formed(doc);
  EXPECT_EQ(count_events(doc, "outer").begins, 1);
  EXPECT_EQ(count_events(doc, "inner").begins, 1);
  // The annotation rides on the inner span's end event.
  bool found = false;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    if (e.find("name")->as_string() != "inner") continue;
    if (e.find("ph")->as_string() != "E") continue;
    ASSERT_NE(e.find_path("args.n"), nullptr);
    EXPECT_EQ(e.find_path("args.n")->as_double(), 42.0);
    found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(doc.find_path("otherData.dropped_events")->as_uint(), 0u);
}

// A sifting pass reports its work on its own span: the swaps it made and
// the journal rollbacks that replaced walks back.
TEST(SpanTracer, ReorderSpanCarriesSiftCounts) {
  TracerGuard guard;
  BddMgr mgr(8);
  Bdd f = mgr.bdd_true();
  for (BddVar i = 0; i < 4; ++i) f &= !(mgr.var(i) ^ mgr.var(i + 4));
  mgr.reorder_sift();
  SpanTracer::global().disable();
  ASSERT_GT(mgr.stats().sift_swaps, 0u);
  const json::Value doc = SpanTracer::global().to_chrome_json();
  size_t ends = 0;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    if (e.find("name")->as_string() != "bdd.reorder") continue;
    if (e.find("ph")->as_string() != "E") continue;
    ++ends;
    ASSERT_NE(e.find_path("args.sift_swaps"), nullptr);
    ASSERT_NE(e.find_path("args.sift_rollbacks"), nullptr);
    EXPECT_EQ(e.find_path("args.sift_swaps")->as_double(),
              static_cast<double>(mgr.stats().sift_swaps));
    EXPECT_EQ(e.find_path("args.sift_rollbacks")->as_double(),
              static_cast<double>(mgr.stats().sift_rollbacks));
  }
  EXPECT_EQ(ends, 1u);
}

TEST(SpanTracer, RingOverflowStaysBalancedAndCountsDropped) {
  TracerGuard guard(16);  // tiny ring: most of the stream is overwritten
  for (int i = 0; i < 200; ++i) Span s("churn");
  SpanTracer::global().disable();
  const json::Value doc = SpanTracer::global().to_chrome_json();
  expect_well_formed(doc);
  EXPECT_GT(doc.find_path("otherData.dropped_events")->as_uint(), 0u);
  const EventCounts c = count_events(doc, "churn");
  EXPECT_EQ(c.begins, c.ends);
  EXPECT_GT(c.begins, 0);
}

TEST(SpanTracer, UnclosedSpanGetsSynthesizedEnd) {
  TracerGuard guard;
  SpanTracer::global().begin("open");  // deliberately never ended
  SpanTracer::global().disable();
  const json::Value doc = SpanTracer::global().to_chrome_json();
  expect_well_formed(doc);  // balance restored by the synthesized end
  EXPECT_EQ(count_events(doc, "open").begins, 1);
  EXPECT_EQ(count_events(doc, "(unclosed)").ends, 1);
}

TEST(SpanTracer, InternDeduplicates) {
  SpanTracer& t = SpanTracer::global();
  const char* a = t.intern("engine-x");
  const char* b = t.intern("engine-x");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "engine-x");
  EXPECT_NE(t.intern("engine-y"), a);
}

TEST(Watchdog, NoBudgetNeverStartsOrTrips) {
  CancelToken token;
  Watchdog dog(WatchdogOptions{}, &token);
  dog.start();  // no budget: no monitor thread
  dog.stop();
  dog.stop();  // idempotent
  EXPECT_FALSE(dog.tripped());
  EXPECT_FALSE(token.cancelled());
}

/// 24-bit free-running counter: bad fires only at the terminal count, so
/// every engine needs ~2^24 steps of work and the run reliably outlives a
/// small budget (the committed tests/data/slow24.v is the same design).
Netlist slow_counter_netlist() {
  NetBuilder b;
  const Word cnt = b.reg_word("cnt", 24);
  b.set_next_word(cnt, b.inc_word(cnt));
  const GateId bad = b.reg("bad");
  b.set_next(bad, b.or_(bad, b.eq_const(cnt, (1u << 24) - 1)));
  b.output("bad", bad);
  return b.take();
}

/// Small bounded counter whose property holds: cnt wraps at 5, bad is
/// cnt == 7 (mirrors tests/data/demo.v at the library level).
Netlist holds_netlist() {
  NetBuilder b;
  const GateId req = b.input("req");
  const Word cnt = b.reg_word("cnt", 3);
  const Word next = b.mux_word(b.eq_const(cnt, 5), b.inc_word(cnt),
                               b.constant_word(0, 3));
  b.set_next_word(cnt, b.mux_word(req, cnt, next));
  const GateId bad = b.reg("bad");
  b.set_next(bad, b.or_(bad, b.eq_const(cnt, 7)));
  b.output("bad", bad);
  return b.take();
}

/// A run result as the session result the rfn-trace-v2 records describe.
PropertyResult as_property(const RfnResult& res) {
  PropertyResult r;
  r.name = "bad";
  r.verdict = res.verdict;
  r.trace = res.error_trace;
  r.stats = res;
  return r;
}

/// `v` without its wall-clock fields: what two runs of one trajectory share.
json::Value without_timing(const json::Value& v) {
  if (!v.is_object()) return v;
  json::Value o = json::Value::object();
  for (const auto& [key, member] : v.members())
    if (key != "seconds" && key != "at_seconds" && key != "cpu_ms")
      o.set(key, without_timing(member));
  return o;
}

TEST(ResourceOut, WallBudgetDegradesRun) {
  const Netlist n = slow_counter_netlist();
  RfnOptions opt;
  opt.time_limit_s = 0.120;
  const RfnResult res = run_property(n, n.output("bad"), opt);
  EXPECT_EQ(res.verdict, Verdict::ResourceOut);
  ASSERT_TRUE(res.budget_trip.tripped);
  EXPECT_EQ(res.budget_trip.reason, "wall-budget");
  EXPECT_GE(res.budget_trip.at_seconds, 0.120);
  // Degradation must be prompt: cancellation is cooperative, but every
  // engine polls at step boundaries.
  EXPECT_LT(res.seconds, 30.0);

  // The property record carries the trip in the JSONL trace format.
  const json::Value rec = property_json(as_property(res));
  EXPECT_EQ(rec.find("verdict")->as_string(), "resource-out");
  ASSERT_NE(rec.find("budget_trip"), nullptr);
  EXPECT_EQ(rec.find_path("budget_trip.reason")->as_string(), "wall-budget");
}

TEST(ResourceOut, NodeBudgetDegradesRunAndAnnotatesSpans) {
  TracerGuard guard;
  const Netlist n = slow_counter_netlist();
  RfnOptions opt;
  opt.budget_bdd_nodes = 2000;  // well below the run's natural peak
  const RfnResult res = run_property(n, n.output("bad"), opt);
  SpanTracer::global().disable();
  EXPECT_EQ(res.verdict, Verdict::ResourceOut);
  ASSERT_TRUE(res.budget_trip.tripped);
  EXPECT_EQ(res.budget_trip.reason, "bdd-node-budget");
  EXPECT_GE(res.budget_trip.bdd_nodes, 2000);

  // The span trace carries the budget-trip instant with the same reason.
  const json::Value doc = SpanTracer::global().to_chrome_json();
  expect_well_formed(doc);
  bool trip_seen = false;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    if (e.find("name")->as_string() != "budget-trip") continue;
    EXPECT_EQ(e.find("ph")->as_string(), "i");
    EXPECT_EQ(e.find_path("args.reason")->as_string(), "bdd-node-budget");
    trip_seen = true;
  }
  EXPECT_TRUE(trip_seen);
}

TEST(ResourceOut, OneAnswerPerWallOverrun) {
  // One wall-clock budget, one answer: a time-limit overrun is resource-out
  // naming the wall budget...
  const Netlist n = slow_counter_netlist();
  RfnOptions opt;
  opt.time_limit_s = 0.15;
  const RfnResult res = run_property(n, n.output("bad"), opt);
  EXPECT_EQ(res.verdict, Verdict::ResourceOut);
  ASSERT_TRUE(res.budget_trip.tripped);
  EXPECT_EQ(res.budget_trip.reason, "wall-budget");
  EXPECT_GE(res.budget_trip.at_seconds, 0.15);
  EXPECT_EQ(res.note, "budget exceeded: wall-budget");

  // ...and an external cancellation stays `?`, time limit or not.
  CancelToken external;
  external.cancel();
  opt.cancel = &external;
  const RfnResult cancelled = run_property(n, n.output("bad"), opt);
  EXPECT_EQ(cancelled.verdict, Verdict::Unknown);
  EXPECT_FALSE(cancelled.budget_trip.tripped);
  EXPECT_EQ(cancelled.note, "cancelled");
}

TEST(ResourceOut, ExternalStopInsideAnEngineReadsCancelled) {
  // An external token that fires while an engine runs (mostly the 24-bit
  // counter's fixpoint; on a loaded machine the walk or an ATPG call) stops
  // the run as `?` with the note "cancelled", the note of a stop between
  // iterations, not the engine's own resource note.
  const Netlist n = slow_counter_netlist();
  const CancelToken external(0.15);
  RfnOptions opt;
  opt.cancel = &external;
  const RfnResult res = run_property(n, n.output("bad"), opt);
  EXPECT_EQ(res.verdict, Verdict::Unknown);
  EXPECT_FALSE(res.budget_trip.tripped);
  EXPECT_EQ(res.note, "cancelled");
}

TEST(ResourceOut, NodeBudgetIsDeterministic) {
  // The node budget is each iteration manager's own cap, checked in line:
  // every run is refused at the same allocation, so repeats walk one
  // trajectory, and no manager ever holds more than the budget (sifting,
  // which the cap exempts, never starts below its 16k trigger).
  const Netlist n = slow_counter_netlist();
  RfnOptions opt;
  opt.budget_bdd_nodes = 2000;
  std::vector<std::vector<json::Value>> runs;
  for (int round = 0; round < 3; ++round) {
    const RfnResult res = run_property(n, n.output("bad"), opt);
    EXPECT_EQ(res.verdict, Verdict::ResourceOut) << "round " << round;
    EXPECT_EQ(res.budget_trip.reason, "bdd-node-budget") << "round " << round;
    EXPECT_EQ(res.budget_trip.bdd_nodes, 2000) << "round " << round;
    std::vector<json::Value> records{
        without_timing(property_json(as_property(res)))};
    for (size_t i = 0; i < res.per_iteration.size(); ++i) {
      EXPECT_LE(res.per_iteration[i].bdd_peak_nodes, 2000u)
          << "round " << round << " iteration " << i;
      records.push_back(
          without_timing(iteration_json("bad", i, res.per_iteration[i])));
    }
    runs.push_back(std::move(records));
  }
  for (size_t round = 1; round < runs.size(); ++round) {
    ASSERT_EQ(runs[round].size(), runs[0].size()) << "round " << round;
    for (size_t i = 0; i < runs[0].size(); ++i)
      EXPECT_TRUE(runs[round][i] == runs[0][i])
          << "round " << round << ": " << runs[round][i].dump() << " vs "
          << runs[0][i].dump();
  }
}

TEST(ResourceOut, VerdictBeforeTripIsKept) {
  // A run that finishes without tripping keeps its verdict even with
  // budgets armed.
  const Netlist n = holds_netlist();
  RfnOptions opt;
  opt.time_limit_s = 60.0;
  opt.budget_bdd_nodes = 1 << 24;
  const RfnResult res = run_property(n, n.output("bad"), opt);
  EXPECT_EQ(res.verdict, Verdict::Holds);
  EXPECT_FALSE(res.budget_trip.tripped);
}

TEST(ResourceOut, BatchBudgetShareTightensTimeLimit) {
  // The session's fair share of --batch-budget-ms tightens each property's
  // time limit, so each slow property stops on the wall budget.
  const Netlist n = slow_counter_netlist();
  SessionOptions so;
  so.defaults.time_limit_s = 60.0;
  so.batch_budget_ms = 200.0;
  VerifySession session(n, so);
  const std::vector<PropertyResult> res =
      session.run({{"a", n.output("bad"), {}}, {"b", n.output("bad"), {}}});
  ASSERT_EQ(res.size(), 2u);
  for (const PropertyResult& r : res) {
    EXPECT_EQ(r.verdict, Verdict::ResourceOut) << r.name;
    EXPECT_EQ(r.stats.budget_trip.reason, "wall-budget") << r.name;
    EXPECT_LT(r.stats.seconds, 30.0) << r.name;
  }
}

TEST(TraceJsonEdge, ZeroIterationRunWritesSummaryOnly) {
  // The time limit expires before the first iteration: the trace holds the
  // property record, resource-out with its wall-budget trip, and the batch
  // summary, and no iteration records.
  api::LoadedDesign design;
  design.netlist = holds_netlist();
  api::VerifyRequest req;
  req.options.time_limit_s = 0.0;
  api::CollectTraceSink sink;
  api::RunOutput out;
  std::string error;
  ASSERT_TRUE(api::run_verify(design, req, &sink, /*stream_properties=*/false,
                              &out, &error))
      << error;
  std::vector<json::Value> lines;
  for (const json::Value& rec : sink.records()) {
    std::string err;
    lines.push_back(json::parse(rec.dump(), &err));
    ASSERT_TRUE(err.empty()) << err;
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("type")->as_string(), "property");
  EXPECT_EQ(lines[0].find("verdict")->as_string(), "resource-out");
  EXPECT_EQ(lines[0].find("iterations")->as_uint(), 0u);
  ASSERT_NE(lines[0].find("budget_trip"), nullptr);
  EXPECT_EQ(lines[0].find_path("budget_trip.reason")->as_string(),
            "wall-budget");
  EXPECT_EQ(lines[1].find("type")->as_string(), "batch-summary");
  ASSERT_NE(lines[1].find("metrics"), nullptr);
}

TEST(TraceJsonEdge, ResourceOutSummarySchema) {
  RfnResult res;
  res.verdict = Verdict::ResourceOut;
  res.note = "budget exceeded: bdd-node-budget";
  res.budget_trip.tripped = true;
  res.budget_trip.reason = "bdd-node-budget";
  res.budget_trip.at_seconds = 1.25;
  res.budget_trip.bdd_nodes = 123456;
  const json::Value rec = property_json(as_property(res));
  EXPECT_EQ(rec.find("verdict")->as_string(), "resource-out");
  EXPECT_EQ(rec.find_path("budget_trip.reason")->as_string(),
            "bdd-node-budget");
  EXPECT_EQ(rec.find_path("budget_trip.bdd_nodes")->as_uint(), 123456u);
  EXPECT_NEAR(rec.find_path("budget_trip.at_seconds")->as_double(), 1.25,
              1e-9);
  // Round-trips through the parser.
  std::string err;
  const json::Value parsed = json::parse(rec.dump(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_TRUE(parsed == rec);
}

TEST(TraceJsonEdge, CacheHitRateZeroLookupsIsZero) {
  RfnIteration it;  // all-zero BDD stats: a run that died before any lookup
  const json::Value o = iteration_json("bad", 0, it);
  ASSERT_NE(o.find_path("bdd.cache_hit_rate"), nullptr);
  const double rate = o.find_path("bdd.cache_hit_rate")->as_double();
  EXPECT_FALSE(std::isnan(rate));
  EXPECT_EQ(rate, 0.0);
  // And the document survives a parse (NaN would not serialize as JSON).
  std::string err;
  json::parse(o.dump(), &err);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(MetricsEpoch, TwoRunsDoNotConflateSummaries) {
  const Netlist n = holds_netlist();
  const auto run_once = [&] {
    return run_property(n, n.output("bad"), RfnOptions{});
  };
  // Summaries are serialized at run end, like the CLI's --trace-json path:
  // the baseline subtraction scopes out *earlier* runs in the process.
  const auto summarize = [](const RfnResult& res) {
    return batch_summary_json({as_property(res)}, res.seconds,
                              res.cpu_seconds * 1e3, &res.metrics_baseline);
  };
  const RfnResult first = run_once();
  const json::Value first_summary = summarize(first);
  const RfnResult second = run_once();
  const json::Value second_summary = summarize(second);
  EXPECT_NE(first.metrics_epoch, second.metrics_epoch);

  // Each summary reports exactly one run's work even though the registry
  // accumulated both: rfn.runs is 1 in both, and each run's iteration
  // counter matches its own per_iteration size, not the sum.
  const struct {
    const json::Value* summary;
    const RfnResult* res;
  } runs[] = {{&first_summary, &first}, {&second_summary, &second}};
  for (const auto& [summary, res] : runs) {
    const json::Value* counters = summary->find_path("metrics.counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("rfn.runs")->as_uint(), 1u) << res->metrics_epoch;
    EXPECT_EQ(counters->find("rfn.iterations")->as_uint(),
              res->per_iteration.size());
  }

  // Without the baseline the registry conflates the runs — this is exactly
  // what the epoch guard exists to prevent in the summary.
  const json::Value raw = MetricsRegistry::global().to_json();
  EXPECT_GE(raw.find_path("counters")->find("rfn.runs")->as_uint(), 2u);
}

TEST(MetricsEpoch, SpanCountsCrossCheckRegistry) {
  // The tentpole's consistency requirement: spans and the metrics registry
  // must agree on engine activity. Every post_image call emits exactly one
  // "bdd.image" span begin and one mc.post_images increment.
  TracerGuard guard;
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const Netlist n = holds_netlist();
  const RfnResult res = run_property(n, n.output("bad"), RfnOptions{});
  SpanTracer::global().disable();
  ASSERT_EQ(res.verdict, Verdict::Holds);
  const MetricsSnapshot delta =
      MetricsRegistry::global().snapshot().delta(before);

  const json::Value doc = SpanTracer::global().to_chrome_json();
  expect_well_formed(doc);
  EXPECT_EQ(count_events(doc, "bdd.image").begins,
            static_cast<int>(delta.value("mc.post_images")));
  EXPECT_EQ(count_events(doc, "mc.reach").begins,
            static_cast<int>(delta.value("mc.reach.calls")));
  EXPECT_EQ(count_events(doc, "rfn.iteration").begins,
            static_cast<int>(delta.value("rfn.iterations")));
}

#ifdef RFN_CLI_PATH
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
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

// Golden-schema check of the CLI's span export on the committed demo
// design: Chrome-trace-format validity, one "main" track without flow
// events, wall-time agreement between the rfn.run span and the property
// record, and between the session.run span (as tools/trace_report.py
// reports it) and the batch summary, and the collapsed stacks of
// trace_report.py --folded, whose self times sum to the root-span
// durations. A second input, a processor suite with one HOLDS and one
// VIOLATED property, checks that the report prints one verdict per run and
// a non-empty iterations table.
TEST(TraceSpansCli, GoldenSchemaAndWallTimeAgreement) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/demo.v";
  const std::string spans = ::testing::TempDir() + "/spans.json";
  const std::string trace = ::testing::TempDir() + "/trace.jsonl";
  const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                          " --bad bad_q --trace-spans " + spans +
                          " --trace-json " + trace + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const json::Value doc = parse_file(spans);
  expect_well_formed(doc);

  // Every engine runs on the calling thread: the CLI's one "main" track
  // holds every span, and nothing crosses threads (no flow events).
  std::set<std::string> tracks;
  std::set<uint64_t> tids_with_spans;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "M") tracks.insert(e.find_path("args.name")->as_string());
    if (ph == "B") tids_with_spans.insert(e.find("tid")->as_uint());
  }
  EXPECT_EQ(tracks, std::set<std::string>{"main"});
  EXPECT_EQ(tids_with_spans.size(), 1u);
  EXPECT_GT(count_events(doc, "mc.reach").begins, 0);
  EXPECT_EQ(count_events(doc, "portfolio.race").begins, 0);
  EXPECT_EQ(count_events(doc).flows_out, 0);
  EXPECT_EQ(count_events(doc).flows_in, 0);

  // The rfn.run span must reproduce the property's wall time within 5%.
  double run_begin = -1.0, run_end = -1.0;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    if (e.find("name")->as_string() != "rfn.run") continue;
    if (e.find("ph")->as_string() == "B") run_begin = e.find("ts")->as_double();
    if (e.find("ph")->as_string() == "E") run_end = e.find("ts")->as_double();
  }
  ASSERT_GE(run_begin, 0.0);
  ASSERT_GT(run_end, run_begin);
  const double span_s = (run_end - run_begin) * 1e-6;

  const std::vector<std::string> trace_lines = read_lines(trace);
  ASSERT_GE(trace_lines.size(), 2u);
  std::string err;
  const json::Value prop = json::parse(trace_lines.front(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(prop.find("type")->as_string(), "property");
  const double prop_s = prop.find("seconds")->as_double();
  ASSERT_GT(prop_s, 0.0);
  // 5% relative plus a 2 ms absolute floor: demo.v runs in ~10 ms, where a
  // single scheduler hiccup between the span end and the Stopwatch read
  // would otherwise dominate the relative error.
  EXPECT_NEAR(span_s, prop_s, prop_s * 0.05 + 0.002);
  const json::Value summary = json::parse(trace_lines.back(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(summary.find("type")->as_string(), "batch-summary");
  const double summary_s = summary.find("seconds")->as_double();
  ASSERT_GE(summary_s, prop_s);

#ifdef RFN_TOOLS_DIR
  // trace_report.py must accept the file and reproduce the same total.
  const std::string report = ::testing::TempDir() + "/report.txt";
  const std::string py_cmd = std::string("python3 ") + RFN_TOOLS_DIR +
                             "/trace_report.py " + spans + " > " + report;
  const int py_rc = std::system(py_cmd.c_str());
  if (py_rc != 0) {
    GTEST_SKIP() << "python3 unavailable or trace_report failed (rc="
                 << py_rc << ")";
  }
  double reported_s = -1.0;
  for (const std::string& line : read_lines(report)) {
    if (line.rfind("total_wall_s=", 0) == 0)
      reported_s = std::atof(line.c_str() + std::string("total_wall_s=").size());
  }
  ASSERT_GT(reported_s, 0.0) << "total_wall_s line missing from report";
  EXPECT_NEAR(reported_s, summary_s, summary_s * 0.05 + 0.002);

  // Collapsed stacks: every line is "main;frame[;frame...] <self-us>", and
  // the lines sum to the root spans' durations (self = duration minus
  // children) within 1 us of rounding per line.
  const std::string folded_cmd = std::string("python3 ") + RFN_TOOLS_DIR +
                                 "/trace_report.py --folded " + spans + " > " +
                                 report;
  ASSERT_EQ(std::system(folded_cmd.c_str()), 0) << folded_cmd;
  long long folded_us = 0;
  size_t folded_lines = 0;
  for (const std::string& line : read_lines(report)) {
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("main;", 0), 0u) << line;
    const long long us = std::stoll(line.substr(space + 1));
    EXPECT_GE(us, 0) << line;
    folded_us += us;
    ++folded_lines;
  }
  ASSERT_GT(folded_lines, 0u);
  double root_us = 0.0, root_begin = 0.0;
  int depth = 0;
  for (const json::Value& e : doc.find("traceEvents")->items()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "B" && depth++ == 0) root_begin = e.find("ts")->as_double();
    if (ph == "E" && --depth == 0)
      root_us += e.find("ts")->as_double() - root_begin;
  }
  EXPECT_NEAR(static_cast<double>(folded_us), root_us,
              static_cast<double>(folded_lines) + 1.0);

  // A suite whose runs end in different verdicts: one verdict line per
  // rfn.run, and the iterations table grouped by run.
  const std::string suite_spans = ::testing::TempDir() + "/suite_spans.json";
  const std::string suite_cmd =
      std::string(RFN_CLI_PATH) +
      " verify builtin:processor --bad bad_mutex --bad error_flag" +
      " --trace-spans " + suite_spans + " > /dev/null";
  ASSERT_EQ(std::system(suite_cmd.c_str()), 0) << suite_cmd;
  const std::string suite_cmd_py = std::string("python3 ") + RFN_TOOLS_DIR +
                                   "/trace_report.py " + suite_spans + " > " +
                                   report;
  ASSERT_EQ(std::system(suite_cmd_py.c_str()), 0) << suite_cmd_py;
  bool holds_seen = false, fails_seen = false, in_iterations = false;
  size_t iteration_rows = 0;
  for (const std::string& line : read_lines(report)) {
    if (line.find("verdict=T") != std::string::npos) holds_seen = true;
    if (line.find("verdict=F") != std::string::npos) fails_seen = true;
    if (line.rfind("== ", 0) == 0) {
      in_iterations = line == "== iterations ==";
      continue;
    }
    // Rows start with the run index; the column header and blank lines
    // do not.
    if (in_iterations && !line.empty() &&
        line.find_first_not_of(' ') != std::string::npos &&
        std::isdigit(static_cast<unsigned char>(
            line[line.find_first_not_of(' ')])))
      ++iteration_rows;
  }
  EXPECT_TRUE(holds_seen) << "no verdict=T line for the HOLDS run";
  EXPECT_TRUE(fails_seen) << "no verdict=F line for the VIOLATED run";
  EXPECT_GT(iteration_rows, 0u) << "empty iterations table";
  std::remove(suite_spans.c_str());
  std::remove(report.c_str());
#endif  // RFN_TOOLS_DIR
  std::remove(spans.c_str());
  std::remove(trace.c_str());
}

// End-to-end resource-out through the CLI on the committed slow design:
// exit code 1, RESOURCE-OUT verdict, budget-trip annotation in both files.
TEST(TraceSpansCli, BudgetTripInBothTraceFormats) {
  const std::string design = std::string(RFN_TEST_DATA_DIR) + "/slow24.v";
  const std::string spans = ::testing::TempDir() + "/spans_ro.json";
  const std::string trace = ::testing::TempDir() + "/trace_ro.jsonl";
  const std::string cmd = std::string(RFN_CLI_PATH) + " verify " + design +
                          " --bad bad --time-limit 0.15" +
                          " --trace-spans " + spans + " --trace-json " +
                          trace + " > /dev/null";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1) << cmd;  // inconclusive verdicts exit 1

  const json::Value doc = parse_file(spans);
  expect_well_formed(doc);
  EXPECT_EQ(count_events(doc, "budget-trip").instants, 1);

  const std::vector<std::string> trace_lines = read_lines(trace);
  ASSERT_FALSE(trace_lines.empty());
  std::string err;
  const json::Value prop = json::parse(trace_lines.front(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(prop.find("type")->as_string(), "property");
  EXPECT_EQ(prop.find("verdict")->as_string(), "resource-out");
  EXPECT_EQ(prop.find_path("budget_trip.reason")->as_string(), "wall-budget");
  std::remove(spans.c_str());
  std::remove(trace.c_str());
}
#endif  // RFN_CLI_PATH

}  // namespace
}  // namespace rfn
