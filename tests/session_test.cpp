// Batch-session tests: options validation, the consolidated status strings,
// the cone-clustering compatibility view (every property is its own cluster,
// whatever the knobs hold), and — the acceptance check — every property of
// a batch walks the same trajectory as an independent run_property run, on
// CI's four builtin suites, inline and with session workers.

#include "core/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "api/api.hpp"
#include "core/status.hpp"
#include "core/trace_json.hpp"
#include "designs/fifo.hpp"
#include "designs/iu.hpp"
#include "netlist/analysis.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"

namespace rfn {
namespace {

bool any_error_contains(const std::vector<std::string>& errors,
                        const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

TEST(RfnOptionsValidate, DefaultsAreValid) {
  EXPECT_TRUE(RfnOptions{}.validate().empty());
}

TEST(RfnOptionsValidate, ReportsEveryProblemAtOnce) {
  RfnOptions opt;
  opt.max_iterations = 0;
  opt.budget_mem_mb = -1;
  opt.budget_bdd_nodes = -1;
  const auto errors = opt.validate();
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_TRUE(any_error_contains(errors, "max_iterations"));
  EXPECT_TRUE(any_error_contains(errors, "budget_mem_mb"));
  EXPECT_TRUE(any_error_contains(errors, "budget_bdd_nodes"));
}

TEST(RfnOptionsValidate, ZeroReachBudgets) {
  // The step limit is the one reach bound a run sets itself; nodes are the
  // manager's cap (budget_bdd_nodes) and wall time the run's token.
  RfnOptions opt;
  opt.max_reach_steps = 0;
  const auto errors = opt.validate();
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_TRUE(any_error_contains(errors, "max_reach_steps"));
}

TEST(StatusStrings, CanonicalSpellings) {
  // These strings are part of the rfn-trace-v2 schema — changing them
  // breaks every consumer (trace_report.py, bench_gate.py, the CI gate).
  EXPECT_STREQ(to_string(Verdict::Holds), "T");
  EXPECT_STREQ(to_string(Verdict::Fails), "F");
  EXPECT_STREQ(to_string(Verdict::Unknown), "?");
  EXPECT_STREQ(to_string(Verdict::ResourceOut), "resource-out");
  EXPECT_STREQ(to_string(ReachStatus::Proved), "proved");
  EXPECT_STREQ(to_string(ReachStatus::BadReachable), "bad-reachable");
  EXPECT_STREQ(to_string(ReachStatus::ResourceOut), "resource-out");
  EXPECT_STREQ(to_string(AtpgStatus::Sat), "sat");
  EXPECT_STREQ(to_string(AtpgStatus::Unsat), "unsat");
  EXPECT_STREQ(to_string(AtpgStatus::Abort), "abort");
}

// A 3-bit counter that counts 0..5 under an enable and wraps, with one
// reachable property (cnt == 3) and one unreachable one (cnt == 7) over the
// same register cone.
struct Counter {
  Netlist n;
  GateId bad_a, bad_b;
};

Counter make_counter() {
  NetBuilder b;
  const GateId en = b.input("en");
  const Word cnt = b.reg_word("cnt", 3, 0);
  const Word wrapped =
      b.mux_word(b.eq_const(cnt, 5), b.inc_word(cnt), b.constant_word(0, 3));
  b.set_next_word(cnt, b.mux_word(en, cnt, wrapped));
  Counter c;
  c.bad_a = b.eq_const(cnt, 3);
  c.bad_b = b.eq_const(cnt, 7);
  b.name(c.bad_a, "bad_a");
  b.name(c.bad_b, "bad_b");
  b.output("bad_a", c.bad_a);
  b.output("bad_b", c.bad_b);
  c.n = b.take();
  return c;
}

std::vector<size_t> abstract_regs_per_iteration(const RfnResult& r) {
  std::vector<size_t> v;
  for (const RfnIteration& it : r.per_iteration) v.push_back(it.abstract_regs);
  return v;
}

/// Expects each result of `batch` to walk the trajectory of a standalone
/// run_property run of its property under the session defaults: verdict,
/// iteration count, per-iteration abstraction size and final register set.
void expect_solo_trajectories(const Netlist& n, const SessionOptions& sopt,
                              const std::vector<PropertyRequest>& props,
                              const std::vector<PropertyResult>& batch) {
  ASSERT_EQ(batch.size(), props.size());
  for (size_t i = 0; i < props.size(); ++i) {
    const RfnResult solo =
        run_property(n, props[i].bad, merge_overrides(sopt.defaults, props[i].overrides));
    const RfnResult& got = batch[i].stats;
    EXPECT_EQ(batch[i].verdict, solo.verdict) << props[i].name;
    EXPECT_EQ(got.iterations, solo.iterations) << props[i].name;
    EXPECT_EQ(abstract_regs_per_iteration(got), abstract_regs_per_iteration(solo))
        << props[i].name;
    EXPECT_EQ(got.final_registers, solo.final_registers) << props[i].name;
    EXPECT_FALSE(batch[i].clustered) << props[i].name;
  }
}

/// The compatibility view VerifySession::clusters() gives of a batch of
/// `count` properties: one singleton per property, in request order.
std::vector<std::vector<size_t>> singletons(size_t count) {
  std::vector<std::vector<size_t>> v;
  for (size_t i = 0; i < count; ++i) v.push_back({i});
  return v;
}

std::vector<GateId> sorted_coi(const Netlist& n, GateId bad) {
  std::vector<GateId> cone = coi_registers(n, {bad});
  std::sort(cone.begin(), cone.end());
  return cone;
}

TEST(ConeClustering, IdenticalNestedOverlappingDisjoint) {
  // Five properties whose register cones are identical, nested, overlapping
  // and disjoint. The session never merges cones: each property is its own
  // cluster and walks its standalone trajectory, even with the clustering
  // knobs set to values that once merged the first three.
  NetBuilder b;
  const GateId t = b.reg("t");
  b.set_next(t, b.not_(t));  // 0,1,0,1,...
  const GateId u = b.reg("u");
  b.set_next(u, b.or_(u, t));  // rises once t has been 1
  const GateId w = b.reg("w");
  b.set_next(w, b.and_(w, t));  // stays 0
  const GateId v = b.reg("v");
  b.set_next(v, v);  // stays 0
  const GateId u_and_t = b.and_(u, t);
  const GateId t_and_w = b.and_(t, w);
  const Netlist n = b.take();

  const std::vector<PropertyRequest> props = {
      {"u", u, {}},              // cone {t, u}
      {"u_and_t", u_and_t, {}},  // identical to u's
      {"t", t, {}},              // nested in u's
      {"t_and_w", t_and_w, {}},  // overlaps u's in t
      {"v", v, {}},              // disjoint
  };
  EXPECT_EQ(sorted_coi(n, u), sorted_coi(n, u_and_t));
  EXPECT_EQ(sorted_coi(n, t).size(), 1u);
  EXPECT_EQ(sorted_coi(n, t_and_w).size(), 2u);
  EXPECT_NE(sorted_coi(n, t_and_w), sorted_coi(n, u));

  SessionOptions sopt;
  sopt.cluster_overlap = 0.5;
  sopt.max_cluster_size = 8;
  VerifySession session(n, sopt);
  const auto results = session.run(props);
  EXPECT_EQ(session.clusters(), singletons(props.size()));
  expect_solo_trajectories(n, sopt, props, results);
  const std::vector<Verdict> expected = {Verdict::Fails, Verdict::Fails,
                                         Verdict::Fails, Verdict::Holds,
                                         Verdict::Holds};
  for (size_t i = 0; i < props.size(); ++i)
    EXPECT_EQ(results[i].verdict, expected[i]) << props[i].name;
}

TEST(ConeClustering, RespectsMaxClusterSizeAndSolo) {
  // Four properties over one counter cone, one of them with its own
  // options: every cluster is a singleton (within any max_cluster_size),
  // and the property with overrides runs under its merged options.
  const Counter c = make_counter();
  Netlist n = c.n;
  // cnt == 3 and cnt == 7 at once: unreachable.
  const GateId both = n.add(GateType::And, {c.bad_a, c.bad_b});
  std::vector<PropertyRequest> props = {
      {"a", c.bad_a, {}}, {"b", c.bad_b, {}}, {"a2", c.bad_a, {}}, {"ab", both, {}}};
  props[1].overrides.max_iterations = 30;
  SessionOptions sopt;
  sopt.max_cluster_size = 2;
  VerifySession session(n, sopt);
  const auto results = session.run(props);
  const auto clusters = session.clusters();
  EXPECT_EQ(clusters, singletons(props.size()));
  for (const auto& cluster : clusters) EXPECT_LE(cluster.size(), 2u);
  expect_solo_trajectories(n, sopt, props, results);
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
  EXPECT_EQ(results[2].verdict, Verdict::Fails);
  EXPECT_EQ(results[3].verdict, Verdict::Holds);
}

TEST(ConeClustering, ThresholdZeroDisablesClustering) {
  // The overlap threshold no longer selects anything: at 0 and at 1 every
  // property runs solo, with the same results.
  const Counter c = make_counter();
  const std::vector<PropertyRequest> props = {
      {"a", c.bad_a, {}}, {"b", c.bad_b, {}}, {"a2", c.bad_a, {}}};
  std::vector<std::vector<PropertyResult>> runs;
  for (const double overlap : {0.0, 1.0}) {
    SessionOptions sopt;
    sopt.cluster_overlap = overlap;
    VerifySession session(c.n, sopt);
    runs.push_back(session.run(props));
    EXPECT_EQ(session.clusters(), singletons(props.size())) << overlap;
    expect_solo_trajectories(c.n, sopt, props, runs.back());
  }
  for (size_t i = 0; i < props.size(); ++i) {
    EXPECT_EQ(runs[0][i].verdict, runs[1][i].verdict) << props[i].name;
    EXPECT_EQ(runs[0][i].stats.final_registers, runs[1][i].stats.final_registers)
        << props[i].name;
  }
}

TEST(VerifySessionTest, AttributesFailureWithinCluster) {
  // bad_a and bad_b share one register cone; the counterexample belongs to
  // bad_a alone and replays to it on the design, while bad_b is proved.
  const Counter c = make_counter();
  VerifySession session(c.n, {});
  const auto results = session.run({{"", c.bad_a, {}}, {"", c.bad_b, {}}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(session.clusters(), singletons(2));
  EXPECT_EQ(results[0].name, "bad_a");
  EXPECT_EQ(results[1].name, "bad_b");
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
  EXPECT_FALSE(results[0].clustered);
  EXPECT_FALSE(results[1].clustered);
  ASSERT_GT(results[0].trace.cycles(), 0u);
  EXPECT_EQ(simulate_trace(c.n, results[0].trace, c.bad_a), Tri::T);
  EXPECT_EQ(simulate_trace(c.n, results[0].trace, c.bad_b), Tri::F);
  EXPECT_EQ(results[1].trace.cycles(), 0u);
}

TEST(VerifySessionTest, DisjointConesRunIndependently) {
  NetBuilder b;
  const GateId r1 = b.reg("toggler");
  b.set_next(r1, b.not_(r1));  // 0,1,0,1,... -> reachable
  const GateId r2 = b.reg("stuck");
  b.set_next(r2, r2);  // stays 0 -> unreachable
  b.output("bad1", r1);
  b.output("bad2", r2);
  const Netlist m = b.take();

  VerifySession session(m, {});
  const auto results = session.run({{"", r1, {}}, {"", r2, {}}});
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
}

TEST(VerifySessionTest, OverridesForceSoloRuns) {
  const Counter c = make_counter();
  PropertyRequest pa{"a", c.bad_a, {}};
  PropertyRequest pb{"b", c.bad_b, {}};
  pb.overrides.max_iterations = 30;
  SessionOptions sopt;
  sopt.defaults.max_iterations = 1;
  VerifySession session(c.n, sopt);
  const auto results = session.run({pa, pb});
  // Identical cones, but each property runs under its own merged options:
  // the same trajectory as a standalone run under those options.
  for (size_t i = 0; i < 2; ++i) {
    const PropertyRequest& p = i == 0 ? pa : pb;
    const RfnResult ref = run_property(
        c.n, p.bad, merge_overrides(sopt.defaults, p.overrides));
    EXPECT_EQ(results[i].verdict, ref.verdict) << p.name;
    EXPECT_EQ(results[i].stats.iterations, ref.iterations) << p.name;
  }
  EXPECT_EQ(results[0].stats.iterations, 1u);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
}

TEST(VerifySessionTest, EmptyBatch) {
  const Counter c = make_counter();
  VerifySession session(c.n, {});
  EXPECT_TRUE(session.run({}).empty());
}

TEST(VerifySessionTest, MatchesSingleRunsOnFifo) {
  // The acceptance cross-check, cross_engine_test style: the batch path and
  // the single-property compatibility path must report identical verdicts
  // for a four-property overlapping-cone suite — the FIFO's three occupancy
  // flags plus their disjunction ("some flag errs"), the composite any-error
  // line testbenches expose.
  designs::FifoDesign fifo = designs::make_fifo({.addr_bits = 2, .data_bits = 2});
  const GateId any = fifo.netlist.add(
      GateType::Or, {fifo.bad_push_full, fifo.bad_push_af, fifo.bad_push_hf});
  const std::vector<GateId> bads = {fifo.bad_push_full, fifo.bad_push_af,
                                    fifo.bad_push_hf, any};

  RfnOptions opt;
  opt.time_limit_s = 60.0;
  SessionOptions sopt;
  sopt.defaults = opt;
  VerifySession session(fifo.netlist, sopt);
  std::vector<PropertyRequest> props;
  for (GateId bad : bads) props.push_back({"", bad, {}});
  const auto batch = session.run(props);

  for (size_t i = 0; i < bads.size(); ++i) {
    const RfnResult ref = run_property(fifo.netlist, bads[i], opt);
    EXPECT_EQ(batch[i].verdict, ref.verdict) << "property " << batch[i].name;
    EXPECT_EQ(batch[i].verdict, Verdict::Holds);
  }
}

/// CI's four builtin suites, as tools/ci_dryrun.sh verifies them.
const std::vector<std::pair<std::string, std::vector<std::string>>>& ci_suites() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>> k = {
      {"fifo", {"bad_full_q", "bad_af_q", "bad_hf_q"}},
      {"processor", {"bad_mutex", "error_flag"}},
      {"iu", {"bad_dec", "iu0", "iu1", "iu2", "iu3", "iu4"}},
      {"usb", {"bad_se1", "usb1_0", "usb1_1", "usb2_0", "usb2_1"}},
  };
  return k;
}

TEST(VerifySessionTest, BatchEqualsSoloRuns) {
  // The batch oracle: every property of a session, inline or on two
  // workers, walks exactly the trajectory of a standalone run_property run
  // — verdict, iteration count, per-iteration abstraction size and final
  // register set.
  RfnOptions opt;
  opt.time_limit_s = 60.0;
  for (const auto& [name, signals] : ci_suites()) {
    api::DesignRef ref;
    ref.path = "builtin:" + name;
    api::LoadedDesign design;
    std::string error;
    ASSERT_TRUE(api::load_design(ref, &design, &error)) << error;
    std::vector<api::PropertySpec> specs;
    for (const std::string& s : signals) specs.push_back({s, "", {}, ""});
    std::vector<PropertyRequest> props;
    ASSERT_TRUE(api::resolve_properties(design.netlist, {}, specs, &props, &error))
        << error;
    std::vector<RfnResult> solo;
    for (const PropertyRequest& p : props)
      solo.push_back(run_property(design.netlist, p.bad, opt));
    for (const size_t workers : {size_t{0}, size_t{2}}) {
      SessionOptions sopt;
      sopt.defaults = opt;
      sopt.workers = workers;
      const auto batch = VerifySession(design.netlist, sopt).run(props);
      ASSERT_EQ(batch.size(), props.size());
      for (size_t i = 0; i < props.size(); ++i) {
        const std::string where =
            name + "/" + props[i].name + " workers=" + std::to_string(workers);
        const RfnResult& got = batch[i].stats;
        EXPECT_EQ(batch[i].verdict, solo[i].verdict) << where;
        EXPECT_EQ(got.iterations, solo[i].iterations) << where;
        EXPECT_EQ(abstract_regs_per_iteration(got),
                  abstract_regs_per_iteration(solo[i]))
            << where;
        EXPECT_EQ(got.final_registers, solo[i].final_registers) << where;
      }
    }
  }
}

TEST(VerifySessionTest, IuCoverageRegistersShareOneCluster) {
  // The IU control is strongly connected: coverage registers from different
  // sets have identical COIs (designs_test asserts this), so as properties
  // they share one register cone. Each is still answered by its own run,
  // on its standalone trajectory.
  const designs::IuDesign iu = designs::make_iu({});
  std::vector<PropertyRequest> props;
  for (size_t k = 0; k < 4; ++k)
    props.push_back({"iu" + std::to_string(k), iu.coverage_sets[k][0], {}});
  for (size_t k = 1; k < props.size(); ++k)
    EXPECT_EQ(sorted_coi(iu.netlist, props[k].bad),
              sorted_coi(iu.netlist, props[0].bad));
  SessionOptions sopt;
  sopt.defaults.time_limit_s = 60.0;
  VerifySession session(iu.netlist, sopt);
  const auto results = session.run(props);
  EXPECT_EQ(session.clusters(), singletons(props.size()));
  expect_solo_trajectories(iu.netlist, sopt, props, results);
}

/// Runs `signals` of `n` through api::run_verify and returns the records
/// the file sink would write (stream = false) or the server would stream.
std::vector<json::Value> run_trace(const Netlist& n,
                                   const std::vector<std::string>& signals,
                                   bool stream) {
  api::LoadedDesign design;
  design.netlist = n;
  api::VerifyRequest req;
  for (const std::string& s : signals) req.props.push_back({s, s, {}, ""});
  api::CollectTraceSink sink;
  api::RunOutput out;
  std::string error;
  EXPECT_TRUE(api::run_verify(design, req, &sink, stream, &out, &error))
      << error;
  return sink.records();
}

std::string type_of(const json::Value& rec) {
  return rec.find("type")->as_string();
}

/// Every property record of `records` is followed by exactly its own
/// `iterations` iteration records, numbered from 0. Returns the number of
/// property records.
size_t check_iterations_follow_properties(const std::vector<json::Value>& records) {
  size_t props = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (type_of(records[i]) != "property") continue;
    ++props;
    const size_t iterations = records[i].find("iterations")->as_uint();
    EXPECT_GE(iterations, 1u);
    if (i + iterations >= records.size()) {
      ADD_FAILURE() << "property record " << i << " runs past the trace";
      break;
    }
    for (size_t k = 0; k < iterations; ++k) {
      const json::Value& it = records[i + 1 + k];
      if (type_of(it) != "iteration") {
        ADD_FAILURE() << "record " << i + 1 + k << " is not an iteration";
        return props;
      }
      EXPECT_EQ(it.find("property")->as_string(),
                records[i].find("name")->as_string());
      EXPECT_EQ(it.find("iter")->as_uint(), k);
    }
    EXPECT_NE(type_of(records[i + 1 + iterations]), "iteration");
  }
  return props;
}

TEST(VerifySessionTest, BatchTraceV2HasOneRecordPerProperty) {
  // Each property record is followed by the iteration records of its own
  // run, even where two properties share a register cone.
  const Counter c = make_counter();
  const auto records = run_trace(c.n, {"bad_a", "bad_b"}, false);
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(check_iterations_follow_properties(records), 2u);
  EXPECT_EQ(records[0].find("name")->as_string(), "bad_a");
  EXPECT_EQ(records[0].find("verdict")->as_string(), "F");
  EXPECT_EQ(type_of(records.back()), "batch-summary");
  EXPECT_EQ(records.back().find("trace_version")->as_string(), "rfn-trace-v2");

  // Streaming mode writes the same records (inline sessions complete in
  // request order here).
  const auto streamed = run_trace(c.n, {"bad_a", "bad_b"}, true);
  ASSERT_EQ(streamed.size(), records.size());
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_EQ(type_of(streamed[i]), type_of(records[i])) << i;
    if (type_of(records[i]) == "iteration") {
      EXPECT_EQ(streamed[i].find("property")->as_string(),
                records[i].find("property")->as_string());
    }
  }
}

TEST(VerifySessionTest, SharedRunIterationsWrittenOnce) {
  // Two properties that hold with identical cones: each iteration record is
  // written once, after the record of the property whose run it belongs
  // to, in the file and streaming modes.
  NetBuilder b;
  const GateId en = b.input("en");
  const Word cnt = b.reg_word("cnt", 3, 0);
  const Word wrapped =
      b.mux_word(b.eq_const(cnt, 5), b.inc_word(cnt), b.constant_word(0, 3));
  b.set_next_word(cnt, b.mux_word(en, cnt, wrapped));
  b.output("bad6", b.eq_const(cnt, 6));
  b.output("bad7", b.eq_const(cnt, 7));
  const Netlist n = b.take();
  for (const bool stream : {false, true}) {
    const auto holds = run_trace(n, {"bad6", "bad7"}, stream);
    EXPECT_EQ(check_iterations_follow_properties(holds), 2u) << "stream=" << stream;
    size_t iterations = 0, iteration_records = 0;
    for (const json::Value& rec : holds) {
      if (type_of(rec) == "property") {
        EXPECT_EQ(rec.find("verdict")->as_string(), "T");
        EXPECT_FALSE(rec.find("clustered"));
        iterations += rec.find("iterations")->as_uint();
      }
      iteration_records += type_of(rec) == "iteration";
    }
    EXPECT_EQ(iteration_records, iterations) << "stream=" << stream;
    ASSERT_EQ(holds.size(), iterations + 3) << "stream=" << stream;
    EXPECT_EQ(type_of(holds.back()), "batch-summary");
  }
}

TEST(VerifySessionTest, ConcretizeStatusIsNoneWithoutStep3) {
  // An iteration that ends in Step 2 (here the proof of bad_b) never runs
  // Step 3, and its trace-v2 record says so; one with an abstract trace
  // names the concretization outcome.
  const Counter c = make_counter();
  const auto records = run_trace(c.n, {"bad_a", "bad_b"}, false);
  size_t proved = 0, concretized = 0;
  for (const json::Value& rec : records) {
    if (type_of(rec) != "iteration") continue;
    const std::string status = rec.find_path("concretize.status")->as_string();
    if (rec.find("trace_cycles")->as_uint() == 0) {
      EXPECT_EQ(status, "none");
      proved += rec.find_path("reach.status")->as_string() == "proved";
    } else {
      EXPECT_NE(status, "none");
      ++concretized;
    }
  }
  EXPECT_GE(proved, 1u);
  EXPECT_GE(concretized, 1u);
}

TEST(VerifySessionTest, InvalidDefaultsDie) {
  const Counter c = make_counter();
  SessionOptions sopt;
  sopt.defaults.max_iterations = 0;
  VerifySession session(c.n, sopt);
  EXPECT_DEATH(session.run({{"", c.bad_a, {}}}), "max_iterations");
}

TEST(VerifySessionTest, InvalidOverrideDies) {
  // The override is merged into the defaults before run_property sees it,
  // so a per-property value validate() rejects aborts the run as well.
  const Counter c = make_counter();
  VerifySession session(c.n);
  PropertyRequest p{"", c.bad_a, {}};
  p.overrides.max_iterations = 0;
  EXPECT_DEATH(session.run({p}), "max_iterations");
}

TEST(RunProperty, InvalidOptionsDie) {
  // run_property rejects what validate() rejects.
  const Counter c = make_counter();
  RfnOptions opt;
  opt.max_iterations = 0;
  EXPECT_DEATH(run_property(c.n, c.bad_a, opt), "max_iterations");
}

}  // namespace
}  // namespace rfn
