// Batch-session tests: options validation, the consolidated status strings,
// cone clustering, the subcircuit memo, and — the acceptance check — batch
// verdicts identical to independent single-property run_property runs on
// designs with identical / nested / overlapping / disjoint property cones.

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
  RfnOptions opt;
  opt.reach.max_live_nodes = 0;
  opt.reach.max_steps = 0;
  const auto errors = opt.validate();
  EXPECT_EQ(errors.size(), 2u);
  EXPECT_TRUE(any_error_contains(errors, "max_live_nodes"));
  EXPECT_TRUE(any_error_contains(errors, "max_steps"));
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

TEST(ConeClustering, JaccardOverlap) {
  EXPECT_DOUBLE_EQ(jaccard_overlap({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(jaccard_overlap({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(jaccard_overlap({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(jaccard_overlap({1, 2, 3, 4}, {3, 4, 5, 6}), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(jaccard_overlap({1, 2, 3, 4}, {1, 2}), 0.5);  // nested
}

TEST(ConeClustering, IdenticalNestedOverlappingDisjoint) {
  const std::vector<std::vector<GateId>> cones = {
      {1, 2, 3, 4},  // 0
      {1, 2, 3, 4},  // 1: identical to 0 -> same cluster
      {1, 2},        // 2: nested in 0, jaccard 0.5 -> joins at threshold
      {3, 4, 5, 6},  // 3: overlap 2/6 with 0 -> below 0.5, new cluster
      {7, 8},        // 4: disjoint -> own cluster
  };
  const auto clusters = cluster_by_cone_overlap(cones, 0.5, 8);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(clusters[1], (std::vector<size_t>{3}));
  EXPECT_EQ(clusters[2], (std::vector<size_t>{4}));
}

TEST(ConeClustering, RespectsMaxClusterSizeAndSolo) {
  const std::vector<std::vector<GateId>> cones = {{1}, {1}, {1}, {1}};
  const auto capped = cluster_by_cone_overlap(cones, 0.5, 2);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped[0].size(), 2u);

  // A solo-pinned property never joins (or anchors) a shared cluster.
  const auto pinned =
      cluster_by_cone_overlap(cones, 0.5, 8, {false, true, false, false});
  ASSERT_EQ(pinned.size(), 2u);
  EXPECT_EQ(pinned[0], (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(pinned[1], (std::vector<size_t>{1}));
}

TEST(ConeClustering, ThresholdZeroDisablesClustering) {
  const std::vector<std::vector<GateId>> cones = {{1}, {1}, {1}};
  EXPECT_EQ(cluster_by_cone_overlap(cones, 0.0, 8).size(), 3u);
}

TEST(SubcircuitMemoTest, HitsOnRepeatedExtraction) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r1 = b.reg("r1");
  const GateId r2 = b.reg("r2");
  b.set_next(r1, in);
  b.set_next(r2, b.not_(r1));
  b.output("p", r2);
  const Netlist m = b.take();

  SubcircuitMemo memo;
  const auto a = memo.get(m, {r2}, {r2});
  const auto b2 = memo.get(m, {r2}, {r2});
  EXPECT_EQ(a.get(), b2.get());
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  // A different register set is a different model.
  const auto c = memo.get(m, {r2}, {r1, r2});
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(memo.misses(), 2u);
}

// A 3-bit counter that counts 0..5 under an enable and wraps, with one
// reachable property (cnt == 3) and one unreachable one (cnt == 7). Both
// cones are the whole counter, so the two properties land in one cluster
// and exercise the Fails-attribution path: the shared disjunction run finds
// the cnt == 3 trace, attributes it to bad_a alone, and the re-run on the
// remainder proves bad_b.
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

TEST(VerifySessionTest, AttributesFailureWithinCluster) {
  const Counter c = make_counter();
  VerifySession session(c.n, {});
  const auto results =
      session.run({{"", c.bad_a, {}}, {"", c.bad_b, {}}});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(session.clusters().size(), 1u);  // identical cones
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
  EXPECT_TRUE(results[0].clustered);
  EXPECT_TRUE(results[1].clustered);
  EXPECT_EQ(results[0].name, "bad_a");
  EXPECT_EQ(results[1].name, "bad_b");
  EXPECT_GT(results[0].trace.cycles(), 0u);
  EXPECT_EQ(results[1].trace.cycles(), 0u);
  // The second round's first BDD manager starts from the first round's
  // saved variable order.
  EXPECT_TRUE(results[1].order_seeded);
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
  EXPECT_EQ(session.clusters().size(), 2u);
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
  EXPECT_FALSE(results[0].clustered);
  EXPECT_FALSE(results[1].clustered);
}

TEST(VerifySessionTest, OverridesForceSoloRuns) {
  const Counter c = make_counter();
  PropertyRequest pa{"a", c.bad_a, {}};
  PropertyRequest pb{"b", c.bad_b, {}};
  pb.overrides.max_iterations = 30;
  VerifySession session(c.n, {});
  const auto results = session.run({pa, pb});
  // Identical cones, but the override pins b into its own cluster.
  EXPECT_EQ(session.clusters().size(), 2u);
  EXPECT_FALSE(results[0].clustered);
  EXPECT_FALSE(results[1].clustered);
  EXPECT_EQ(results[0].verdict, Verdict::Fails);
  EXPECT_EQ(results[1].verdict, Verdict::Holds);
}

TEST(VerifySessionTest, EmptyBatch) {
  const Counter c = make_counter();
  VerifySession session(c.n, {});
  EXPECT_TRUE(session.run({}).empty());
  EXPECT_TRUE(session.clusters().empty());
}

TEST(VerifySessionTest, MatchesSingleRunsOnFifo) {
  // The acceptance cross-check, cross_engine_test style: the batch path and
  // the single-property compatibility path must report identical verdicts
  // for a four-property overlapping-cone suite — the FIFO's three occupancy
  // flags plus their disjunction ("some flag errs"), the composite any-error
  // line testbenches expose.
  designs::FifoDesign fifo = designs::make_fifo({.addr_bits = 2, .data_bits = 2});
  const GateId any = append_disjunction(
      fifo.netlist, {fifo.bad_push_full, fifo.bad_push_af, fifo.bad_push_hf},
      "bad_any");
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

  // The session's clustering must be exactly what the exposed heuristic
  // computes from the cones.
  std::vector<std::vector<GateId>> cones;
  for (GateId bad : bads) {
    cones.push_back(coi_registers(fifo.netlist, {bad}));
    std::sort(cones.back().begin(), cones.back().end());
  }
  EXPECT_EQ(session.clusters(),
            cluster_by_cone_overlap(cones, sopt.cluster_overlap,
                                    sopt.max_cluster_size,
                                    std::vector<bool>(bads.size(), false)));

  for (size_t i = 0; i < bads.size(); ++i) {
    const RfnResult ref = run_property(fifo.netlist, bads[i], opt);
    EXPECT_EQ(batch[i].verdict, ref.verdict) << "property " << batch[i].name;
    EXPECT_EQ(batch[i].verdict, Verdict::Holds);
  }
}

TEST(VerifySessionTest, IuCoverageRegistersShareOneCluster) {
  // The IU control is strongly connected: coverage registers from different
  // sets have identical COIs (designs_test asserts this), so as properties
  // they must cluster together.
  const designs::IuDesign iu = designs::make_iu({});
  std::vector<GateId> bads = {iu.coverage_sets[0][0], iu.coverage_sets[1][0],
                              iu.coverage_sets[2][0], iu.coverage_sets[3][0]};
  std::vector<std::vector<GateId>> cones;
  std::vector<bool> solo(bads.size(), false);
  for (GateId bad : bads) {
    cones.push_back(coi_registers(iu.netlist, {bad}));
    std::sort(cones.back().begin(), cones.back().end());
  }
  for (size_t i = 1; i < cones.size(); ++i)
    EXPECT_DOUBLE_EQ(jaccard_overlap(cones[0], cones[i]), 1.0);
  const auto clusters = cluster_by_cone_overlap(cones, 0.5, 8, solo);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), bads.size());
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
  EXPECT_TRUE(
      api::run_verify(design, req, &sink, stream, nullptr, &out, &error))
      << error;
  return sink.records();
}

std::string type_of(const json::Value& rec) {
  return rec.find("type")->as_string();
}

TEST(VerifySessionTest, BatchTraceV2HasOneRecordPerProperty) {
  // bad_a and bad_b share a cluster, but bad_a's failure is attributed
  // first and bad_b is answered by a later run: each property record is
  // followed by the iteration records of its own run.
  const Counter c = make_counter();
  const auto records = run_trace(c.n, {"bad_a", "bad_b"}, false);
  ASSERT_GE(records.size(), 3u);
  size_t props = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (type_of(records[i]) != "property") continue;
    ++props;
    const size_t iterations = records[i].find("iterations")->as_uint();
    ASSERT_GE(iterations, 1u);
    ASSERT_LT(i + iterations, records.size());
    for (size_t k = 0; k < iterations; ++k) {
      const json::Value& it = records[i + 1 + k];
      ASSERT_EQ(type_of(it), "iteration");
      EXPECT_EQ(it.find("property")->as_string(),
                records[i].find("name")->as_string());
      EXPECT_EQ(it.find("iter")->as_uint(), k);
    }
    EXPECT_NE(type_of(records[i + 1 + iterations]), "iteration");
  }
  EXPECT_EQ(props, 2u);
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
    if (type_of(records[i]) == "iteration")
      EXPECT_EQ(streamed[i].find("property")->as_string(),
                records[i].find("property")->as_string());
  }
}

TEST(VerifySessionTest, SharedRunIterationsWrittenOnce) {
  // Two properties that hold with identical cones: one shared run answers
  // both, so its iterations follow the first member only.
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
    const auto records = run_trace(n, {"bad6", "bad7"}, stream);
    ASSERT_GE(records.size(), 4u);
    ASSERT_EQ(type_of(records[0]), "property");
    EXPECT_TRUE(records[0].find("clustered")->as_bool());
    EXPECT_EQ(records[0].find("verdict")->as_string(), "T");
    const size_t iterations = records[0].find("iterations")->as_uint();
    ASSERT_GE(iterations, 1u);
    ASSERT_EQ(records.size(), iterations + 3) << "stream=" << stream;
    for (size_t k = 0; k < iterations; ++k)
      EXPECT_EQ(records[1 + k].find("property")->as_string(), "bad6");
    const json::Value& second = records[1 + iterations];
    ASSERT_EQ(type_of(second), "property");
    EXPECT_EQ(second.find("name")->as_string(), "bad7");
    EXPECT_EQ(second.find("iterations")->as_uint(), iterations);
    EXPECT_EQ(type_of(records.back()), "batch-summary");
  }
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

TEST(RunProperty, RerunResumesFromRefinedAbstraction) {
  const Counter c = make_counter();
  const RfnResult first = run_property(c.n, c.bad_b, {});
  EXPECT_EQ(first.verdict, Verdict::Holds);
  // A second run seeded with the first one's final abstraction starts from
  // the refined set: it must reach the same verdict without shrinking it.
  RunHooks hooks;
  hooks.seed_registers = &first.final_registers;
  const RfnResult second = run_property(c.n, c.bad_b, {}, hooks);
  EXPECT_EQ(second.verdict, Verdict::Holds);
  EXPECT_EQ(second.iterations, 1u);
  EXPECT_GE(second.final_registers.size(), first.final_registers.size());
  for (GateId r : first.final_registers)
    EXPECT_TRUE(std::binary_search(second.final_registers.begin(),
                                   second.final_registers.end(), r));
}

}  // namespace
}  // namespace rfn
