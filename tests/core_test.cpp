// End-to-end tests for the RFN loop and its engines on small designs with
// known ground truth, including cross-checks against plain symbolic model
// checking.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "atpg/seq_atpg.hpp"
#include "core/bfs_baseline.hpp"
#include "core/concretize.hpp"
#include "core/coverage.hpp"
#include "core/hybrid_trace.hpp"
#include "core/plain_mc.hpp"
#include "core/refine.hpp"
#include "core/rfn.hpp"
#include "designs/iu.hpp"
#include "mc/image.hpp"
#include "mc/reach.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"
#include "util/rng.hpp"

#include "random_netlist.hpp"

namespace rfn {
namespace {

// Replays a concrete error trace on M: inputs driven per trace from M's
// initial state; returns the final value of `bad`.
Tri replay(const Netlist& m, const Trace& t, GateId bad) {
  const TopoIndex topo(m);
  Sim3 sim(topo);
  sim.load_initial_state();
  for (GateId r : m.regs())
    if (sim.value(r) == Tri::X && !t.steps.empty())
      sim.set(r, cube_lookup(t.steps[0].state, r));
  for (size_t c = 0; c < t.steps.size(); ++c) {
    sim.clear_inputs();
    for (const Literal& lit : t.steps[c].inputs)
      if (m.is_input(lit.signal)) sim.set(lit.signal, tri_of(lit.value));
    sim.eval();
    if (c + 1 < t.steps.size()) sim.step();
  }
  return sim.value(bad);
}

// Register chain: r0 <- driver, r_i <- r_{i-1}; bad = last register.
Netlist make_chain(size_t len, bool driver_is_input, GateId* bad_out) {
  NetBuilder b;
  std::vector<GateId> regs;
  for (size_t i = 0; i < len; ++i) regs.push_back(b.reg("r" + std::to_string(i)));
  const GateId driver = driver_is_input ? b.input("in") : b.constant(false);
  b.set_next(regs[0], driver);
  for (size_t i = 1; i < len; ++i) b.set_next(regs[i], regs[i - 1]);
  b.output("bad", regs.back());
  Netlist n = b.take();
  *bad_out = n.output("bad");
  return n;
}

TEST(Rfn, ProvesChainPropertyByIterativeRefinement) {
  GateId bad;
  Netlist m = make_chain(4, /*driver_is_input=*/false, &bad);
  const RfnResult res = run_property(m, bad, {});
  EXPECT_EQ(res.verdict, Verdict::Holds);
  // The proof needs the whole chain: one register per refinement iteration.
  EXPECT_EQ(res.final_abstract_regs, 4u);
  EXPECT_GE(res.iterations, 2u);
  // Every intermediate iteration produced a spurious abstract trace.
  for (size_t i = 0; i + 1 < res.per_iteration.size(); ++i)
    EXPECT_EQ(res.per_iteration[i].reach_status, ReachStatus::BadReachable);
  EXPECT_EQ(res.per_iteration.back().reach_status, ReachStatus::Proved);
}

TEST(Rfn, FalsifiesChainWithConcreteTrace) {
  GateId bad;
  Netlist m = make_chain(3, /*driver_is_input=*/true, &bad);
  const RfnResult res = run_property(m, bad, {});
  ASSERT_EQ(res.verdict, Verdict::Fails);
  EXPECT_EQ(res.error_trace.cycles(), 4u);  // in@1 -> r0@2 -> r1@3 -> r2@4
  EXPECT_EQ(replay(m, res.error_trace, bad), Tri::T);
}

TEST(Rfn, ImmediateProofWhenInitialAbstractionSuffices) {
  // bad = r & !r at the property level: structurally false once r included.
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r");
  b.set_next(r, in);
  // Use two registers fed oppositely so folding does not erase the check.
  const GateId r2 = b.reg("r2", Tri::T);
  b.set_next(r2, b.not_(in));
  // bad: both low at the same time... r2 starts 1, r starts 0; next values
  // are in and !in — always complementary, so bad = !r & !r2 only holds in
  // no reachable state... wait: initial state r=0, r2=1 -> bad=0; after any
  // step r=in, r2=!in -> complementary. Property holds.
  const GateId bad = b.nor_(r, r2);
  b.output("bad", bad);
  Netlist m = b.take();

  const RfnResult res = run_property(m, m.output("bad"), {});
  EXPECT_EQ(res.verdict, Verdict::Holds);
  EXPECT_EQ(res.iterations, 1u);
}

TEST(Rfn, DeepBugFoundThroughGuidedAtpg) {
  // Counter-triggered bug: bad rises when an 8-step one-hot token pipeline
  // delivers a token that the environment injects.
  NetBuilder b;
  const GateId go = b.input("go");
  std::vector<GateId> stage;
  for (int i = 0; i < 8; ++i) stage.push_back(b.reg("s" + std::to_string(i)));
  b.set_next(stage[0], go);
  for (int i = 1; i < 8; ++i) b.set_next(stage[static_cast<size_t>(i)], stage[static_cast<size_t>(i) - 1]);
  b.output("bad", stage.back());
  Netlist m = b.take();
  const RfnResult res = run_property(m, m.output("bad"), {});
  ASSERT_EQ(res.verdict, Verdict::Fails);
  EXPECT_EQ(res.error_trace.cycles(), 9u);
  EXPECT_EQ(replay(m, res.error_trace, m.output("bad")), Tri::T);
}

TEST(Refine, SimulationFindsConflictingRegister) {
  // r1 <- const0; abstract model {r2} with pseudo-input r1. A trace claiming
  // r1=1 at cycle 2 conflicts with the simulated 0.
  NetBuilder b;
  const GateId r1 = b.reg("r1");
  const GateId r2 = b.reg("r2");
  b.set_next(r1, b.constant(false));
  b.set_next(r2, r1);
  Netlist m = b.take();

  Trace t;
  t.steps.resize(3);
  t.steps[0].state = {{r2, false}};
  t.steps[0].inputs = {{r1, false}};
  t.steps[1].inputs = {{r1, true}};  // conflicts: r1 is 0 from cycle 2 on
  t.steps[2].state = {{r2, true}};
  const auto candidates = crucial_candidates_by_simulation(TopoIndex(m), t, {r2});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], r1);
}

TEST(Refine, GreedyDropsRedundantCandidates) {
  // Two candidate registers; only r1 matters for invalidating the trace.
  NetBuilder b;
  const GateId r1 = b.reg("r1");
  const GateId junk = b.reg("junk");
  const GateId r2 = b.reg("r2");
  b.set_next(r1, b.constant(false));
  b.set_next(junk, b.constant(true));
  b.set_next(r2, r1);
  b.output("bad", r2);
  Netlist m = b.take();

  Trace t;  // claims r1=1@1 so that r2=1@2 — impossible once r1 is modeled
  t.steps.resize(2);
  t.steps[0].state = {{r2, false}};
  t.steps[0].inputs = {{r1, true}, {junk, false}};
  t.steps[1].state = {{r2, true}};

  RefineStats st;
  const auto crucial = identify_crucial_registers(TopoIndex(m), m.output("bad"), {r2}, t, {}, &st);
  ASSERT_EQ(crucial.size(), 1u);
  EXPECT_EQ(crucial[0], r1);
  EXPECT_TRUE(st.trace_invalidated);
}

TEST(Refine, CancelledTokenReachesRefinementAtpg) {
  // The design of GreedyDropsRedundantCandidates, with a trace on which both
  // cut registers conflict, refined under a cancelled run token: every
  // phase-2 ATPG call aborts before it searches, so no prefix invalidates
  // the trace and every candidate is kept.
  NetBuilder b;
  const GateId r1 = b.reg("r1");
  const GateId junk = b.reg("junk");
  const GateId r2 = b.reg("r2");
  b.set_next(r1, b.constant(false));
  b.set_next(junk, b.constant(true));
  b.set_next(r2, r1);
  b.output("bad", r2);
  Netlist m = b.take();

  Trace t;
  t.steps.resize(2);
  t.steps[0].state = {{r2, false}};
  t.steps[0].inputs = {{r1, true}, {junk, true}};
  t.steps[1].state = {{r2, true}};
  t.steps[1].inputs = {{r1, true}, {junk, false}};  // both conflict with the replay

  CancelToken tok;
  tok.cancel();
  AtpgOptions ao;
  ao.cancel = &tok;
  MetricsRegistry reg;
  RefineStats st;
  std::vector<GateId> crucial;
  {
    const MetricsScope scope(&reg);
    crucial = identify_crucial_registers(TopoIndex(m), m.output("bad"), {r2}, t, ao, &st);
  }
  EXPECT_EQ(st.conflict_candidates, 2u);
  EXPECT_EQ(crucial.size(), 2u);
  EXPECT_FALSE(st.trace_invalidated);
  EXPECT_EQ(st.atpg_calls, 2u);
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.value("atpg.seq.aborts"), 2.0);
  EXPECT_EQ(s.value("atpg.seq.backtracks"), 0.0);
}

TEST(Refine, FallbackCandidatesAreCountedApart) {
  // r1 latches an input, so the replay (inputs unassigned) leaves it X and
  // nothing conflicts: the frequency fallback proposes r1, and the stats
  // count it as a fallback candidate.
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r1 = b.reg("r1", Tri::F);
  const GateId r2 = b.reg("r2", Tri::F);
  b.set_next(r1, in);
  b.set_next(r2, r1);
  b.output("bad", r2);
  Netlist m = b.take();

  Trace t;  // abstract model {r2}, pseudo-input r1
  t.steps.resize(3);
  t.steps[0].state = {{r2, false}};
  t.steps[1].inputs = {{r1, true}};
  t.steps[2].state = {{r2, true}};

  RefineStats st;
  const auto crucial = identify_crucial_registers(TopoIndex(m), m.output("bad"), {r2}, t, {}, &st);
  EXPECT_EQ(st.conflict_candidates, 0u);
  EXPECT_EQ(st.fallback_candidates, 1u);
  // The trace is real once r1 is modeled (in=1 at cycle 1), so the fallback
  // candidate stays.
  EXPECT_FALSE(st.trace_invalidated);
  EXPECT_EQ(crucial, std::vector<GateId>{r1});
}

// Reference for the phase-1 replay: every cycle evaluates all of M, and
// every register the trace pins is compared (after Section 2.4).
std::vector<GateId> full_replay_candidates(const Netlist& m, const Trace& t,
                                           const std::vector<GateId>& current,
                                           RefineStats* stats) {
  std::vector<bool> in_model(m.size(), false);
  for (GateId r : current) in_model[r] = true;
  auto trace_reg_value = [&](const TraceStep& step, GateId r) {
    const Tri s = cube_lookup(step.state, r);
    return s != Tri::X ? s : cube_lookup(step.inputs, r);
  };
  std::vector<GateId> candidates;
  std::vector<bool> is_candidate(m.size(), false);
  const TopoIndex topo(m);
  Sim3 sim(topo);
  for (const Literal& lit : t.steps[0].state) sim.set(lit.signal, tri_of(lit.value));
  for (const Literal& lit : t.steps[0].inputs)
    if (m.is_reg(lit.signal)) sim.set(lit.signal, tri_of(lit.value));
  for (size_t c = 0; c < t.steps.size(); ++c) {
    for (GateId r : m.regs()) {
      const Tri want = c > 0 ? trace_reg_value(t.steps[c], r) : Tri::X;
      if (want == Tri::X) continue;
      const Tri have = sim.value(r);
      if (have != Tri::X && have != want && !in_model[r] && !is_candidate[r]) {
        is_candidate[r] = true;
        candidates.push_back(r);
      }
      sim.set(r, want);
    }
    sim.clear_inputs();
    for (const Literal& lit : t.steps[c].inputs)
      if (m.is_input(lit.signal)) sim.set(lit.signal, tri_of(lit.value));
    sim.eval();
    if (c + 1 < t.steps.size()) sim.step();
  }
  if (!candidates.empty()) {
    stats->conflict_candidates = candidates.size();
    return candidates;
  }
  std::map<GateId, size_t> freq;
  for (const TraceStep& step : t.steps)
    for (const Cube* cube : {&step.state, &step.inputs})
      for (const Literal& lit : *cube)
        if (m.is_reg(lit.signal) && !in_model[lit.signal]) ++freq[lit.signal];
  std::vector<std::pair<size_t, GateId>> ranked;
  for (const auto& [r, f] : freq) ranked.emplace_back(f, r);
  std::sort(ranked.rbegin(), ranked.rend());
  for (const auto& [f, r] : ranked) {
    candidates.push_back(r);
    if (candidates.size() >= 8) break;
  }
  stats->fallback_candidates = candidates.size();
  return candidates;
}

// Phase 1 evaluates only each cycle's backward cone. On random netlists
// with X-initialized registers and register chains, random abstractions and
// traces read off a Sim3 run (some literals flipped, some registers pinned
// through the input cube as cut registers are), it must return what a
// replay of all of M returns, counted the same way.
TEST(Refine, ConeReplayMatchesFullReplay) {
  Rng rng(20261021);
  size_t conflicts = 0, fallbacks = 0;
  for (int round = 0; round < 300; ++round) {
    const Netlist m = random_netlist(rng, 1 + rng.below(3), 3 + rng.below(6),
                                     static_cast<int>(rng.below(30)), /*x_init=*/true);
    std::vector<GateId> current;
    for (GateId r : m.regs())
      if (rng.below(3) == 0) current.push_back(r);
    const TopoIndex topo(m);
    Sim3 sim(topo);
    sim.load_initial_state();
    for (GateId r : m.regs())
      if (sim.value(r) == Tri::X) sim.set(r, tri_of(rng.flip()));
    Trace t;
    t.steps.resize(1 + rng.below(6));
    for (TraceStep& step : t.steps) {
      for (GateId in : m.inputs()) {
        sim.set(in, tri_of(rng.flip()));
        if (rng.flip()) step.inputs.push_back({in, sim.value(in) == Tri::T});
      }
      sim.eval();
      for (GateId r : m.regs()) {
        if (rng.below(3) == 0) continue;
        const bool v = (sim.value(r) == Tri::T) != (rng.below(6) == 0);
        const bool in_model = std::find(current.begin(), current.end(), r) != current.end();
        (in_model || rng.flip() ? step.state : step.inputs).push_back({r, v});
        if (rng.below(10) == 0) step.inputs.push_back({r, !v});  // the state cube wins
      }
      sim.step();
    }

    RefineStats got_stats, want_stats;
    const std::vector<GateId> got =
        crucial_candidates_by_simulation(topo, t, current, &got_stats);
    const std::vector<GateId> want = full_replay_candidates(m, t, current, &want_stats);
    ASSERT_EQ(got, want) << "round " << round;
    EXPECT_EQ(got_stats.conflict_candidates, want_stats.conflict_candidates) << round;
    EXPECT_EQ(got_stats.fallback_candidates, want_stats.fallback_candidates) << round;
    conflicts += want_stats.conflict_candidates > 0;
    fallbacks += want_stats.fallback_candidates > 0;
  }
  // Both candidate paths occur often enough to mean something (135 and 160).
  EXPECT_GE(conflicts, 50u);
  EXPECT_GE(fallbacks, 50u);
}

TEST(Concretize, InputOnlyTraceIsConcreteOnM) {
  GateId bad;
  Netlist m = make_chain(2, /*driver_is_input=*/true, &bad);
  // Abstract trace that assigns only real inputs: in=1@1.
  Trace t;
  t.steps.resize(3);
  t.steps[0].inputs = {{m.find("in"), true}};
  const SeqAtpgResult res = solve_abstract_trace(TopoIndex(m), m.regs(), t, bad, {});
  ASSERT_EQ(res.status, AtpgStatus::Sat);
  EXPECT_EQ(replay(m, res.trace, bad), Tri::T);
}

TEST(PlainMc, AgreesOnSmallDesigns) {
  GateId bad;
  Netlist t = make_chain(3, false, &bad);
  EXPECT_EQ(plain_model_check(t, bad).verdict, Verdict::Holds);
  GateId bad2;
  Netlist f = make_chain(3, true, &bad2);
  EXPECT_EQ(plain_model_check(f, bad2).verdict, Verdict::Fails);
}

// Property: RFN and plain MC agree on random small sequential designs.
class RfnVsPlainMc : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RfnVsPlainMc, VerdictsAgree) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    NetBuilder b;
    const size_t nins = 1 + rng.below(3);
    const size_t nregs = 3 + rng.below(5);
    std::vector<GateId> ins, regs, pool;
    for (size_t i = 0; i < nins; ++i) {
      ins.push_back(b.input("i" + std::to_string(i)));
      pool.push_back(ins.back());
    }
    for (size_t i = 0; i < nregs; ++i) {
      regs.push_back(b.reg("r" + std::to_string(i)));
      pool.push_back(regs.back());
    }
    for (int i = 0; i < 25; ++i) {
      const GateId x = pool[rng.below(pool.size())];
      const GateId y = pool[rng.below(pool.size())];
      switch (rng.below(4)) {
        case 0: pool.push_back(b.and_(x, y)); break;
        case 1: pool.push_back(b.or_(x, y)); break;
        case 2: pool.push_back(b.xor_(x, y)); break;
        case 3: pool.push_back(b.not_(x)); break;
      }
    }
    for (GateId r : regs) b.set_next(r, pool[pool.size() - 1 - rng.below(10)]);
    // Property over registers only so that bad states are honest states.
    const GateId bad = b.and_(regs[0], b.not_(regs[1 + rng.below(nregs - 1)]));
    b.output("bad", bad);
    Netlist m = b.take();

    const PlainMcResult truth = plain_model_check(m, m.output("bad"));
    ASSERT_NE(truth.verdict, Verdict::Unknown);

    RfnOptions opt;
    opt.time_limit_s = 30.0;
    const RfnResult res = run_property(m, m.output("bad"), opt);
    ASSERT_EQ(res.verdict, truth.verdict) << "round " << round << " note: " << res.note;
    if (res.verdict == Verdict::Fails) {
      EXPECT_EQ(replay(m, res.error_trace, m.output("bad")), Tri::T);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RfnVsPlainMc, ::testing::Values(101, 202, 303, 404, 505));

/// One-hot 3-stage ring; `regs` receives its registers s0, s1, s2.
Netlist one_hot_ring(std::vector<GateId>* regs) {
  NetBuilder b;
  const GateId s0 = b.reg("s0", Tri::T);
  const GateId s1 = b.reg("s1");
  const GateId s2 = b.reg("s2");
  b.set_next(s0, s2);
  b.set_next(s1, s0);
  b.set_next(s2, s1);
  *regs = {s0, s1, s2};
  return b.take();
}

TEST(Coverage, OneHotRingGroundTruth) {
  // Reachable coverage states are exactly the three one-hot patterns.
  std::vector<GateId> regs;
  const Netlist m = one_hot_ring(&regs);

  CoverageOptions opt;
  opt.time_limit_s = 30.0;
  const CoverageResult res = rfn_coverage_analysis(m, regs, opt);
  EXPECT_EQ(res.total_states, 8u);
  EXPECT_EQ(res.unreachable, 5u);
  EXPECT_EQ(res.reachable, 3u);
  EXPECT_EQ(res.unknown, 0u);

  BfsBaselineOptions bopt;
  bopt.num_registers = 3;
  const BfsBaselineResult bfs = bfs_coverage_analysis(m, regs, bopt);
  EXPECT_EQ(bfs.unreachable, 5u);
}

TEST(Coverage, WallLimitsHold) {
  // Both coverage methods keep a 0.3 s limit on the paper-scale IU sets
  // whose first abstract models take seconds to build: the run's token
  // reaches the BDD manager, so the sifts and image construction inside
  // an iteration stop too, not only the loop between engine calls.
  const designs::IuDesign iu = designs::make_iu(designs::paper_scale_iu());
  for (const size_t set : {size_t{0}, size_t{4}}) {
    const std::vector<GateId>& regs = iu.coverage_sets[set];
    CoverageOptions opt;
    opt.time_limit_s = 0.3;
    Stopwatch rfn_watch;
    rfn_coverage_analysis(iu.netlist, regs, opt);
    EXPECT_LT(rfn_watch.seconds(), 1.0) << "RFN, IU" << set + 1;

    BfsBaselineOptions bopt;
    bopt.time_limit_s = 0.3;
    Stopwatch bfs_watch;
    bfs_coverage_analysis(iu.netlist, regs, bopt);
    EXPECT_LT(bfs_watch.seconds(), 1.0) << "BFS, IU" << set + 1;
  }
}

TEST(Coverage, PublishesBddStatistics) {
  // Like run_property, the coverage loop flushes each iteration's BDD
  // manager statistics into the registry bound to the thread.
  std::vector<GateId> regs;
  const Netlist m = one_hot_ring(&regs);
  MetricsRegistry reg;
  {
    const MetricsScope scope(&reg);
    rfn_coverage_analysis(m, regs);
  }
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_GE(s.value("bdd.managers"), 1.0);
  EXPECT_GT(s.value("bdd.cache_lookups"), 0.0);
}

TEST(Coverage, RefinementTightensClassification) {
  // Coverage register c mirrors a constrained producer: p cycles 0->1->0...,
  // c follows p. With only {c} abstracted, all 2 states look reachable;
  // ground truth: both ARE reachable. Add an unreachable pattern: d = c & !c
  // ... instead use two coverage regs c0,c1 with c1 = c0 delayed, driven by
  // a toggler: reachable patterns are (0,0),(1,0),(1,1),(0,1) over time —
  // all four. Make the driver constant instead: only (0,0) reachable... use
  // a one-shot latch: l <- l | never... Keep it simple: driver const0.
  NetBuilder b;
  const GateId c0 = b.reg("c0");
  const GateId c1 = b.reg("c1");
  const GateId src = b.reg("src");
  b.set_next(src, b.constant(false));
  b.set_next(c0, src);
  b.set_next(c1, c0);
  Netlist m = b.take();
  CoverageOptions opt;
  opt.time_limit_s = 30.0;
  const CoverageResult res = rfn_coverage_analysis(m, {c0, c1}, opt);
  // Only (0,0) is reachable; the other three require src=1 at some cycle.
  EXPECT_EQ(res.unreachable, 3u);
  EXPECT_GE(res.reachable + res.unknown, 1u);
  EXPECT_EQ(res.state_class[0], 2u);  // (0,0) witnessed reachable
}

TEST(Rfn, CutFixpointEndsUnknown) {
  // Many independent wrap-at-4 counters; `bad` = counter 0 reaches 6. The
  // exact fixpoint is cut off by a tiny step budget, and a Step-2 fixpoint
  // that runs out of resources ends the run.
  NetBuilder b;
  std::vector<Word> counters;
  for (int c = 0; c < 8; ++c) {
    const GateId en = b.input("en" + std::to_string(c));
    const Word cnt = b.reg_word("c" + std::to_string(c), 3, 0);
    const GateId wrap = b.eq_const(cnt, 4);
    const Word next = b.mux_word(wrap, b.inc_word(cnt), b.constant_word(0, 3));
    b.set_next_word(cnt, b.mux_word(en, cnt, next));
    counters.push_back(cnt);
  }
  const GateId bad_sig = b.eq_const(counters[0], 6);
  const GateId bad = b.reg("bad");
  b.set_next(bad, b.or_(bad, bad_sig));
  b.output("bad", bad);
  Netlist m = b.take();

  RfnOptions opt;
  opt.time_limit_s = 30.0;
  // Refinement traces stay shallow (any still-free counter violates within
  // ~2 steps), but the full model's fixpoint needs 5+ image steps.
  opt.max_reach_steps = 3;
  opt.max_iterations = 60;
  const RfnResult cut = run_property(m, m.output("bad"), opt);
  EXPECT_EQ(cut.verdict, Verdict::Unknown);
  EXPECT_EQ(cut.note, "abstract fixpoint exceeded resources");
  ASSERT_FALSE(cut.per_iteration.empty());
  EXPECT_EQ(cut.per_iteration.back().reach_status, ReachStatus::ResourceOut);
}

// Every engine the loop calls polls the run's token: a cancelled token
// stops each of them with its own inconclusive answer.
TEST(Engines, CancellationHooks) {
  // Mod-8 counter with no inputs: `bad` = r0 & r1 & r2 first rises at
  // cycle 8.
  NetBuilder b;
  const GateId r0 = b.reg("r0", Tri::F);
  const GateId r1 = b.reg("r1", Tri::F);
  const GateId r2 = b.reg("r2", Tri::F);
  b.set_next(r0, b.not_(r0));
  b.set_next(r1, b.xor_(r1, r0));
  b.set_next(r2, b.xor_(r2, b.and_(r1, r0)));
  b.output("bad", b.and_(r2, b.and_(r1, r0)));
  const Netlist m = b.take();
  const GateId bad = m.output("bad");
  CancelToken tok;
  tok.cancel();

  BddMgr mgr;
  Encoder enc(mgr, m);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.exists(enc.signal_fn(bad), enc.input_vars());

  // BDD reachability: a cancelled fixpoint reports ResourceOut.
  ReachOptions ro;
  ro.cancel = &tok;
  EXPECT_EQ(forward_reach(img, enc.initial_states(), bad_set, ro).status,
            ReachStatus::ResourceOut);

  // Sequential ATPG: a cancelled search reports Abort.
  AtpgOptions ao;
  ao.cancel = &tok;
  EXPECT_EQ(reach_target(TopoIndex(m), 8, bad, true, {}, ao).status, AtpgStatus::Abort);

  // Hybrid trace engine: a cancelled walk yields no trace.
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_EQ(reach.status, ReachStatus::BadReachable);
  EXPECT_TRUE(hybrid_error_trace(enc, m, reach, bad_set, &tok).empty());

  // 3-valued simulation: a cancelled eval() reports stopped(), and a
  // cancelled trace replay answers X.
  const TopoIndex topo(m);
  Sim3 sim(topo);
  sim.set_should_stop(&tok);
  sim.load_initial_state();
  sim.eval();
  EXPECT_TRUE(sim.stopped());
  const SeqAtpgResult found = reach_target(TopoIndex(m), 8, bad, true);
  ASSERT_EQ(found.status, AtpgStatus::Sat);
  EXPECT_EQ(simulate_trace(m, found.trace, bad, &tok), Tri::X);
}

TEST(Rfn, FindsBugBehindSpuriousCutRegisterChoice) {
  // The initial abstraction frees registers a and b, and bad' = a XOR b.
  // On the real design `a` is stuck at 0, so an abstract trace choosing
  // a=1 is spurious while a=0/b=1 is real: the loop must still end Fails.
  NetBuilder bld;
  const GateId in = bld.input("in");
  const GateId a = bld.reg("a");
  const GateId b = bld.reg("b", Tri::X);
  bld.set_next(a, bld.constant(false));
  bld.set_next(b, in);
  const GateId bad = bld.reg("bad");
  bld.set_next(bad, bld.or_(bad, bld.xor_(a, b)));
  bld.output("bad", bad);
  const Netlist m = bld.take();

  const RfnResult res = run_property(m, bad, {});
  ASSERT_EQ(res.verdict, Verdict::Fails) << res.note;
  EXPECT_EQ(replay(m, res.error_trace, bad), Tri::T);
}

}  // namespace
}  // namespace rfn
