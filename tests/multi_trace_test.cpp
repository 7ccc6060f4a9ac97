// Tests for multi-trace extraction and set-guided concretization (the
// paper's second future-work direction).

#include <gtest/gtest.h>

#include "core/concretize.hpp"
#include "core/hybrid_trace.hpp"
#include "core/rfn.hpp"
#include "mc/image.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"

namespace rfn {
namespace {

// The scenario the feature exists for: the abstract model frees two cut
// registers a, b with bad' = a XOR b; on the real design `a` is stuck at 0,
// so an abstract trace choosing a=1 is spurious while the a=0/b=1 trace is
// real.
struct XorDesign {
  Netlist m;
  GateId a, b, bad, in;
};

XorDesign make_xor_design() {
  NetBuilder bld;
  XorDesign d;
  d.in = bld.input("in");
  d.a = bld.reg("a");
  // b powers up unconstrained, so a depth-2 error trace exists (pick b=1 at
  // cycle 1) — but only for abstract traces that choose a=0.
  d.b = bld.reg("b", Tri::X);
  bld.set_next(d.a, bld.constant(false));  // stuck at 0 in the real design
  bld.set_next(d.b, d.in);
  const GateId bad = bld.reg("bad");
  bld.set_next(bad, bld.or_(bad, bld.xor_(d.a, d.b)));
  bld.output("bad", bad);
  d.bad = bad;
  d.m = bld.take();
  return d;
}

TEST(MultiTrace, ExtractsDistinctTraces) {
  const XorDesign d = make_xor_design();
  // Abstract model: just the watchdog; a and b are free pseudo-inputs.
  const Subcircuit sub = extract_abstract_model(d.m, {d.bad}, {d.bad});
  BddMgr mgr;
  Encoder enc(mgr, sub.net);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.var(enc.state_var(sub.to_new(d.bad)));
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_EQ(reach.status, ReachStatus::BadReachable);

  const std::vector<Trace> traces =
      hybrid_error_traces(enc, sub.net, reach, bad_set, 4);
  ASSERT_GE(traces.size(), 2u);
  // The traces must disagree on the a/b pseudo-input choice.
  const GateId a_new = sub.to_new(d.a);
  const Tri first = cube_lookup(traces[0].steps[0].inputs, a_new);
  bool diverse = false;
  for (const Trace& t : traces)
    diverse |= cube_lookup(t.steps[0].inputs, a_new) != first;
  EXPECT_TRUE(diverse);
}

TEST(MultiTrace, SetGuidanceFindsBugWhereFirstTraceIsSpurious) {
  const XorDesign d = make_xor_design();
  const Subcircuit sub = extract_abstract_model(d.m, {d.bad}, {d.bad});
  BddMgr mgr;
  Encoder enc(mgr, sub.net);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.var(enc.state_var(sub.to_new(d.bad)));
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_EQ(reach.status, ReachStatus::BadReachable);
  std::vector<Trace> traces_n = hybrid_error_traces(enc, sub.net, reach, bad_set, 4);
  ASSERT_GE(traces_n.size(), 2u);
  std::vector<Trace> traces;
  for (const Trace& t : traces_n) traces.push_back(sub.trace_to_old(t));

  // Order so that a spurious trace (a=1 somewhere) comes first: the set
  // concretization must still succeed via a later trace or the consensus.
  std::stable_sort(traces.begin(), traces.end(), [&](const Trace& x, const Trace& y) {
    auto spurious = [&](const Trace& t) {
      for (const TraceStep& s : t.steps)
        if (cube_lookup(s.inputs, d.a) == Tri::T ||
            cube_lookup(s.state, d.a) == Tri::T)
          return 0;  // sorts first
      return 1;
    };
    return spurious(x) < spurious(y);
  });
  const ConcretizeResult single = concretize_trace(d.m, traces[0], d.bad);
  const ConcretizeResult multi = concretize_with_traces(d.m, traces, d.bad);
  ASSERT_EQ(multi.status, AtpgStatus::Sat);
  // The single spurious trace must have failed (that is the scenario).
  EXPECT_EQ(single.status, AtpgStatus::Unsat);

  // Replay the found trace (X-init registers take the trace's cycle-1
  // values).
  Sim3 sim(d.m);
  sim.load_initial_state();
  for (GateId r : d.m.regs())
    if (sim.value(r) == Tri::X)
      sim.set(r, cube_lookup(multi.trace.steps[0].state, r));
  for (size_t c = 0; c < multi.trace.steps.size(); ++c) {
    sim.clear_inputs();
    for (const Literal& lit : multi.trace.steps[c].inputs)
      if (d.m.is_input(lit.signal)) sim.set(lit.signal, tri_of(lit.value));
    sim.eval();
    if (c + 1 < multi.trace.steps.size()) sim.step();
  }
  EXPECT_EQ(sim.value(d.bad), Tri::T);
}

TEST(MultiTrace, ConsensusGuidanceKeepsOnlyAgreedLiterals) {
  NetBuilder b;
  const GateId in0 = b.input("i0");
  const GateId in1 = b.input("i1");
  const GateId r = b.reg("r");
  b.set_next(r, b.or_(in0, in1));
  Netlist m = b.take();

  Trace t1, t2;
  t1.steps.resize(2);
  t2.steps.resize(2);
  t1.steps[0].inputs = {{in0, true}, {in1, false}};
  t2.steps[0].inputs = {{in0, true}, {in1, true}};
  t1.steps[1].state = {{r, true}};
  t2.steps[1].state = {{r, true}};
  const std::vector<Cube> consensus = consensus_guidance(m, {t1, t2}, 2);
  // in0=1 agreed; in1 disagreed -> dropped; r=1 agreed.
  EXPECT_EQ(cube_lookup(consensus[0], in0), Tri::T);
  EXPECT_EQ(cube_lookup(consensus[0], in1), Tri::X);
  EXPECT_EQ(cube_lookup(consensus[1], r), Tri::T);
}

TEST(MultiTrace, RfnOptionReducesIterations) {
  const XorDesign d = make_xor_design();

  RfnOptions single;
  single.traces_per_iteration = 1;
  const RfnResult r1 = run_property(d.m, d.bad, single);
  ASSERT_EQ(r1.verdict, Verdict::Fails);

  RfnOptions multi;
  multi.traces_per_iteration = 4;
  const RfnResult r2 = run_property(d.m, d.bad, multi);
  ASSERT_EQ(r2.verdict, Verdict::Fails);
  EXPECT_LE(r2.iterations, r1.iterations);
}

}  // namespace
}  // namespace rfn
