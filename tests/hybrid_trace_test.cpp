// Tests for the hybrid BDD-ATPG trace engine (paper Section 2.2) and the
// saved-variable-order machinery it shares the manager with.

#include <gtest/gtest.h>

#include "core/abstraction.hpp"
#include "core/hybrid_trace.hpp"
#include "mc/image.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"

namespace rfn {
namespace {

// Replays an abstract trace on the abstract model itself: pseudo-inputs are
// driven from the input cubes, registers evolve; the final state must
// satisfy `bad`.
void check_abstract_trace(const Netlist& n, const Trace& t, GateId bad_sig) {
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  for (GateId r : n.regs())
    if (sim.value(r) == Tri::X) sim.set(r, cube_lookup(t.steps[0].state, r));
  for (size_t c = 0; c < t.steps.size(); ++c) {
    sim.clear_inputs();
    sim.set_cube(t.steps[c].inputs);
    sim.eval();
    if (c + 1 < t.steps.size()) sim.step();
  }
  EXPECT_EQ(sim.value(bad_sig), Tri::T);
}

// A "wide" abstract model: the watchdog fires when a funnel condition over
// many pseudo-inputs coincides with a register pattern. Pre-image on the
// model itself would see all the inputs; the min-cut sees only the funnels.
struct WideModel {
  Netlist n;
  GateId bad;
};

WideModel make_wide_model(size_t fan) {
  NetBuilder b;
  const GateId r0 = b.reg("r0");
  const GateId r1 = b.reg("r1");
  // Funnel 1: AND-tree over `fan` inputs.
  GateId all_ones = b.input("a0");
  for (size_t i = 1; i < fan; ++i) all_ones = b.and_(all_ones, b.input("a" + std::to_string(i)));
  // Funnel 2: XOR-tree.
  GateId parity = b.input("p0");
  for (size_t i = 1; i < fan; ++i) parity = b.xor_(parity, b.input("p" + std::to_string(i)));
  b.set_next(r0, all_ones);
  b.set_next(r1, b.and_(r0, parity));
  const GateId bad = b.reg("bad");
  b.set_next(bad, b.or_(bad, r1));
  b.output("bad", bad);
  WideModel w;
  w.bad = bad;
  w.n = b.take();
  return w;
}

TEST(HybridTrace, FindsTraceOnWideInputModel) {
  const WideModel w = make_wide_model(16);
  BddMgr mgr;
  Encoder enc(mgr, w.n);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.var(enc.state_var(w.bad));
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_EQ(reach.status, ReachStatus::BadReachable);

  HybridTraceStats st;
  const Trace t = hybrid_error_trace(enc, w.n, reach, bad_set, {}, &st);
  ASSERT_FALSE(t.empty());
  EXPECT_EQ(t.cycles(), 4u);  // inputs@1 -> r0@2 -> r1@3 -> bad@4
  // The min cut compresses 32 inputs into 2 funnels.
  EXPECT_EQ(st.model_inputs, 32u);
  EXPECT_LE(st.mc_inputs, 4u);
  check_abstract_trace(w.n, t, w.bad);
}

TEST(HybridTrace, MinCutCubesRouteThroughAtpg) {
  const WideModel w = make_wide_model(12);
  BddMgr mgr;
  Encoder enc(mgr, w.n);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.var(enc.state_var(w.bad));
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_EQ(reach.status, ReachStatus::BadReachable);
  HybridTraceStats st;
  const Trace t = hybrid_error_trace(enc, w.n, reach, bad_set, {}, &st);
  ASSERT_FALSE(t.empty());
  // The funnels are internal signals of N, so at least one backward step
  // must have produced a min-cut cube that combinational ATPG justified.
  EXPECT_GT(st.mincut_cubes, 0u);
  EXPECT_GT(st.atpg_calls, 0u);
  // And the final trace drives real inputs: replay must reach bad.
  check_abstract_trace(w.n, t, w.bad);
}

TEST(HybridTrace, TraceStatesStayInRings) {
  const WideModel w = make_wide_model(8);
  BddMgr mgr;
  Encoder enc(mgr, w.n);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.var(enc.state_var(w.bad));
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_EQ(reach.status, ReachStatus::BadReachable);
  const Trace t = hybrid_error_trace(enc, w.n, reach, bad_set);
  ASSERT_FALSE(t.empty());
  for (size_t i = 0; i < t.steps.size(); ++i) {
    const Bdd sc = enc.cube_bdd(t.steps[i].state);
    EXPECT_TRUE(sc.implies(reach.rings[i])) << "step " << i;
  }
}

TEST(SavedOrder, RoundTripAcrossIterations) {
  // Build an abstraction, reorder it, save; rebuild a bigger abstraction
  // and apply: shared signals must preserve their relative order.
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r0 = b.reg("r0");
  const GateId r1 = b.reg("r1");
  const GateId r2 = b.reg("r2");
  b.set_next(r0, in);
  b.set_next(r1, b.xor_(r0, in));
  b.set_next(r2, b.and_(r1, r0));
  b.output("p", r2);
  Netlist m = b.take();

  SavedOrder saved;
  {
    const Subcircuit sub = extract_abstract_model(TopoIndex(m), {r2}, {r2});
    BddMgr mgr;
    Encoder enc(mgr, sub.net);
    // Force a specific order: reverse everything.
    std::vector<BddVar> rev = mgr.current_order();
    std::reverse(rev.begin(), rev.end());
    mgr.set_order(rev);
    saved = save_order(mgr, enc, sub);
    EXPECT_FALSE(saved.empty());
  }
  {
    const Subcircuit sub = extract_abstract_model(TopoIndex(m), {r2}, {r1, r2});
    BddMgr mgr;
    Encoder enc(mgr, sub.net);
    apply_saved_order(mgr, enc, sub, saved);
    // The saved tokens that survive must appear in saved relative order.
    std::vector<GateId> seen;
    for (uint32_t lvl = 0; lvl < mgr.num_vars(); ++lvl) {
      const BddVar v = mgr.var_at_level(lvl);
      const GateId reg = enc.reg_of_var(v);
      if (reg != kNullGate && !enc.is_next_var(v)) seen.push_back(sub.to_old(reg));
    }
    // r2 was below r1 (its pseudo-input) in the reversed order... just
    // verify determinism and integrity rather than a specific order:
    mgr.check_integrity();
    EXPECT_EQ(seen.size(), 2u);
    // Applying again is idempotent.
    const auto order_before = mgr.current_order();
    apply_saved_order(mgr, enc, sub, saved);
    EXPECT_EQ(mgr.current_order(), order_before);
  }
}

TEST(SavedOrder, EmptySavedOrderIsNoop) {
  NetBuilder b;
  const GateId r = b.reg("r");
  b.set_next(r, b.not_(r));
  Netlist m = b.take();
  const Subcircuit sub = extract_abstract_model(TopoIndex(m), {r}, {r});
  BddMgr mgr;
  Encoder enc(mgr, sub.net);
  const auto before = mgr.current_order();
  apply_saved_order(mgr, enc, sub, SavedOrder{});
  EXPECT_EQ(mgr.current_order(), before);
}

}  // namespace
}  // namespace rfn
