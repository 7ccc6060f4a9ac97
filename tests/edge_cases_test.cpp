// Edge-case tests across modules: degenerate designs, boundary parameters,
// and less-traveled API paths.

#include <gtest/gtest.h>

#include "atpg/comb_atpg.hpp"
#include "atpg/frame_view.hpp"
#include "bdd/bdd.hpp"
#include "core/plain_mc.hpp"
#include "core/rfn.hpp"
#include "mc/image.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"

namespace rfn {
namespace {

TEST(EdgeCases, RfnOnCombinationalOnlyProperty) {
  // bad depends only on primary inputs: no registers anywhere. The property
  // is falsifiable in one cycle.
  NetBuilder b;
  const GateId x = b.input("x");
  const GateId y = b.input("y");
  const GateId bad = b.and_(x, b.not_(y));
  b.output("bad", bad);
  Netlist m = b.take();

  const RfnResult res = run_property(m, m.output("bad"), {});
  EXPECT_EQ(res.verdict, Verdict::Fails);
  ASSERT_FALSE(res.error_trace.empty());
  // The trace's inputs must actually trigger the violation.
  const TopoIndex topo(m);
  Sim3 sim(topo);
  sim.set_cube(res.error_trace.steps.back().inputs);
  sim.eval();
  EXPECT_EQ(sim.value(bad), Tri::T);
}

TEST(EdgeCases, RfnOnStructurallyFalseProperty) {
  // bad folds to a constant 0 at build time: one iteration, proved.
  NetBuilder b;
  const GateId x = b.input("x");
  const GateId bad = b.and_(x, b.not_(x));  // folds to const0
  b.output("bad", bad);
  Netlist m = b.take();
  EXPECT_EQ(run_property(m, m.output("bad"), {}).verdict, Verdict::Holds);
}

TEST(EdgeCases, RfnBadAlreadyTrueAtInit) {
  // The watchdog initializes to 1: a zero-length violation.
  NetBuilder b;
  const GateId bad = b.reg("bad", Tri::T);
  b.set_next(bad, bad);
  b.output("bad", bad);
  Netlist m = b.take();
  const RfnResult res = run_property(m, m.output("bad"), {});
  EXPECT_EQ(res.verdict, Verdict::Fails);
  EXPECT_EQ(res.error_trace.cycles(), 1u);
}

TEST(EdgeCases, PlainMcOnSingleRegister) {
  NetBuilder b;
  const GateId r = b.reg("r", Tri::F);
  b.set_next(r, r);
  b.output("bad", r);
  Netlist m = b.take();
  EXPECT_EQ(plain_model_check(m, m.output("bad")).verdict,
            Verdict::Holds);
}

TEST(EdgeCases, FrameViewOfEverySignalResolvesEverything) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r");
  const GateId next = b.xor_(r, in);
  b.set_next(r, next);
  Netlist m = b.take();
  std::vector<GateId> all;
  for (GateId g = 0; g < m.size(); ++g) all.push_back(g);
  const TopoIndex topo(m);
  const FrameView v(FrameNodes(topo, 3, m.regs()), std::vector<std::vector<GateId>>(3, all));
  for (size_t f = 1; f <= 3; ++f) {
    EXPECT_NE(v.node(f, in), kNullGate);
    EXPECT_NE(v.node(f, r), kNullGate);
  }
  // Frame 1 register is the init constant; later frames alias comb nets.
  EXPECT_EQ(v.type(v.node(1, r)), GateType::Const0);
  EXPECT_EQ(v.node(2, r), v.node(1, next));
  EXPECT_EQ(v.node(3, r), v.node(2, next));
  // Every cell in every frame but the two aliased registers is a node.
  EXPECT_EQ(v.cone_nodes(), 3 * m.size() - 2);
}

TEST(EdgeCases, JustifyEmptyTargetIsTriviallySat) {
  NetBuilder b;
  const GateId x = b.input("x");
  b.output("o", b.not_(x));
  Netlist n = b.take();
  const CombAtpgResult res = justify(n, {});
  EXPECT_EQ(res.status, AtpgStatus::Sat);
  EXPECT_TRUE(res.free_assignment.empty());
}

TEST(EdgeCases, JustifyTargetOnInputItself) {
  NetBuilder b;
  const GateId x = b.input("x");
  b.output("o", x);
  Netlist n = b.take();
  const CombAtpgResult res = justify(n, {{x, true}});
  ASSERT_EQ(res.status, AtpgStatus::Sat);
  EXPECT_EQ(cube_lookup(res.free_assignment, x), Tri::T);
}

TEST(EdgeCases, CombAtpgCancelAborts) {
  // A hard random-ish instance under an expired token must abort, not hang.
  NetBuilder b;
  std::vector<GateId> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(b.input("x" + std::to_string(i)));
  GateId acc = xs[0];
  for (size_t i = 1; i < xs.size(); ++i) acc = b.xor_(acc, xs[i]);
  Netlist n = b.take();
  const CancelToken expired(0.0);
  AtpgOptions opt;
  opt.cancel = &expired;
  opt.max_backtracks = 0;
  const CombAtpgResult res = justify(n, {{acc, true}}, opt);
  // With zero budget the only acceptable outcomes are an instant answer via
  // pure implication or an abort.
  EXPECT_NE(res.status, AtpgStatus::Unsat);
}

TEST(EdgeCases, FirstCubesRespectsLimit) {
  BddMgr mgr(6);
  Bdd f = mgr.bdd_false();
  for (BddVar v = 0; v < 6; ++v) f |= mgr.var(v);
  EXPECT_EQ(mgr.first_cubes(f, 3).size(), 3u);
  EXPECT_EQ(mgr.first_cubes(f, 0).size(), 0u);
  EXPECT_TRUE(mgr.first_cubes(mgr.bdd_false(), 8).empty());
  const auto all = mgr.first_cubes(mgr.bdd_true(), 8);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].empty());
}

TEST(EdgeCases, NodeBudgetReturnsNullGracefully) {
  BddMgr mgr(24);
  mgr.set_node_budget(16);  // absurdly tight
  Bdd f = mgr.var(0);
  for (BddVar v = 1; v < 24; ++v) {
    f = f ^ mgr.var(v);
    if (f.is_null()) break;
  }
  EXPECT_TRUE(f.is_null());  // parity of 24 vars cannot fit in 16 nodes
  // The manager remains consistent and usable under the budget.
  mgr.check_integrity();
  mgr.set_node_budget(0);
  const Bdd g = mgr.var(2) & mgr.var(3);
  EXPECT_FALSE(g.is_null());
}

TEST(EdgeCases, EvalGate2WideGates) {
  bool v[10];
  std::fill(std::begin(v), std::end(v), true);
  EXPECT_TRUE(eval_gate2(GateType::And, v, 10));
  v[4] = false;
  EXPECT_FALSE(eval_gate2(GateType::And, v, 10));
  EXPECT_TRUE(eval_gate2(GateType::Nand, v, 10));
  EXPECT_TRUE(eval_gate2(GateType::Or, v, 10));
  bool zeros[10] = {};
  EXPECT_TRUE(eval_gate2(GateType::Nor, zeros, 10));
}

TEST(EdgeCases, CubeToStringUsesNames) {
  NetBuilder b;
  const GateId x = b.input("request");
  const GateId y = b.input("");
  Netlist n = b.take();
  const std::string s = cube_to_string(n, {{x, true}, {y, false}});
  EXPECT_NE(s.find("request=1"), std::string::npos);
  EXPECT_NE(s.find("g"), std::string::npos);  // unnamed falls back to gN
}

TEST(EdgeCases, ImageComputerOnRegisterFreeModel) {
  NetBuilder b;
  const GateId x = b.input("x");
  b.output("o", b.not_(x));
  Netlist n = b.take();
  BddMgr mgr;
  Encoder enc(mgr, n);
  ImageComputer img(enc);
  EXPECT_EQ(img.num_partitions(), 0u);
  // Post-image of "all states" in a 0-register model is "all states".
  EXPECT_EQ(img.post_image(mgr.bdd_true()), mgr.bdd_true());
  const ReachResult r = forward_reach(img, enc.initial_states(), mgr.bdd_false());
  EXPECT_EQ(r.status, ReachStatus::Proved);
}

TEST(EdgeCases, SubcircuitOfEverythingIsIdentityShaped) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r");
  b.set_next(r, b.xor_(r, in));
  b.output("p", r);
  Netlist m = b.take();
  const Subcircuit sub = extract_abstract_model(TopoIndex(m), {r}, {r});
  EXPECT_EQ(sub.net.num_regs(), m.num_regs());
  EXPECT_EQ(sub.net.num_inputs(), m.num_inputs());
  EXPECT_TRUE(sub.pseudo_inputs.empty());
}

}  // namespace
}  // namespace rfn
