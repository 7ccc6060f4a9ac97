// Unit tests for abstract-model extraction (Step 1 of RFN).

#include "netlist/subcircuit.hpp"

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "sim/sim64.hpp"
#include "util/rng.hpp"

namespace rfn {
namespace {

// Two-register chain with a property over the last register:
//   in -> [r1] -> not -> [r2] ; prop = r2
struct Chain {
  Netlist n;
  GateId in, r1, r2;
};

Chain make_chain() {
  NetBuilder b;
  Chain c;
  c.in = b.input("in");
  c.r1 = b.reg("r1");
  c.r2 = b.reg("r2");
  b.set_next(c.r1, c.in);
  b.set_next(c.r2, b.not_(c.r1));
  b.output("prop", c.r2);
  c.n = b.take();
  return c;
}

TEST(Subcircuit, InitialAbstractionCutsAtRegisters) {
  const Chain c = make_chain();
  // Include only r2: r1 must become a pseudo primary input.
  const Subcircuit sub = extract_abstract_model(TopoIndex(c.n), {c.r2}, {c.r2});
  EXPECT_EQ(sub.net.num_regs(), 1u);
  ASSERT_EQ(sub.pseudo_inputs.size(), 1u);
  EXPECT_EQ(sub.to_old(sub.pseudo_inputs[0]), c.r1);
  EXPECT_TRUE(sub.net.is_input(sub.pseudo_inputs[0]));
  // The original primary input is not in the cone of r2's data logic... it
  // feeds r1 which was cut, so it must be absent.
  EXPECT_EQ(sub.to_new(c.in), kNullGate);
}

TEST(Subcircuit, RefinedAbstractionAbsorbsPseudoInput) {
  const Chain c = make_chain();
  const Subcircuit sub = extract_abstract_model(TopoIndex(c.n), {c.r2}, {c.r1, c.r2});
  EXPECT_EQ(sub.net.num_regs(), 2u);
  EXPECT_TRUE(sub.pseudo_inputs.empty());
  // Now the real primary input appears.
  EXPECT_NE(sub.to_new(c.in), kNullGate);
  EXPECT_TRUE(sub.net.is_input(sub.to_new(c.in)));
}

TEST(Subcircuit, PreservesInitialValuesAndNames) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("state", Tri::T);
  b.set_next(r, b.xor_(r, in));
  b.output("p", r);
  Netlist n = b.take();
  const Subcircuit sub = extract_abstract_model(TopoIndex(n), {r}, {r});
  const GateId nr = sub.to_new(r);
  ASSERT_NE(nr, kNullGate);
  EXPECT_EQ(sub.net.reg_init(nr), Tri::T);
  EXPECT_EQ(sub.net.name(nr), "state");
  EXPECT_NE(sub.net.output("p"), kNullGate);
}

TEST(Subcircuit, CoiReduceKeepsBehavior) {
  // COI reduction must be exact: simulate both designs in lockstep.
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r1 = b.reg("r1");
  const GateId r2 = b.reg("r2");
  b.set_next(r1, b.xor_(r1, in));
  b.set_next(r2, b.and_(r1, in));
  // Unrelated logic that COI must drop.
  const GateId junk = b.reg("junk");
  b.set_next(junk, b.not_(junk));
  b.output("prop", b.or_(r2, r1));
  Netlist m = b.take();

  const GateId prop = m.output("prop");
  const Subcircuit sub = coi_reduce(m, {prop});
  EXPECT_EQ(sub.net.num_regs(), 2u);  // junk dropped
  EXPECT_TRUE(sub.pseudo_inputs.empty());

  Sim64 sim_m(m), sim_n(sub.net);
  Rng rng(7);
  Rng rng2(123);
  sim_m.load_initial_state(rng2);
  sim_n.load_initial_state(rng2);
  const GateId nprop = sub.net.output("prop");
  const GateId nin = sub.to_new(in);
  for (int cycle = 0; cycle < 20; ++cycle) {
    const uint64_t w = rng.next();
    sim_m.set(in, w);
    sim_n.set(nin, w);
    sim_m.eval();
    sim_n.eval();
    EXPECT_EQ(sim_m.value(prop), sim_n.value(nprop)) << "cycle " << cycle;
    sim_m.step();
    sim_n.step();
  }
}

TEST(Subcircuit, CubeTranslation) {
  const Chain c = make_chain();
  const Subcircuit sub = extract_abstract_model(TopoIndex(c.n), {c.r2}, {c.r2});
  const GateId nr2 = sub.to_new(c.r2);
  Cube abstract{{nr2, true}, {sub.pseudo_inputs[0], false}};
  const Cube original = sub.cube_to_old(abstract);
  EXPECT_EQ(cube_lookup(original, c.r2), Tri::T);
  EXPECT_EQ(cube_lookup(original, c.r1), Tri::F);

  Cube big{{c.r2, false}, {c.in, true}};  // c.in not in N -> dropped
  const Cube back = sub.cube_to_new(big);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(cube_lookup(back, nr2), Tri::F);
}

// Two properties over one shared pipeline plus a private register each:
//   in -> [shared] -> not -> [ra] ; prop_a = ra
//                  \-> and -> [rb] ; prop_b = rb
struct TwoProps {
  Netlist n;
  GateId in, shared, ra, rb, prop_a, prop_b;
};

TwoProps make_two_props() {
  NetBuilder b;
  TwoProps t;
  t.in = b.input("in");
  t.shared = b.reg("shared");
  t.ra = b.reg("ra");
  t.rb = b.reg("rb");
  b.set_next(t.shared, t.in);
  b.set_next(t.ra, b.not_(t.shared));
  b.set_next(t.rb, b.and_(t.shared, t.in));
  t.prop_a = t.ra;
  t.prop_b = t.rb;
  b.output("prop_a", t.ra);
  b.output("prop_b", t.rb);
  t.n = b.take();
  return t;
}

TEST(Subcircuit, MultiSinkExtractionCoversEveryRoot) {
  const TwoProps t = make_two_props();
  // Both property roots, neither feeding the other: the multi-sink
  // extraction must contain both cones in one model.
  const Subcircuit sub = extract_abstract_model(TopoIndex(t.n), {t.prop_a, t.prop_b},
                                                {t.ra, t.rb});
  EXPECT_NE(sub.to_new(t.prop_a), kNullGate);
  EXPECT_NE(sub.to_new(t.prop_b), kNullGate);
  EXPECT_EQ(sub.net.num_regs(), 2u);
  // The shared upstream register was not included: exactly one pseudo input
  // serves both cones.
  ASSERT_EQ(sub.pseudo_inputs.size(), 1u);
  EXPECT_EQ(sub.to_old(sub.pseudo_inputs[0]), t.shared);
}

TEST(Subcircuit, MultiSinkSupersetOfSingleSink) {
  const TwoProps t = make_two_props();
  const Subcircuit both = extract_abstract_model(TopoIndex(t.n), {t.prop_a, t.prop_b},
                                                 {t.ra, t.rb});
  const Subcircuit only_a = extract_abstract_model(TopoIndex(t.n), {t.prop_a}, {t.ra});
  // Everything in the single-sink model appears in the multi-sink one.
  for (GateId nw = 0; nw < only_a.net.size(); ++nw)
    EXPECT_TRUE(both.contains_old(only_a.to_old(nw)));
  EXPECT_FALSE(only_a.contains_old(t.rb));
}

TEST(Subcircuit, AbstractionIsMonotone) {
  // Growing the included set never removes cells from the model.
  NetBuilder b;
  const GateId in = b.input("in");
  Word regs(4);
  regs[0] = b.reg("a");
  regs[1] = b.reg("b");
  regs[2] = b.reg("c");
  regs[3] = b.reg("d");
  b.set_next(regs[0], in);
  b.set_next(regs[1], b.not_(regs[0]));
  b.set_next(regs[2], b.and_(regs[1], in));
  b.set_next(regs[3], b.or_(regs[2], regs[0]));
  b.output("p", regs[3]);
  Netlist m = b.take();

  size_t prev_cells = 0;
  std::vector<GateId> included;
  for (int k = 3; k >= 0; --k) {
    included.push_back(regs[static_cast<size_t>(k)]);
    const Subcircuit sub = extract_abstract_model(TopoIndex(m), {regs[3]}, included);
    EXPECT_GE(sub.net.size(), prev_cells);
    prev_cells = sub.net.size();
    EXPECT_EQ(sub.net.num_regs(), included.size());
  }
}

}  // namespace
}  // namespace rfn
