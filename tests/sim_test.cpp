// Unit + property tests for the 3-valued and 64-way simulators.

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "sim/sim3.hpp"
#include "sim/sim64.hpp"
#include "util/rng.hpp"

namespace rfn {
namespace {

TEST(Sim3, CombinationalEvaluation) {
  NetBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  const GateId g = b.and_(a, b.not_(c));
  Netlist n = b.take();
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.set(a, Tri::T);
  sim.set(c, Tri::F);
  sim.eval();
  EXPECT_EQ(sim.value(g), Tri::T);
  sim.set(c, Tri::X);
  sim.eval();
  EXPECT_EQ(sim.value(g), Tri::X);
  sim.set(a, Tri::F);
  sim.eval();
  EXPECT_EQ(sim.value(g), Tri::F);
}

TEST(Sim3, SequentialStepAndInit) {
  // Toggle register starting at 1.
  NetBuilder b;
  const GateId r = b.reg("t", Tri::T);
  b.set_next(r, b.not_(r));
  Netlist n = b.take();
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  EXPECT_EQ(sim.value(r), Tri::T);
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.value(r), Tri::F);
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.value(r), Tri::T);
}

TEST(Sim3, RegisterChainLatchesPreEdgeValues) {
  // r2 <- r1 <- in : after one step r2 must hold r1's OLD value.
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r1 = b.reg("r1", Tri::T);
  const GateId r2 = b.reg("r2", Tri::F);
  b.set_next(r1, in);
  b.set_next(r2, r1);
  Netlist n = b.take();
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  sim.set(in, Tri::F);
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.value(r1), Tri::F);
  EXPECT_EQ(sim.value(r2), Tri::T);  // old r1, not new
}

TEST(Sim3, XInitRegistersStartUnknown) {
  NetBuilder b;
  const GateId r = b.reg("r", Tri::X);
  b.set_next(r, r);
  Netlist n = b.take();
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  EXPECT_EQ(sim.value(r), Tri::X);
  EXPECT_TRUE(sim.state_cube().empty());
}

TEST(Sim3, StateCubeSkipsX) {
  NetBuilder b;
  const GateId r1 = b.reg("r1", Tri::T);
  const GateId r2 = b.reg("r2", Tri::X);
  b.set_next(r1, r1);
  b.set_next(r2, r2);
  Netlist n = b.take();
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  const Cube c = sim.state_cube();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].signal, r1);
  EXPECT_TRUE(c[0].value);
}

// Property: 3-valued simulation is a conservative abstraction of binary
// simulation — whenever Sim3 reports a binary value under X inputs, every
// concrete completion (sampled via Sim64) agrees.
TEST(SimProperty, Sim3ConservativeWrtSim64) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    // Random small combinational netlist.
    NetBuilder b;
    std::vector<GateId> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(b.input("i" + std::to_string(i)));
    for (int i = 0; i < 30; ++i) {
      const GateId a = pool[rng.below(pool.size())];
      const GateId c = pool[rng.below(pool.size())];
      switch (rng.below(5)) {
        case 0: pool.push_back(b.and_(a, c)); break;
        case 1: pool.push_back(b.or_(a, c)); break;
        case 2: pool.push_back(b.xor_(a, c)); break;
        case 3: pool.push_back(b.not_(a)); break;
        case 4: pool.push_back(b.mux(a, c, pool[rng.below(pool.size())])); break;
      }
    }
    Netlist n = b.take();

    // Pick a random 3-valued input assignment.
    std::vector<Tri> in3;
    for (GateId i : n.inputs()) {
      (void)i;
      const uint64_t r = rng.below(3);
      in3.push_back(r == 0 ? Tri::F : (r == 1 ? Tri::T : Tri::X));
    }
    const TopoIndex s3_topo(n);
    Sim3 s3(s3_topo);
    size_t idx = 0;
    for (GateId i : n.inputs()) s3.set(i, in3[idx++]);
    s3.eval();

    // 64 random completions of the X inputs.
    Sim64 s64(n);
    idx = 0;
    for (GateId i : n.inputs()) {
      const Tri v = in3[idx++];
      s64.set(i, v == Tri::X ? rng.next() : (v == Tri::T ? ~0ULL : 0ULL));
    }
    s64.eval();
    for (GateId g = 0; g < n.size(); ++g) {
      if (!n.is_comb(g)) continue;
      const Tri v3 = s3.value(g);
      if (v3 == Tri::X) continue;
      const uint64_t want = v3 == Tri::T ? ~0ULL : 0ULL;
      EXPECT_EQ(s64.value(g), want) << "gate " << g << " round " << round;
    }
  }
}

TEST(Sim64, SequentialCounter) {
  NetBuilder b;
  const Word cnt = b.reg_word("cnt", 8, 0);
  b.set_next_word(cnt, b.inc_word(cnt));
  Netlist n = b.take();
  Sim64 sim(n);
  Rng rng(1);
  sim.load_initial_state(rng);
  for (int cycle = 0; cycle < 10; ++cycle) {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) v |= static_cast<uint64_t>(sim.value_bit(cnt[i], 0)) << i;
    EXPECT_EQ(v, static_cast<uint64_t>(cycle));
    sim.eval();
    sim.step();
  }
}

TEST(SimulateTrace, DrivesSignalsFromCubes) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r", Tri::F);
  b.set_next(r, in);
  b.output("p", r);
  Netlist n = b.take();
  Trace t;
  t.steps.push_back({{}, {{in, true}}});  // cycle 1: drive in=1
  t.steps.push_back({{}, {}});            // cycle 2: observe
  EXPECT_EQ(simulate_trace(n, t, r), Tri::T);
  Trace t0;
  t0.steps.push_back({{}, {{in, false}}});
  t0.steps.push_back({{}, {}});
  EXPECT_EQ(simulate_trace(n, t0, r), Tri::F);
}

}  // namespace
}  // namespace rfn
