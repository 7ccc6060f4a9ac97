// Tests for the symbolic model checker: encoder, image ops, reachability,
// and BDD trace extraction.

#include <gtest/gtest.h>

#include "mc/encoder.hpp"
#include "mc/image.hpp"
#include "mc/reach.hpp"
#include "mc/trace.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"
#include "util/rng.hpp"

namespace rfn {
namespace {

TEST(Encoder, SignalFunctions) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r", Tri::T);
  b.set_next(r, b.xor_(r, in));
  Netlist n = b.take();

  BddMgr mgr;
  Encoder enc(mgr, n);
  const Bdd fn = enc.next_fn(r);
  EXPECT_EQ(fn, mgr.var(enc.state_var(r)) ^ mgr.var(enc.input_var(in)));
  const Bdd init = enc.initial_states();
  EXPECT_EQ(init, mgr.var(enc.state_var(r)));
}

TEST(Encoder, InitialStatesWithXInit) {
  NetBuilder b;
  const GateId r0 = b.reg("r0", Tri::F);
  const GateId r1 = b.reg("r1", Tri::X);
  b.set_next(r0, r0);
  b.set_next(r1, r1);
  Netlist n = b.take();
  BddMgr mgr;
  Encoder enc(mgr, n);
  // Only r0 is constrained.
  EXPECT_EQ(enc.initial_states(), mgr.nvar(enc.state_var(r0)));
}

TEST(Encoder, CubeRoundTrip) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r");
  b.set_next(r, in);
  Netlist n = b.take();
  BddMgr mgr;
  Encoder enc(mgr, n);
  const Cube c{{r, true}, {in, false}};
  const Bdd cb = enc.cube_bdd(c);
  const auto lits = mgr.any_cube(cb);
  const Cube back = enc.lits_to_cube(lits);
  EXPECT_EQ(cube_lookup(back, r), Tri::T);
  EXPECT_EQ(cube_lookup(back, in), Tri::F);
}

// A 3-bit counter with enable: closed-form reachability ground truth.
struct CounterDesign {
  Netlist n;
  Word cnt;
  GateId en;
};

CounterDesign make_counter() {
  NetBuilder b;
  CounterDesign d;
  d.en = b.input("en");
  d.cnt = b.reg_word("cnt", 3, 0);
  b.set_next_word(d.cnt, b.mux_word(d.en, d.cnt, b.inc_word(d.cnt)));
  d.n = b.take();
  return d;
}

TEST(Image, PostImageOfCounter) {
  CounterDesign d = make_counter();
  BddMgr mgr;
  Encoder enc(mgr, d.n);
  ImageComputer img(enc);
  // From state 0, one step reaches {0, 1}.
  const Bdd s0 = enc.cube_bdd({{d.cnt[0], false}, {d.cnt[1], false}, {d.cnt[2], false}});
  const Bdd next = img.post_image(s0);
  const Bdd s1 = enc.cube_bdd({{d.cnt[0], true}, {d.cnt[1], false}, {d.cnt[2], false}});
  EXPECT_EQ(next, s0 | s1);
}

TEST(Image, PreImageInvertsPostOnCounter) {
  CounterDesign d = make_counter();
  BddMgr mgr;
  Encoder enc(mgr, d.n);
  ImageComputer img(enc);
  // Pre-image of {3}: {3 (en=0), 2 (en=1)}.
  const Bdd s3 = enc.cube_bdd({{d.cnt[0], true}, {d.cnt[1], true}, {d.cnt[2], false}});
  const Bdd pre = img.pre_image(s3);
  const Bdd s2 = enc.cube_bdd({{d.cnt[0], false}, {d.cnt[1], true}, {d.cnt[2], false}});
  EXPECT_EQ(pre, s3 | s2);
  // With inputs kept, the en literal must distinguish the two.
  const Bdd pre_x = img.pre_image_with_inputs(s3);
  const Bdd en = mgr.var(enc.input_var(d.en));
  EXPECT_EQ(pre_x, (s3 & !en) | (s2 & en));
}

TEST(Reach, CounterFixpointIsFullRange) {
  CounterDesign d = make_counter();
  BddMgr mgr;
  Encoder enc(mgr, d.n);
  ImageComputer img(enc);
  const ReachResult res =
      forward_reach(img, enc.initial_states(), mgr.bdd_false());
  EXPECT_EQ(res.status, ReachStatus::Proved);
  // All 8 counter values reachable.
  EXPECT_DOUBLE_EQ(mgr.sat_count(res.reached, 3), 8.0);
  EXPECT_EQ(res.rings.size(), 8u);  // one new state per step
}

TEST(Reach, UnreachableBadStateIsProved) {
  // Counter over 3 bits that resets at 5: states 5,6,7 unreachable... the
  // comparison is cnt==4 ? 0 : cnt+1 so reachable = {0..4}.
  NetBuilder b;
  const Word cnt = b.reg_word("cnt", 3, 0);
  const GateId wrap = b.eq_const(cnt, 4);
  b.set_next_word(cnt, b.mux_word(wrap, b.inc_word(cnt), b.constant_word(0, 3)));
  const GateId bad_sig = b.eq_const(cnt, 6);
  Netlist n = b.take();

  BddMgr mgr;
  Encoder enc(mgr, n);
  ImageComputer img(enc);
  const Bdd bad = enc.signal_fn(bad_sig);
  const ReachResult res = forward_reach(img, enc.initial_states(), bad);
  EXPECT_EQ(res.status, ReachStatus::Proved);
  EXPECT_DOUBLE_EQ(mgr.sat_count(res.reached, 3), 5.0);
}

TEST(Reach, BadReachableStopsEarly) {
  CounterDesign d = make_counter();
  BddMgr mgr;
  Encoder enc(mgr, d.n);
  ImageComputer img(enc);
  const Bdd bad = enc.cube_bdd({{d.cnt[0], true}, {d.cnt[1], true}, {d.cnt[2], false}});
  const ReachResult res = forward_reach(img, enc.initial_states(), bad);
  EXPECT_EQ(res.status, ReachStatus::BadReachable);
  EXPECT_EQ(res.steps, 3u);  // 0 -> 1 -> 2 -> 3
}

TEST(Trace, ExtractedTraceReplaysOnDesign) {
  CounterDesign d = make_counter();
  BddMgr mgr;
  Encoder enc(mgr, d.n);
  ImageComputer img(enc);
  const GateId bad_sig = d.cnt[0];  // reuse: bad = cnt == 5
  (void)bad_sig;
  const Bdd bad = enc.cube_bdd({{d.cnt[0], true}, {d.cnt[1], false}, {d.cnt[2], true}});
  const ReachResult res = forward_reach(img, enc.initial_states(), bad);
  ASSERT_EQ(res.status, ReachStatus::BadReachable);
  const Trace t = extract_trace_bdd(img, res, bad);
  EXPECT_EQ(t.steps.size(), 6u);  // 0,1,2,3,4,5

  // Replay: the final state must be 5 = 101.
  const TopoIndex topo(d.n);
  Sim3 sim(topo);
  sim.load_initial_state();
  for (size_t c = 0; c < t.steps.size(); ++c) {
    sim.clear_inputs();
    sim.set_cube(t.steps[c].inputs);
    sim.eval();
    if (c + 1 < t.steps.size()) sim.step();
  }
  EXPECT_EQ(sim.value(d.cnt[0]), Tri::T);
  EXPECT_EQ(sim.value(d.cnt[1]), Tri::F);
  EXPECT_EQ(sim.value(d.cnt[2]), Tri::T);
}

TEST(Trace, TraceStatesLieInRings) {
  CounterDesign d = make_counter();
  BddMgr mgr;
  Encoder enc(mgr, d.n);
  ImageComputer img(enc);
  const Bdd bad = enc.cube_bdd({{d.cnt[1], true}});  // any state with bit1 set
  const ReachResult res = forward_reach(img, enc.initial_states(), bad);
  ASSERT_EQ(res.status, ReachStatus::BadReachable);
  const Trace t = extract_trace_bdd(img, res, bad);
  for (size_t i = 0; i < t.steps.size(); ++i) {
    const Bdd sc = enc.cube_bdd(t.steps[i].state);
    EXPECT_TRUE(sc.implies(res.rings[i])) << "step " << i;
  }
}

// Property: post-image agrees with explicit-state successor computation on
// random small sequential designs.
class ImageRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImageRandomTest, PostImageMatchesExplicitStateSearch) {
  Rng rng(GetParam());
  NetBuilder b;
  const size_t nregs = 4, nins = 2;
  std::vector<GateId> ins, regs;
  for (size_t i = 0; i < nins; ++i) ins.push_back(b.input("i" + std::to_string(i)));
  for (size_t i = 0; i < nregs; ++i) regs.push_back(b.reg("r" + std::to_string(i)));
  std::vector<GateId> pool = ins;
  pool.insert(pool.end(), regs.begin(), regs.end());
  for (int i = 0; i < 20; ++i) {
    const GateId x = pool[rng.below(pool.size())];
    const GateId y = pool[rng.below(pool.size())];
    switch (rng.below(4)) {
      case 0: pool.push_back(b.and_(x, y)); break;
      case 1: pool.push_back(b.or_(x, y)); break;
      case 2: pool.push_back(b.xor_(x, y)); break;
      case 3: pool.push_back(b.not_(x)); break;
    }
  }
  for (GateId r : regs) b.set_next(r, pool[pool.size() - 1 - rng.below(6)]);
  Netlist n = b.take();

  BddMgr mgr;
  Encoder enc(mgr, n);
  ImageComputer img(enc);

  // Explicit successor relation via simulation.
  const TopoIndex topo(n);
  Sim3 sim(topo);
  auto state_bits = [&](uint32_t s) {
    std::vector<bool> bits(nregs);
    for (size_t i = 0; i < nregs; ++i) bits[i] = (s >> i) & 1;
    return bits;
  };
  for (int round = 0; round < 8; ++round) {
    // Random source set.
    std::vector<bool> in_set(1u << nregs);
    for (auto&& v : in_set) v = rng.flip();
    std::vector<BddLit> dc;
    Bdd q = mgr.bdd_false();
    for (uint32_t s = 0; s < in_set.size(); ++s) {
      if (!in_set[s]) continue;
      std::vector<BddLit> lits;
      for (size_t i = 0; i < nregs; ++i)
        lits.push_back({enc.state_var(regs[i]), ((s >> i) & 1) != 0});
      q |= mgr.cube(lits);
    }
    const Bdd post = img.post_image(q);

    // Ground truth.
    std::vector<bool> succ(1u << nregs, false);
    for (uint32_t s = 0; s < in_set.size(); ++s) {
      if (!in_set[s]) continue;
      for (uint32_t x = 0; x < (1u << nins); ++x) {
        const auto bits = state_bits(s);
        for (size_t i = 0; i < nregs; ++i) sim.set(regs[i], tri_of(bits[i]));
        for (size_t i = 0; i < nins; ++i) sim.set(ins[i], tri_of((x >> i) & 1));
        sim.eval();
        uint32_t t = 0;
        for (size_t i = 0; i < nregs; ++i)
          if (sim.value(n.reg_data(regs[i])) == Tri::T) t |= 1u << i;
        succ[t] = true;
      }
    }
    for (uint32_t t = 0; t < succ.size(); ++t) {
      std::vector<bool> assign(mgr.num_vars(), false);
      for (size_t i = 0; i < nregs; ++i)
        assign[enc.state_var(regs[i])] = (t >> i) & 1;
      EXPECT_EQ(mgr.eval(post, assign), succ[t]) << "state " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageRandomTest, ::testing::Values(3, 14, 159, 265));

}  // namespace
}  // namespace rfn
