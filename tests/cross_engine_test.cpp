// Cross-engine property tests: the independent engines must agree with
// each other on random designs.
//
//   * sequential ATPG vs BDD reachability: a target is reachable within k
//     cycles iff bounded reachability says so;
//   * BLIF round-trip: write+read preserves sequential behaviour.

#include <gtest/gtest.h>

#include "atpg/seq_atpg.hpp"
#include "mc/image.hpp"
#include "mc/reach.hpp"
#include "netlist/blif.hpp"
#include "netlist/builder.hpp"
#include "sim/sim64.hpp"
#include "util/rng.hpp"

namespace rfn {
namespace {

Netlist random_sequential(Rng& rng, size_t nins, size_t nregs, int gates,
                          std::vector<GateId>* regs_out) {
  NetBuilder b;
  std::vector<GateId> ins, regs, pool;
  for (size_t i = 0; i < nins; ++i) {
    ins.push_back(b.input("i" + std::to_string(i)));
    pool.push_back(ins.back());
  }
  for (size_t i = 0; i < nregs; ++i) {
    regs.push_back(b.reg("r" + std::to_string(i), rng.flip() ? Tri::F : Tri::T));
    pool.push_back(regs.back());
  }
  for (int i = 0; i < gates; ++i) {
    const GateId x = pool[rng.below(pool.size())];
    const GateId y = pool[rng.below(pool.size())];
    const GateId z = pool[rng.below(pool.size())];
    switch (rng.below(5)) {
      case 0: pool.push_back(b.and_(x, y)); break;
      case 1: pool.push_back(b.or_(x, y)); break;
      case 2: pool.push_back(b.xor_(x, y)); break;
      case 3: pool.push_back(b.not_(x)); break;
      case 4: pool.push_back(b.mux(x, y, z)); break;
    }
  }
  for (GateId r : regs) b.set_next(r, pool[pool.size() - 1 - rng.below(8)]);
  b.output("probe", pool.back());
  if (regs_out) *regs_out = regs;
  return b.take();
}

class SeqAtpgVsBdd : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeqAtpgVsBdd, BoundedReachabilityAgrees) {
  Rng rng(GetParam());
  for (int round = 0; round < 5; ++round) {
    std::vector<GateId> regs;
    Netlist m = random_sequential(rng, 2, 4, 18, &regs);

    // Target: a random state cube over two registers.
    const size_t ia_idx = rng.below(regs.size());
    const size_t ib_idx = (ia_idx + 1 + rng.below(regs.size() - 1)) % regs.size();
    const GateId ra = regs[ia_idx];
    const GateId rb = regs[ib_idx];
    const bool va = rng.flip(), vb = rng.flip();

    // Ground truth: BDD rings.
    BddMgr mgr;
    Encoder enc(mgr, m);
    ImageComputer img(enc);
    const Bdd target = mgr.cube({{enc.state_var(ra), va}, {enc.state_var(rb), vb}});
    const ReachResult reach =
        forward_reach(img, enc.initial_states(), mgr.bdd_false());
    ASSERT_EQ(reach.status, ReachStatus::Proved);
    // reachable_at[k]: target intersects some ring with index <= k.
    std::vector<bool> reachable_at;
    bool seen = false;
    for (const Bdd& ring : reach.rings) {
      seen |= ring.intersects(target);
      reachable_at.push_back(seen);
    }

    for (size_t k = 1; k <= reach.rings.size() + 1; ++k) {
      std::vector<Cube> cubes(k);
      cubes[k - 1] = {{ra, va}, {rb, vb}};
      const SeqAtpgResult res = solve_cycle_cubes(TopoIndex(m), cubes);
      ASSERT_NE(res.status, AtpgStatus::Abort);
      // ATPG at depth k asks for the target at exactly cycle k, i.e. after
      // k-1 steps: ring index k-1 (clamped to the fixpoint).
      const size_t ring_idx = std::min(k - 1, reach.rings.size() - 1);
      // A state first reached at ring j is reachable at any later cycle
      // only if revisitable; exact-cycle reachability is what ring j == k-1
      // certifies, so compare against "some ring at index exactly k-1" ...
      // rings are "first reached here", so exact-cycle containment at k-1
      // implies ATPG Sat; ATPG Sat implies reachable within k-1 steps.
      if (!reach.rings[ring_idx].is_false() &&
          reach.rings[ring_idx].intersects(target)) {
        EXPECT_EQ(res.status, AtpgStatus::Sat)
            << "round " << round << " depth " << k;
      }
      if (res.status == AtpgStatus::Sat) {
        EXPECT_TRUE(reachable_at[std::min(k - 1, reachable_at.size() - 1)])
            << "ATPG found a trace the BDD engine says cannot exist (depth " << k
            << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqAtpgVsBdd, ::testing::Values(7, 21, 42, 77));

class BlifRoundTripRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlifRoundTripRandom, PreservesSequentialBehaviour) {
  Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    Netlist m = random_sequential(rng, 3, 5, 25, nullptr);
    Netlist back = read_blif(write_blif(m, "rt"));
    back.check();

    Sim64 sa(m), sb(back);
    Rng stim(GetParam() + 1000 + static_cast<uint64_t>(round));
    Rng ia(5), ib(5);
    sa.load_initial_state(ia);
    sb.load_initial_state(ib);
    const GateId pa = m.output("probe");
    const GateId pb = back.output("probe");
    ASSERT_NE(pb, kNullGate);
    for (int c = 0; c < 16; ++c) {
      for (GateId in : m.inputs()) {
        const uint64_t w = stim.next();
        sa.set(in, w);
        sb.set(back.find(m.name(in)), w);
      }
      sa.eval();
      sb.eval();
      ASSERT_EQ(sa.value(pa), sb.value(pb)) << "cycle " << c;
      sa.step();
      sb.step();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlifRoundTripRandom, ::testing::Values(3, 9, 27));

}  // namespace
}  // namespace rfn
