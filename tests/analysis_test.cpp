// Unit tests for structural analyses: topo order, cones, COI, BFS distances.

#include "netlist/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "netlist/builder.hpp"
#include "util/rng.hpp"

namespace rfn {
namespace {

// A small 3-stage register pipeline:
//   in -> [r1] -> not -> [r2] -> and(in2) -> [r3] -> out
struct Pipeline {
  Netlist n;
  GateId in, in2, r1, r2, r3, out;
};

Pipeline make_pipeline() {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId in2 = b.input("in2");
  const GateId r1 = b.reg("r1");
  const GateId r2 = b.reg("r2");
  const GateId r3 = b.reg("r3");
  b.set_next(r1, in);
  const GateId inv = b.not_(r1);
  b.set_next(r2, inv);
  const GateId a = b.and_(r2, in2);
  b.set_next(r3, a);
  b.output("out", r3);
  Pipeline p;
  p.in = in;
  p.in2 = in2;
  p.r1 = r1;
  p.r2 = r2;
  p.r3 = r3;
  p.out = r3;
  p.n = b.take();
  return p;
}

TEST(Analysis, TopoOrderRespectsDependencies) {
  const Pipeline p = make_pipeline();
  const std::vector<GateId> order = topo_order(p.n);
  EXPECT_EQ(order.size(), p.n.size());
  std::vector<size_t> pos(p.n.size());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (GateId g = 0; g < p.n.size(); ++g) {
    if (!p.n.is_comb(g)) continue;
    for (GateId f : p.n.fanins(g)) EXPECT_LT(pos[f], pos[g]) << "gate " << g;
  }
}

TEST(Analysis, FanoutListsAreInverseOfFanins) {
  const Pipeline p = make_pipeline();
  const FanoutTable fanouts = fanout_lists(p.n);
  for (GateId g = 0; g < p.n.size(); ++g) {
    for (GateId f : p.n.fanins(g)) {
      const std::span<const GateId> fo = fanouts[f];
      EXPECT_NE(std::find(fo.begin(), fo.end(), g), fo.end());
    }
  }
}

TEST(Analysis, CsrFanoutsInvertFanins) {
  // Wide gates, repeated fanins, a register and dead ends: a few hundred
  // cells, each reading random earlier cells.
  Netlist n;
  for (int i = 0; i < 8; ++i) n.add(GateType::Input);
  const GateId r = n.add(GateType::Reg);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const GateId a = static_cast<GateId>(rng.below(n.size()));
    const GateId b = static_cast<GateId>(rng.below(n.size()));
    if (i % 5 == 0)
      n.add(GateType::Or, {a, b, a, r});
    else if (i % 5 == 1)
      n.add(GateType::Not, {a});
    else
      n.add(GateType::And, {a, b});
  }
  n.set_reg_data(r, static_cast<GateId>(n.size() - 1));
  n.check();

  std::vector<std::vector<GateId>> naive(n.size());
  for (GateId g = 0; g < n.size(); ++g)
    for (GateId f : n.fanins(g)) naive[f].push_back(g);
  const FanoutTable fanouts = fanout_lists(n);
  ASSERT_EQ(fanouts.offsets.size(), n.size() + 1);
  size_t edges = 0;
  for (GateId g = 0; g < n.size(); ++g) {
    const std::span<const GateId> fo = fanouts[g];
    EXPECT_EQ(std::vector<GateId>(fo.begin(), fo.end()), naive[g]) << "gate " << g;
    EXPECT_TRUE(std::is_sorted(fo.begin(), fo.end())) << "gate " << g;
    edges += naive[g].size();
  }
  EXPECT_EQ(fanouts.edges.size(), edges);
  EXPECT_EQ(fanouts.heap_bytes(), (n.size() + 1 + edges) * sizeof(GateId));
}

TEST(Analysis, CombFaninConeStopsAtRegisters) {
  const Pipeline p = make_pipeline();
  const auto cone = comb_fanin_cone(p.n, {p.r3});
  // r3's cone root is r3 itself; through its data we do NOT traverse
  // (roots are included but not expanded past registers).
  EXPECT_TRUE(cone[p.r3]);
  EXPECT_FALSE(cone[p.r2]);

  // Cone of r3's *data input* includes the and gate, r2, in2, but stops at r2.
  const auto cone2 = comb_fanin_cone(p.n, {p.n.reg_data(p.r3)});
  EXPECT_TRUE(cone2[p.r2]);
  EXPECT_TRUE(cone2[p.in2]);
  EXPECT_FALSE(cone2[p.r1]);
  EXPECT_FALSE(cone2[p.in]);
}

TEST(Analysis, CoiCrossesRegisters) {
  const Pipeline p = make_pipeline();
  const auto mask = coi(p.n, {p.r3});
  EXPECT_TRUE(mask[p.r3]);
  EXPECT_TRUE(mask[p.r2]);
  EXPECT_TRUE(mask[p.r1]);
  EXPECT_TRUE(mask[p.in]);
  EXPECT_TRUE(mask[p.in2]);
  const auto regs = coi_registers(p.n, {p.r3});
  EXPECT_EQ(regs.size(), 3u);

  // COI of r1 is just r1 and in.
  const auto regs1 = coi_registers(p.n, {p.r1});
  EXPECT_EQ(regs1.size(), 1u);
}

TEST(Analysis, CoiIgnoresUnrelatedLogic) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r");
  b.set_next(r, in);
  const GateId unrelated = b.reg("u");
  b.set_next(unrelated, b.not_(unrelated));
  Netlist n = b.take();
  const auto regs = coi_registers(n, {r});
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0], r);
}

TEST(Analysis, SupportRegistersAndInputs) {
  const Pipeline p = make_pipeline();
  const GateId and_gate = p.n.reg_data(p.r3);
  const auto regs = support_registers(p.n, {and_gate});
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0], p.r2);
  const auto ins = support_inputs(p.n, {and_gate});
  ASSERT_EQ(ins.size(), 1u);
  EXPECT_EQ(ins[0], p.in2);
}

TEST(Analysis, RegisterBfsDistance) {
  const Pipeline p = make_pipeline();
  // Roots = r3's data input cone: r2 at distance 1, r1 at 2; r3 unreachable
  // (nothing feeds back).
  const auto dist = register_bfs_distance(p.n, {p.n.reg_data(p.r3)});
  EXPECT_EQ(dist[p.r2], 1);
  EXPECT_EQ(dist[p.r1], 2);
  EXPECT_EQ(dist[p.r3], -1);
}

TEST(Analysis, ClosestRegistersOrderAndCap) {
  const Pipeline p = make_pipeline();
  const auto close1 = closest_registers(p.n, {p.n.reg_data(p.r3)}, 1);
  ASSERT_EQ(close1.size(), 1u);
  EXPECT_EQ(close1[0], p.r2);
  const auto close5 = closest_registers(p.n, {p.n.reg_data(p.r3)}, 5);
  EXPECT_EQ(close5.size(), 2u);  // only two registers reachable
}

TEST(Analysis, CountRegsGates) {
  const Pipeline p = make_pipeline();
  std::vector<bool> all(p.n.size(), true);
  const auto [regs, gates] = count_regs_gates(p.n, all);
  EXPECT_EQ(regs, 3u);
  EXPECT_EQ(gates, p.n.num_gates());
}

}  // namespace
}  // namespace rfn
