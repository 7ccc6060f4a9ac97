// Unit tests for the core netlist representation and cube helpers.

#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace rfn {
namespace {

TEST(Netlist, AddAndQueryGates) {
  Netlist n;
  const GateId a = n.add(GateType::Input);
  const GateId b = n.add(GateType::Input);
  const GateId g = n.add(GateType::And, {a, b});
  EXPECT_EQ(n.size(), 3u);
  EXPECT_TRUE(n.is_input(a));
  EXPECT_TRUE(n.is_comb(g));
  EXPECT_EQ(n.fanins(g).size(), 2u);
  EXPECT_EQ(n.num_inputs(), 2u);
  EXPECT_EQ(n.num_gates(), 1u);
  n.check();
}

TEST(Netlist, RegisterDataPatching) {
  Netlist n;
  const GateId r = n.add(GateType::Reg, {}, Tri::T);
  const GateId inv = n.add(GateType::Not, {r});
  n.set_reg_data(r, inv);
  EXPECT_TRUE(n.is_reg(r));
  EXPECT_EQ(n.reg_data(r), inv);
  EXPECT_EQ(n.reg_init(r), Tri::T);
  n.check();
}

TEST(Netlist, NamesAndOutputs) {
  Netlist n;
  const GateId a = n.add(GateType::Input);
  n.set_name(a, "req");
  EXPECT_EQ(n.find("req"), a);
  EXPECT_EQ(n.find("nope"), kNullGate);
  EXPECT_EQ(n.name(a), "req");
  n.add_output("prop", a);
  EXPECT_EQ(n.output("prop"), a);
  EXPECT_EQ(n.output("other"), kNullGate);
}

TEST(Netlist, NumGatesExcludesSourcesAndConstants) {
  Netlist n;
  const GateId a = n.add(GateType::Input);
  n.add(GateType::Const0);
  const GateId r = n.add(GateType::Reg);
  n.set_reg_data(r, a);
  n.add(GateType::Not, {a});
  EXPECT_EQ(n.num_gates(), 1u);
  EXPECT_EQ(n.num_regs(), 1u);
}

TEST(Netlist, FaninPoolSurvivesGrowthAndSetRegData) {
  Netlist n;
  const GateId a = n.add(GateType::Input);
  const GateId b = n.add(GateType::Input);
  const GateId r = n.add(GateType::Reg, {}, Tri::X);
  const GateId m = n.add(GateType::Mux, {a, b, r});
  const GateId w = n.add(GateType::Or, {a, b, m, r});
  // Enough adds to reallocate the pool many times over; half of them copy
  // a view of the pool itself, which add() must read before growing it.
  GateId last = w;
  for (int i = 0; i < 10000; ++i)
    last = i % 2 ? n.add(GateType::And, {last, a}) : n.add(GateType::And, n.fanins(w));
  EXPECT_EQ(n.size(), 10005u);
  EXPECT_EQ(std::vector<GateId>(n.fanins(m).begin(), n.fanins(m).end()),
            (std::vector<GateId>{a, b, r}));
  EXPECT_EQ(std::vector<GateId>(n.fanins(w).begin(), n.fanins(w).end()),
            (std::vector<GateId>{a, b, m, r}));
  EXPECT_EQ(std::vector<GateId>(n.fanins(w + 1).begin(), n.fanins(w + 1).end()),
            (std::vector<GateId>{a, b, m, r}));
  EXPECT_EQ(n.reg_data(r), kNullGate);  // the placeholder slot

  // set_reg_data writes the register's one slot in place: live views stay
  // valid and every neighbouring fanin list is untouched.
  const std::span<const GateId> view = n.fanins(m);
  n.set_reg_data(r, last);
  EXPECT_EQ(n.reg_data(r), last);
  ASSERT_EQ(n.fanins(r).size(), 1u);
  EXPECT_EQ(view[2], r);
  EXPECT_EQ(n.fanins(m)[2], r);
  EXPECT_EQ(n.fanins(w)[3], r);
  EXPECT_EQ(n.fanins(last)[1], a);
  n.check();

  EXPECT_GE(n.heap_bytes(), n.size() * 5 + 2 * 10000 * sizeof(GateId));
  EXPECT_DEATH(
      {
        n.add(GateType::Not, {static_cast<GateId>(n.size() + 7)});
        n.check();
      },
      "dangling fanin");
}

TEST(EvalGate3, BasicTruthTables) {
  const Tri F = Tri::F, T = Tri::T, X = Tri::X;
  {
    Tri v[2] = {T, X};
    EXPECT_EQ(eval_gate3(GateType::And, v, 2), X);
    v[0] = F;
    EXPECT_EQ(eval_gate3(GateType::And, v, 2), F);  // controlling value beats X
    v[0] = T;
    v[1] = T;
    EXPECT_EQ(eval_gate3(GateType::And, v, 2), T);
  }
  {
    Tri v[2] = {X, T};
    EXPECT_EQ(eval_gate3(GateType::Or, v, 2), T);
    v[1] = F;
    EXPECT_EQ(eval_gate3(GateType::Or, v, 2), X);
  }
  {
    Tri v[1] = {X};
    EXPECT_EQ(eval_gate3(GateType::Not, v, 1), X);
    v[0] = F;
    EXPECT_EQ(eval_gate3(GateType::Not, v, 1), T);
  }
  {
    Tri v[2] = {T, X};
    EXPECT_EQ(eval_gate3(GateType::Xor, v, 2), X);
    v[1] = T;
    EXPECT_EQ(eval_gate3(GateType::Xor, v, 2), F);
    EXPECT_EQ(eval_gate3(GateType::Xnor, v, 2), T);
  }
}

TEST(EvalGate3, MuxIsXOptimistic) {
  const Tri F = Tri::F, T = Tri::T, X = Tri::X;
  // sel=X but both data inputs agree -> defined output.
  Tri v[3] = {X, T, T};
  EXPECT_EQ(eval_gate3(GateType::Mux, v, 3), T);
  Tri w[3] = {X, F, T};
  EXPECT_EQ(eval_gate3(GateType::Mux, w, 3), X);
  Tri u[3] = {T, F, T};
  EXPECT_EQ(eval_gate3(GateType::Mux, u, 3), T);
  Tri z[3] = {F, F, T};
  EXPECT_EQ(eval_gate3(GateType::Mux, z, 3), F);
}

TEST(EvalGate3, WideGates) {
  std::vector<Tri> v(10, Tri::T);
  EXPECT_EQ(eval_gate3(GateType::And, v.data(), v.size()), Tri::T);
  v[7] = Tri::X;
  EXPECT_EQ(eval_gate3(GateType::And, v.data(), v.size()), Tri::X);
  v[3] = Tri::F;
  EXPECT_EQ(eval_gate3(GateType::And, v.data(), v.size()), Tri::F);
  EXPECT_EQ(eval_gate3(GateType::Nand, v.data(), v.size()), Tri::T);
  EXPECT_EQ(eval_gate3(GateType::Or, v.data(), v.size()), Tri::T);
}

TEST(CubeHelpers, LookupAddSubsume) {
  Cube c;
  EXPECT_TRUE(cube_add(c, {3, true}));
  EXPECT_TRUE(cube_add(c, {5, false}));
  EXPECT_EQ(cube_lookup(c, 3), Tri::T);
  EXPECT_EQ(cube_lookup(c, 5), Tri::F);
  EXPECT_EQ(cube_lookup(c, 9), Tri::X);
  // Conflicting literal is rejected and the cube is unchanged.
  EXPECT_FALSE(cube_add(c, {3, false}));
  EXPECT_EQ(c.size(), 2u);
  // Duplicate same-polarity literal is a no-op success.
  EXPECT_TRUE(cube_add(c, {3, true}));
  EXPECT_EQ(c.size(), 2u);

  Cube sub{{3, true}};
  EXPECT_TRUE(cube_subsumes(c, sub));
  Cube other{{3, true}, {7, true}};
  EXPECT_FALSE(cube_subsumes(c, other));
  EXPECT_TRUE(cube_subsumes(c, {}));
}

TEST(NetlistDeathTest, CombinationalCycleIsRejected) {
  // add() accepts forward references, so a cycle can be wired through the
  // public API: g1 = and(a, g2) names g2 before it exists, and g2 = buf(g1)
  // closes the loop without a register.
  Netlist n;
  const GateId a = n.add(GateType::Input);
  const GateId g1 = n.add(GateType::And, {a, static_cast<GateId>(a + 2)});
  const GateId g2 = n.add(GateType::Buf, {g1});
  ASSERT_EQ(g2, a + 2);
  EXPECT_DEATH(n.check(), "combinational cycle");

  // The same shape with a register in the loop is legal.
  Netlist r;
  const GateId ra = r.add(GateType::Input);
  const GateId rg1 = r.add(GateType::And, {ra, static_cast<GateId>(ra + 2)});
  const GateId reg = r.add(GateType::Reg, {rg1});
  ASSERT_EQ(reg, ra + 2);
  r.check();
}

}  // namespace
}  // namespace rfn
