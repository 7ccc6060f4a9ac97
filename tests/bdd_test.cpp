// Unit tests for the BDD manager: core operators, quantification, cubes,
// queries, and garbage collection.

#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace rfn {
namespace {

class BddTest : public ::testing::Test {
 protected:
  BddMgr mgr{8};
};

TEST_F(BddTest, ConstantsAndLiterals) {
  EXPECT_TRUE(mgr.bdd_true().is_true());
  EXPECT_TRUE(mgr.bdd_false().is_false());
  const Bdd x = mgr.var(0);
  EXPECT_FALSE(x.is_terminal());
  EXPECT_EQ(!(!x), x);
  EXPECT_EQ(mgr.nvar(0), !x);
}

TEST_F(BddTest, BooleanAlgebraIdentities) {
  const Bdd x = mgr.var(0), y = mgr.var(1), z = mgr.var(2);
  EXPECT_EQ(x & mgr.bdd_true(), x);
  EXPECT_EQ(x & mgr.bdd_false(), mgr.bdd_false());
  EXPECT_EQ(x | !x, mgr.bdd_true());
  EXPECT_EQ(x & !x, mgr.bdd_false());
  EXPECT_EQ(x ^ x, mgr.bdd_false());
  EXPECT_EQ(x ^ !x, mgr.bdd_true());
  // Canonicity: algebraically equal expressions share a node.
  EXPECT_EQ((x & y) | (x & z), x & (y | z));
  EXPECT_EQ(!(x & y), (!x) | (!y));
  EXPECT_EQ(x ^ y, (x & (!y)) | ((!x) & y));
}

TEST_F(BddTest, IteMatchesDefinition) {
  const Bdd f = mgr.var(0), g = mgr.var(1), h = mgr.var(2);
  EXPECT_EQ(mgr.ite(f, g, h), (f & g) | ((!f) & h));
  EXPECT_EQ(mgr.ite(mgr.bdd_true(), g, h), g);
  EXPECT_EQ(mgr.ite(mgr.bdd_false(), g, h), h);
  EXPECT_EQ(mgr.ite(f, mgr.bdd_true(), mgr.bdd_false()), f);
}

TEST_F(BddTest, CofactorShannon) {
  const Bdd x = mgr.var(0), y = mgr.var(1);
  const Bdd f = (x & y) | ((!x) & (!y));  // xnor
  EXPECT_EQ(mgr.cofactor(f, 0, true), y);
  EXPECT_EQ(mgr.cofactor(f, 0, false), !y);
  // Shannon expansion reconstructs f.
  const Bdd rebuilt = mgr.ite(x, mgr.cofactor(f, 0, true), mgr.cofactor(f, 0, false));
  EXPECT_EQ(rebuilt, f);
  // Cofactor by a variable outside the support is the identity.
  EXPECT_EQ(mgr.cofactor(f, 5, true), f);
}

TEST_F(BddTest, ExistsForall) {
  const Bdd x = mgr.var(0), y = mgr.var(1);
  const Bdd f = x & y;
  EXPECT_EQ(mgr.exists(f, {0}), y);
  EXPECT_EQ(mgr.exists(f, {0, 1}), mgr.bdd_true());
  EXPECT_EQ(mgr.forall(f, {0}), mgr.bdd_false());
  const Bdd g = x | y;
  EXPECT_EQ(mgr.forall(g, {0}), y);
  // Quantifying a variable not in the support is the identity.
  EXPECT_EQ(mgr.exists(f, {7}), f);
  EXPECT_EQ(mgr.exists(f, {}), f);
}

TEST_F(BddTest, AndExistsEqualsComposition) {
  const Bdd x = mgr.var(0), y = mgr.var(1), z = mgr.var(2), w = mgr.var(3);
  const Bdd f = (x | y) & (z | w);
  const Bdd g = mgr.ite(x, z, !w);
  const std::vector<BddVar> vars{0, 2};
  EXPECT_EQ(mgr.and_exists(f, g, vars), mgr.exists(f & g, vars));
  EXPECT_EQ(mgr.and_exists(f, mgr.bdd_true(), vars), mgr.exists(f, vars));
  EXPECT_EQ(mgr.and_exists(f, mgr.bdd_false(), vars), mgr.bdd_false());
}

TEST_F(BddTest, RenameSwapsVariables) {
  const Bdd x = mgr.var(0), y = mgr.var(1);
  std::vector<BddVar> map(mgr.num_vars());
  for (BddVar v = 0; v < mgr.num_vars(); ++v) map[v] = v;
  map[0] = 1;
  map[1] = 0;
  EXPECT_EQ(mgr.rename(x, map), y);
  EXPECT_EQ(mgr.rename(x & !y, map), y & !x);
  // Identity map is the identity.
  std::vector<BddVar> id(mgr.num_vars());
  for (BddVar v = 0; v < mgr.num_vars(); ++v) id[v] = v;
  EXPECT_EQ(mgr.rename(x & y, id), x & y);
}

TEST_F(BddTest, RenameShiftNonAdjacent) {
  // Map var i -> i+4 (current-state to next-state style shift).
  const Bdd f = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  std::vector<BddVar> map(mgr.num_vars());
  for (BddVar v = 0; v < mgr.num_vars(); ++v) map[v] = v;
  map[0] = 4;
  map[1] = 5;
  map[2] = 6;
  const Bdd g = mgr.rename(f, map);
  EXPECT_EQ(g, (mgr.var(4) & mgr.var(5)) | mgr.var(6));
}

TEST_F(BddTest, CubeAndEval) {
  const Bdd c = mgr.cube({{0, true}, {3, false}, {5, true}});
  std::vector<bool> a(8, false);
  a[0] = true;
  a[5] = true;
  EXPECT_TRUE(mgr.eval(c, a));
  a[3] = true;
  EXPECT_FALSE(mgr.eval(c, a));
  EXPECT_EQ(mgr.cube({}), mgr.bdd_true());
}

TEST_F(BddTest, SupportIsExact) {
  const Bdd f = (mgr.var(1) & mgr.var(4)) ^ mgr.var(6);
  const std::vector<BddVar> s = mgr.support(f);
  EXPECT_EQ(s, (std::vector<BddVar>{1, 4, 6}));
  // x & !x cancels: support of constants is empty.
  EXPECT_TRUE(mgr.support(mgr.bdd_true()).empty());
}

TEST_F(BddTest, SatCount) {
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_true(), 8), 256.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_false(), 8), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0), 8), 128.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0) & mgr.var(1), 8), 64.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0) | mgr.var(1), 8), 192.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0) ^ mgr.var(7), 8), 128.0);
}

TEST_F(BddTest, AnyCubeSatisfies) {
  const Bdd f = (mgr.var(0) & !mgr.var(2)) | (mgr.var(3) & mgr.var(5));
  const auto lits = mgr.any_cube(f);
  ASSERT_FALSE(lits.empty());
  std::vector<bool> a(8, false);
  for (const BddLit& l : lits) a[l.var] = l.positive;
  EXPECT_TRUE(mgr.eval(f, a));
}

TEST_F(BddTest, ShortestCubeIsFattest) {
  // f = (x0 & x1 & x2) | x5 : the fattest cube is the single literal x5.
  const Bdd f = (mgr.var(0) & mgr.var(1) & mgr.var(2)) | mgr.var(5);
  const auto lits = mgr.shortest_cube(f);
  ASSERT_EQ(lits.size(), 1u);
  EXPECT_EQ(lits[0].var, 5u);
  EXPECT_TRUE(lits[0].positive);
  // The shortest cube must be an implicant: all completions satisfy f.
  std::vector<bool> a(8);
  for (int pattern = 0; pattern < 256; ++pattern) {
    for (int i = 0; i < 8; ++i) a[static_cast<size_t>(i)] = (pattern >> i) & 1;
    bool in_cube = true;
    for (const BddLit& l : lits) in_cube &= a[l.var] == l.positive;
    if (in_cube) {
      EXPECT_TRUE(mgr.eval(f, a));
    }
  }
}

TEST_F(BddTest, ShortestCubeOnTightFunction) {
  // Parity has no short implicant: every cube has n literals.
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2);
  EXPECT_EQ(mgr.shortest_cube(f).size(), 3u);
}

TEST_F(BddTest, NodeCount) {
  EXPECT_EQ(mgr.node_count(mgr.bdd_true()), 0u);
  EXPECT_EQ(mgr.node_count(mgr.var(0)), 1u);
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2);
  EXPECT_EQ(mgr.node_count(f), 5u);  // parity: 1 + 2 + 2
}

TEST_F(BddTest, GarbageCollectReclaimsDeadNodes) {
  const size_t base = mgr.live_nodes();
  {
    Bdd f = mgr.var(0);
    for (int i = 1; i < 8; ++i) f = f ^ mgr.var(static_cast<BddVar>(i));
    EXPECT_GT(mgr.live_nodes(), base);
  }
  mgr.garbage_collect();
  // Everything built in the block is unreferenced now; only literal nodes
  // may survive (they were created with handles that also died... they are
  // dead too). Live count returns to the baseline.
  EXPECT_LE(mgr.live_nodes(), base + 0u);
  mgr.check_integrity();
}

TEST_F(BddTest, HandlesSurviveGc) {
  Bdd keep = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  { Bdd junk = mgr.var(3) ^ mgr.var(4); (void)junk; }
  mgr.garbage_collect();
  mgr.check_integrity();
  // keep is still usable after GC.
  EXPECT_EQ(keep & mgr.bdd_true(), keep);
  EXPECT_EQ(mgr.support(keep), (std::vector<BddVar>{0, 1, 2}));
}

TEST_F(BddTest, ImpliesAndIntersects) {
  const Bdd x = mgr.var(0), y = mgr.var(1);
  EXPECT_TRUE((x & y).implies(x));
  EXPECT_FALSE(x.implies(x & y));
  EXPECT_TRUE(x.intersects(y));
  EXPECT_FALSE(x.intersects(!x));
  EXPECT_EQ(x.diff(y), x & !y);
}

// Two disjunctions of pairs under an order that separates each pair: both
// BDDs are exponential in `pairs`, so their XOR makes tens of thousands of
// computed-table probes.
std::pair<Bdd, Bdd> separated_pairs(BddMgr& mgr, uint32_t pairs) {
  Bdd f = mgr.bdd_false(), g = mgr.bdd_false();
  for (uint32_t i = 0; i < pairs; ++i) {
    f |= mgr.var(i) & mgr.var(pairs + i);
    g |= mgr.var(i) & mgr.var(2 * pairs - 1 - i);
  }
  return {f, g};
}

TEST(BddMgrTest, CancelledTokenAbandonsOperations) {
  constexpr uint32_t kPairs = 13;
  BddMgr ref(2 * kPairs);
  const auto [ref_f, ref_g] = separated_pairs(ref, kPairs);
  const size_t lookups0 = ref.stats().cache_lookups;
  const Bdd ref_h = ref_f ^ ref_g;
  ASSERT_GT(ref.stats().cache_lookups - lookups0, size_t{1} << 14)
      << "the operation must cross the manager's poll interval";

  BddMgr mgr(2 * kPairs);
  const auto [f, g] = separated_pairs(mgr, kPairs);
  CancelToken cancelled;
  cancelled.cancel();
  mgr.set_cancel(&cancelled);
  EXPECT_TRUE((f ^ g).is_null());
  // Once the token has fired, every later operation is abandoned too.
  EXPECT_TRUE((f & g).is_null());
  EXPECT_TRUE(mgr.var(0).is_null());
  // The manager stays consistent: live handles keep their functions.
  EXPECT_EQ(mgr.node_count(f), ref.node_count(ref_f));
  EXPECT_EQ(mgr.node_count(g), ref.node_count(ref_g));
  std::vector<bool> assignment(2 * kPairs, false);
  assignment[0] = assignment[kPairs] = true;  // x0 & x13: f holds, g not
  EXPECT_TRUE(mgr.eval(f, assignment));
  EXPECT_FALSE(mgr.eval(g, assignment));

  mgr.set_cancel(nullptr);
  const Bdd h = f ^ g;
  ASSERT_FALSE(h.is_null());
  EXPECT_EQ(mgr.node_count(h), ref.node_count(ref_h));
  EXPECT_TRUE(mgr.eval(h, assignment));
}

TEST(BddMgrTest, NewVarExtendsOrder) {
  BddMgr mgr(0);
  EXPECT_EQ(mgr.num_vars(), 0u);
  const BddVar a = mgr.new_var();
  const BddVar b = mgr.new_var();
  EXPECT_EQ(mgr.level_of(a), 0u);
  EXPECT_EQ(mgr.level_of(b), 1u);
  EXPECT_EQ(mgr.var_at_level(0), a);
  const Bdd f = mgr.var(a) & mgr.var(b);
  EXPECT_EQ(mgr.node_count(f), 2u);
}

}  // namespace
}  // namespace rfn
