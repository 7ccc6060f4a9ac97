// Tests for dynamic variable reordering: in-place level swap, sifting, and
// order save/restore. Every test validates both semantics preservation (via
// eval over all assignments) and internal table integrity.

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"

namespace rfn {

// Peer with access to the private swap primitive.
class BddReorderTestPeer {
 public:
  static size_t swap_levels(BddMgr& mgr, uint32_t lvl) { return mgr.swap_levels(lvl); }

  /// Every node record plus every unique-table bucket, flattened.
  static std::vector<uint32_t> tables(const BddMgr& mgr) {
    std::vector<uint32_t> out;
    for (const BddMgr::Node& n : mgr.nodes_)
      out.insert(out.end(), {n.var, n.lo, n.hi, n.next, n.rc});
    for (const BddMgr::Subtable& st : mgr.subtables_) {
      out.push_back(st.count);
      out.insert(out.end(), st.buckets.begin(), st.buckets.end());
    }
    return out;
  }
};

namespace {

// Evaluates f over all 2^n assignments and returns the truth table bits.
std::vector<bool> truth_table(BddMgr& mgr, const Bdd& f, uint32_t nvars) {
  std::vector<bool> tt;
  std::vector<bool> a(nvars);
  for (uint32_t p = 0; p < (1u << nvars); ++p) {
    for (uint32_t i = 0; i < nvars; ++i) a[i] = (p >> i) & 1;
    tt.push_back(mgr.eval(f, a));
  }
  return tt;
}

TEST(BddReorder, AdjacentSwapPreservesSemantics) {
  BddMgr mgr(4);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (mgr.var(2) ^ mgr.var(3));
  const Bdd g = mgr.ite(mgr.var(1), mgr.var(3), !mgr.var(0));
  const auto tt_f = truth_table(mgr, f, 4);
  const auto tt_g = truth_table(mgr, g, 4);
  for (uint32_t lvl = 0; lvl + 1 < 4; ++lvl) {
    BddReorderTestPeer::swap_levels(mgr, lvl);
    mgr.check_integrity();
    EXPECT_EQ(truth_table(mgr, f, 4), tt_f) << "after swap at level " << lvl;
    EXPECT_EQ(truth_table(mgr, g, 4), tt_g);
  }
  // Swap back in reverse and re-check.
  for (int lvl = 2; lvl >= 0; --lvl) {
    BddReorderTestPeer::swap_levels(mgr, static_cast<uint32_t>(lvl));
    mgr.check_integrity();
    EXPECT_EQ(truth_table(mgr, f, 4), tt_f);
  }
}

TEST(BddReorder, SwapUpdatesPermutation) {
  BddMgr mgr(3);
  EXPECT_EQ(mgr.var_at_level(0), 0u);
  BddReorderTestPeer::swap_levels(mgr, 0);
  EXPECT_EQ(mgr.var_at_level(0), 1u);
  EXPECT_EQ(mgr.var_at_level(1), 0u);
  EXPECT_EQ(mgr.level_of(0), 1u);
  EXPECT_EQ(mgr.level_of(1), 0u);
}

TEST(BddReorder, SwapPastEmptyLevelOnlyPermutes) {
  // Variable 1 labels no node, so swapping it with a neighbour, from above
  // or from below, must leave every node and bucket as it was and change
  // only the order.
  BddMgr mgr(4);
  const Bdd f = (mgr.var(0) & mgr.var(2)) | mgr.var(3);
  const auto tt = truth_table(mgr, f, 4);
  const std::vector<uint32_t> before = BddReorderTestPeer::tables(mgr);
  const size_t live = mgr.live_nodes();
  const std::vector<std::vector<BddVar>> orders = {
      {1, 0, 2, 3}, {0, 1, 2, 3}, {0, 2, 1, 3}, {0, 1, 2, 3}};
  const uint32_t levels[] = {0, 0, 1, 1};
  for (size_t i = 0; i < orders.size(); ++i) {
    EXPECT_EQ(BddReorderTestPeer::swap_levels(mgr, levels[i]), live);
    for (uint32_t lvl = 0; lvl < 4; ++lvl) {
      EXPECT_EQ(mgr.var_at_level(lvl), orders[i][lvl]) << "swap " << i;
      EXPECT_EQ(mgr.level_of(orders[i][lvl]), lvl) << "swap " << i;
    }
    EXPECT_EQ(BddReorderTestPeer::tables(mgr), before) << "swap " << i;
    mgr.check_integrity();
    EXPECT_EQ(truth_table(mgr, f, 4), tt);
  }
}

TEST(BddReorder, SiftingShrinksInterleavedComparator) {
  // f = AND_i (a_i == b_i) with order a0..a3 b0..b3 is exponential; the
  // interleaved order a0 b0 a1 b1 ... is linear. Sifting must find a
  // significantly smaller order.
  BddMgr mgr(8);  // vars 0..3 = a, 4..7 = b
  Bdd f = mgr.bdd_true();
  for (BddVar i = 0; i < 4; ++i) {
    f &= !(mgr.var(i) ^ mgr.var(i + 4));
  }
  const auto tt = truth_table(mgr, f, 8);
  const size_t before = mgr.node_count(f);
  mgr.reorder_sift();
  mgr.check_integrity();
  const size_t after = mgr.node_count(f);
  EXPECT_LT(after, before);
  EXPECT_EQ(truth_table(mgr, f, 8), tt);
}

TEST(BddReorder, SetOrderRoundTrip) {
  BddMgr mgr(5);
  const Bdd f = (mgr.var(0) | mgr.var(4)) & (mgr.var(2) ^ mgr.var(1)) & !mgr.var(3);
  const auto tt = truth_table(mgr, f, 5);
  const std::vector<BddVar> original = mgr.current_order();

  const std::vector<BddVar> reversed(original.rbegin(), original.rend());
  mgr.set_order(reversed);
  mgr.check_integrity();
  EXPECT_EQ(mgr.current_order(), reversed);
  EXPECT_EQ(truth_table(mgr, f, 5), tt);

  mgr.set_order(original);
  mgr.check_integrity();
  EXPECT_EQ(mgr.current_order(), original);
  EXPECT_EQ(truth_table(mgr, f, 5), tt);
}

TEST(BddReorder, AutoReorderTriggersAndPreservesFunctions) {
  BddMgr mgr(16);
  mgr.set_auto_reorder(true);
  // Build a deliberately bad-order function big enough to cross the initial
  // threshold: comparator over 8 pairs with blocked order.
  std::vector<Bdd> keep;
  Bdd f = mgr.bdd_true();
  for (BddVar i = 0; i < 8; ++i) f &= !(mgr.var(i) ^ mgr.var(i + 8));
  keep.push_back(f);
  // Churn to trigger housekeeping-based reordering.
  for (int round = 0; round < 50; ++round) {
    Bdd g = f;
    for (BddVar i = 0; i < 8; ++i) g |= mgr.var(i) & mgr.var(15 - i);
    keep.push_back(g);
  }
  mgr.check_integrity();
  // Functions must still be correct regardless of whether reordering fired.
  std::vector<bool> a(16, false);
  EXPECT_TRUE(mgr.eval(f, a));  // all pairs equal (0==0)
  a[0] = true;
  EXPECT_FALSE(mgr.eval(f, a));
  a[8] = true;
  EXPECT_TRUE(mgr.eval(f, a));
}

TEST(BddReorder, HandlesRemainValidAfterSift) {
  BddMgr mgr(6);
  Bdd f = (mgr.var(5) & mgr.var(0)) | (mgr.var(3) & mgr.var(1));
  Bdd g = !f;
  const auto tt_f = truth_table(mgr, f, 6);
  mgr.reorder_sift();
  EXPECT_EQ(truth_table(mgr, f, 6), tt_f);
  EXPECT_EQ(f & g, mgr.bdd_false());
  EXPECT_EQ(f | g, mgr.bdd_true());
  // New operations still canonicalize against reordered nodes.
  EXPECT_EQ(!(!f), f);
}

TEST(BddReorder, QuantificationAfterReorder) {
  BddMgr mgr(6);
  Bdd f = (mgr.var(0) & mgr.var(3)) | (mgr.var(1) & mgr.var(4));
  mgr.reorder_sift();
  const Bdd ex = mgr.exists(f, {0, 1});
  // exists x0,x1: f == x3 | x4 ... wait: (x0&x3)|(x1&x4) with x0,x1 free
  // becomes x3 | x4.
  EXPECT_EQ(ex, mgr.var(3) | mgr.var(4));
}

}  // namespace
}  // namespace rfn
