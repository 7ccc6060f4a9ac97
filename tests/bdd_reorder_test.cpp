// Tests for dynamic variable reordering: in-place level swap, sifting, and
// order save/restore. Every test validates both semantics preservation (via
// eval over all assignments) and internal table integrity.

#include <gtest/gtest.h>

#include <random>

#include "bdd/bdd.hpp"

namespace rfn {

// Peer with access to the private swap and sift primitives.
class BddReorderTestPeer {
 public:
  static size_t swap_levels(BddMgr& mgr, uint32_t lvl) { return mgr.swap_levels(lvl); }
  static void sift_var(BddMgr& mgr, BddVar v) { mgr.sift_var(v); }

  /// Levels whose bucket vector holds more than it uses: a rollback gave
  /// them back the vector they had before a growth.
  static size_t restored_growths(const BddMgr& mgr) {
    size_t n = 0;
    for (const BddMgr::Subtable& st : mgr.subtables_) n += st.buckets.capacity() > st.buckets.size();
    return n;
  }

  /// What a journal holds just before its rollback.
  struct JournalPaths {
    size_t reused = 0;       // records of nodes that were free at the checkpoint
    size_t born = 0;         // nodes born since, live or freed again
    size_t grown_levels = 0; // saved levels whose table has grown since
  };
  /// Moves v with journaled swaps to the end of the order in direction
  /// `down`, then rolls back; returns what the journal held.
  static JournalPaths journaled_trip(BddMgr& mgr, BddVar v, bool down) {
    mgr.journal_open(v);
    const uint32_t end = down ? mgr.num_vars() - 1 : 0;
    while (mgr.level_of(v) != end)
      mgr.swap_levels<true>(down ? mgr.level_of(v) : mgr.level_of(v) - 1);
    const BddMgr::SiftJournal& j = mgr.journal_;
    JournalPaths paths;
    for (const BddMgr::SiftJournal::Record& r : j.nodes) paths.reused += r.var == BddMgr::kInvalidVar;
    paths.born = mgr.nodes_.size() - j.pool_size;
    for (size_t i = 0; i < j.levels.size(); i += 3 + j.levels[i + 2])
      paths.grown_levels += mgr.subtables_[j.levels[i]].buckets.size() > j.levels[i + 2];
    mgr.journal_rollback();
    mgr.journal_close();
    return paths;
  }

  /// Truth table of f over the first `nvars` >= 6 variables, one bit per
  /// assignment (bit i of the index = value of variable i), bit-parallel
  /// over the node DAG: the eval()-based table is too slow at 16 variables.
  static std::vector<uint64_t> truth_table(const BddMgr& mgr, const Bdd& f, uint32_t nvars) {
    const size_t words = (size_t{1} << nvars) / 64;
    std::vector<std::vector<uint64_t>> memo(mgr.nodes_.size());
    memo[0].assign(words, 0);
    memo[1].assign(words, ~uint64_t{0});
    const auto var_mask = [&](BddVar v, size_t w) {
      uint64_t m = 0;
      for (size_t b = 0; b < 64; ++b)
        if (((w * 64 + b) >> v) & 1) m |= uint64_t{1} << b;
      return m;
    };
    const auto rec = [&](auto&& self, uint32_t id) -> const std::vector<uint64_t>& {
      if (!memo[id].empty()) return memo[id];
      const BddMgr::Node& n = mgr.nodes_[id];
      const std::vector<uint64_t>& lo = self(self, n.lo);
      const std::vector<uint64_t>& hi = self(self, n.hi);
      std::vector<uint64_t> out(words);
      for (size_t w = 0; w < words; ++w) {
        const uint64_t m = var_mask(n.var, w);
        out[w] = (lo[w] & ~m) | (hi[w] & m);
      }
      return memo[id] = std::move(out);
    };
    return rec(rec, f.id());
  }

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

// The sift as it was before the journal: phase 0 toward the nearer end,
// phase 1 back over those levels and on toward the other end, each stopped
// once the live count exceeds 1.2x the best, then a walk to the best level,
// all by adjacent swaps. The journaled sift must visit the same levels and
// park every variable where this one does.
struct ReferenceSift {
  uint32_t phase0_swaps = 0;
  uint32_t swaps = 0;
  bool at_end = false;             // v started at the top or the bottom
  bool stopped_on_repass = false;  // phase 1 stopped on a level phase 0 measured
  // Phase 1, had it gone on from v's start after that stop, would have found
  // a level better than the best: the stop decides the final order.
  bool hides_better = false;
};

ReferenceSift reference_sift(BddMgr& mgr, BddVar v) {
  constexpr double kMaxGrowth = 1.2;
  const uint32_t bottom = mgr.num_vars() - 1;
  const uint32_t start = mgr.level_of(v);
  ReferenceSift r;
  r.at_end = start == 0 || start == bottom;
  const auto swap = [&](uint32_t lvl) {
    ++r.swaps;
    return BddReorderTestPeer::swap_levels(mgr, lvl);
  };
  size_t best = mgr.live_nodes();
  uint32_t best_level = start;
  const bool down_first = start >= mgr.num_vars() / 2;
  for (int phase = 0; phase < 2; ++phase) {
    const bool down = (phase == 0) == down_first;
    while (down ? mgr.level_of(v) < bottom : mgr.level_of(v) > 0) {
      const size_t live = swap(down ? mgr.level_of(v) : mgr.level_of(v) - 1);
      if (live < best) {
        best = live;
        best_level = mgr.level_of(v);
      }
      if (static_cast<double>(live) > kMaxGrowth * static_cast<double>(best)) {
        const uint32_t at = mgr.level_of(v);
        if (phase == 1 && (down_first ? at >= start : at <= start)) r.stopped_on_repass = true;
        break;
      }
    }
    if (phase == 0) r.phase0_swaps = r.swaps;
  }
  const auto move_to = [&](uint32_t level) {
    while (mgr.level_of(v) > level) swap(mgr.level_of(v) - 1);
    while (mgr.level_of(v) < level) swap(mgr.level_of(v));
  };
  const uint32_t stop = mgr.level_of(v);
  const uint32_t classic_swaps =
      r.swaps + (stop > best_level ? stop - best_level : best_level - stop);
  if (r.stopped_on_repass) {
    // Peek past the stop: from v's start on in phase 1's direction, with
    // the growth abort phase 1 would have applied.
    move_to(start);
    size_t peek_best = best;
    while (down_first ? mgr.level_of(v) > 0 : mgr.level_of(v) < bottom) {
      const size_t live = swap(down_first ? mgr.level_of(v) - 1 : mgr.level_of(v));
      r.hides_better |= live < best;
      peek_best = std::min(peek_best, live);
      if (static_cast<double>(live) > kMaxGrowth * static_cast<double>(peek_best)) break;
    }
  }
  move_to(best_level);
  r.swaps = classic_swaps;
  return r;
}

// A random function over `vars`: a balanced tree of AND / OR / XOR over
// 2^depth random literals.
Bdd random_function(BddMgr& mgr, std::mt19937& rng, const std::vector<BddVar>& vars,
                    int depth) {
  if (depth == 0) return mgr.literal(vars[rng() % vars.size()], rng() % 2 == 0);
  const Bdd a = random_function(mgr, rng, vars, depth - 1);
  const Bdd b = random_function(mgr, rng, vars, depth - 1);
  switch (rng() % 3) {
    case 0: return a & b;
    case 1: return a | b;
    default: return a ^ b;
  }
}

// Roots over 13 variables whose variable 0, v, has a sift profile with two
// dips. v starts between group A, above it, and group B, below it: roots
// ite(v, g, h) with g and h over A tend to shrink as v rises through A, and
// roots v ^ g with g over B shrink as v sinks through B. v starts in the
// lower half, so phase 0 sinks it into B's dip; on the way back phase 1 may
// meet a hump and stop short of A's dip, and when that dip is deeper, a
// stop predicted wrongly changes the final order.
std::vector<Bdd> humped_roots(BddMgr& mgr, std::mt19937& rng) {
  const uint32_t nb = 3 + rng() % 3;
  const uint32_t na = nb + 1 + rng() % 2;
  std::vector<BddVar> a, b, order;
  for (BddVar i = 1; i <= na; ++i) a.push_back(i);
  for (BddVar i = na + 1; i <= na + nb; ++i) b.push_back(i);
  order = a;
  order.push_back(0);
  order.insert(order.end(), b.begin(), b.end());
  for (BddVar i = na + nb + 1; i < mgr.num_vars(); ++i) order.push_back(i);  // unused
  mgr.set_order(order);
  const Bdd v = mgr.var(0);
  std::vector<Bdd> roots;
  for (uint32_t k = 0, n = 2 + rng() % 2; k < n; ++k)
    roots.push_back(mgr.ite(v, random_function(mgr, rng, a, 3), random_function(mgr, rng, a, 3)));
  for (uint32_t k = 0, n = 2 + rng() % 2; k < n; ++k)
    roots.push_back(v ^ random_function(mgr, rng, b, 4));
  return roots;
}

// The same random multi-root manager, built twice: the journaled sift runs
// on `mgr`, the reference on `ref`; a humped pair has 13 variables.
struct SiftPair {
  uint32_t nvars;
  BddMgr mgr, ref;
  std::vector<Bdd> roots, ref_roots;

  SiftPair(uint32_t seed, uint32_t n, bool humped = false) : nvars(n), mgr(n), ref(n) {
    std::vector<BddVar> all(n);
    for (BddVar i = 0; i < n; ++i) all[i] = i;
    for (auto [m, out] : {std::pair{&mgr, &roots}, std::pair{&ref, &ref_roots}}) {
      std::mt19937 rng(seed);
      if (humped) {
        *out = humped_roots(*m, rng);
      } else {
        const int nroots = 2 + static_cast<int>(rng() % 4);
        for (int i = 0; i < nroots; ++i) out->push_back(random_function(*m, rng, all, 4));
      }
      m->garbage_collect();  // a sift starts with no dead node
    }
  }

  std::vector<std::vector<uint64_t>> truth_tables() const {
    std::vector<std::vector<uint64_t>> out;
    for (const Bdd& f : roots) out.push_back(BddReorderTestPeer::truth_table(mgr, f, nvars));
    return out;
  }

  /// Sifts v in both managers and checks they agree; returns the reference
  /// path, with `far_park` set when the journaled sift parked from the far
  /// end of phase 0 (no rollback, but swaps after phase 0).
  ReferenceSift sift(BddVar v, bool* far_park) {
    const size_t swaps0 = mgr.stats().sift_swaps;
    const size_t rollbacks0 = mgr.stats().sift_rollbacks;
    const ReferenceSift r = reference_sift(ref, v);
    BddReorderTestPeer::sift_var(mgr, v);
    const size_t swaps = mgr.stats().sift_swaps - swaps0;
    EXPECT_EQ(mgr.current_order(), ref.current_order()) << "var " << v;
    EXPECT_EQ(mgr.live_nodes(), ref.live_nodes()) << "var " << v;
    EXPECT_LE(swaps, r.swaps) << "var " << v;
    *far_park = r.stopped_on_repass && mgr.stats().sift_rollbacks == rollbacks0 &&
                swaps > r.phase0_swaps;
    return r;
  }
};

TEST(BddReorder, JournaledSiftMatchesSwapOnlySift) {
  size_t repass_stops = 0, far_parks = 0, at_ends = 0, hides_better = 0;
  size_t growth_rollbacks = 0;
  // Seeds 201-320 build humped managers (humped_roots); they run first.
  for (uint32_t i = 0; i < 320; ++i) {
    const bool humped = i < 120;
    const uint32_t seed = humped ? 201 + i : i - 119;
    SiftPair p(seed, humped ? 13 : 8 + seed % 9, humped);
    const auto tables = p.truth_tables();
    for (BddVar v = 0; v < p.nvars; ++v) {
      bool far_park = false;
      const ReferenceSift r = p.sift(v, &far_park);
      repass_stops += r.stopped_on_repass;
      far_parks += far_park;
      at_ends += r.at_end;
      hides_better += r.hides_better;
      EXPECT_EQ(p.mgr.heap_bytes(), p.mgr.heap_bytes_recomputed()) << "var " << v;
      growth_rollbacks += BddReorderTestPeer::restored_growths(p.mgr) > 0;
    }
    p.mgr.check_integrity();
    p.ref.check_integrity();
    EXPECT_EQ(p.truth_tables(), tables) << "seed " << seed;
    if (testing::Test::HasFailure()) FAIL() << "seed " << seed;
  }
  // The sample reaches every path of the journaled sift, a stop that
  // decides a final order, and a rollback across a table growth.
  EXPECT_GT(repass_stops, 0u);
  EXPECT_GT(far_parks, 0u);
  EXPECT_GT(at_ends, 0u);
  EXPECT_GT(hides_better, 0u);
  EXPECT_GT(growth_rollbacks, 0u);
}

// One variable of a random manager, sifted from the state its manager
// reaches after sifting every variable before it; each case pins the path
// named in its `what`.
TEST(BddReorder, JournaledSiftBuiltCases) {
  struct Case {
    const char* what;
    uint32_t seed, nvars;
    BddVar var;
    bool stopped_on_repass, far_park, at_end;
  };
  const Case cases[] = {
      {"phase 1 stops on a level phase 0 measured", 150, 14, 10, true, false, false},
      {"parks from the far end of phase 0", 86, 13, 8, true, true, false},
      {"variable already at an end", 1, 9, 0, false, false, true},
  };
  for (const Case& c : cases) {
    SiftPair p(c.seed, c.nvars);
    const auto tables = p.truth_tables();
    bool far_park = false;
    for (BddVar v = 0; v < c.var; ++v) p.sift(v, &far_park);
    const ReferenceSift r = p.sift(c.var, &far_park);
    EXPECT_EQ(r.stopped_on_repass, c.stopped_on_repass) << c.what;
    EXPECT_EQ(far_park, c.far_park) << c.what;
    EXPECT_EQ(r.at_end, c.at_end) << c.what;
    p.mgr.check_integrity();
    EXPECT_EQ(p.truth_tables(), tables) << c.what;
  }
}

// Journaled swaps carry a variable to an end of the order, and the rollback
// must bring back every node record, reference count and bucket, the order
// and a byte-exact tracked arena. The sample's journals hold each kind of
// write a rollback undoes beyond plain rewrites: nodes taken from the free
// list, nodes born since the checkpoint, and saved levels grown since.
TEST(BddReorder, JournalRollbackRestoresEveryWrite) {
  size_t reused = 0, born = 0, grown = 0;
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    SiftPair p(seed, 8 + seed % 9);
    const std::vector<uint32_t> tables = BddReorderTestPeer::tables(p.mgr);
    const std::vector<BddVar> order = p.mgr.current_order();
    const size_t live = p.mgr.live_nodes();
    for (BddVar v = 0; v < p.nvars; ++v) {
      for (const bool down : {true, false}) {
        const BddReorderTestPeer::JournalPaths paths =
            BddReorderTestPeer::journaled_trip(p.mgr, v, down);
        reused += paths.reused > 0;
        born += paths.born > 0;
        grown += paths.grown_levels > 0;
        EXPECT_EQ(BddReorderTestPeer::tables(p.mgr), tables) << "var " << v;
        EXPECT_EQ(p.mgr.current_order(), order) << "var " << v;
        EXPECT_EQ(p.mgr.live_nodes(), live) << "var " << v;
        EXPECT_EQ(p.mgr.heap_bytes(), p.mgr.heap_bytes_recomputed()) << "var " << v;
      }
    }
    p.mgr.check_integrity();
    if (testing::Test::HasFailure()) FAIL() << "seed " << seed;
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(born, 0u);
  EXPECT_GT(grown, 0u);
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
