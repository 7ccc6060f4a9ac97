#include <algorithm>
#include <numeric>

#include "bdd/bdd.hpp"
#include "util/trace.hpp"

// Dynamic variable reordering by sifting (Rudell's algorithm).
//
// The primitive is an in-place swap of two adjacent levels: every node
// labeled with the upper variable x that depends on the lower variable y is
// rewritten in place — it keeps its node id and its function, so all
// external handles and all parents stay valid — while its children are
// re-expressed with x below y. Sifting then moves each variable through the
// order with repeated swaps and parks it at the position that minimizes the
// live node count.
//
// A sift never walks back. The classic sift of a variable makes three
// trips: toward the nearer end (phase 0), back over those levels and on
// toward the other end (phase 1), and from there to the best level
// (parking). The manager holds no dead node between swaps (the sift starts
// after a collection and every swap frees the nodes it orphans), so the
// live count is the size of the reduced diagram of the live roots under the
// current order: a function of the order alone. Hence:
//   * phase 1's return stretch repeats the counts phase 0 recorded, cannot
//     improve the best, and stops (live > 1.2 x best) exactly where those
//     counts say; sift_var predicts that stop instead of walking it;
//   * when phase 1 goes on into new levels, an undo journal restores the
//     variable's start and phase 1 continues from there; each new best it
//     finds beats every level behind it, so the journal's checkpoint moves
//     there;
//   * parking starts from whichever is nearer to the best level: where the
//     variable is, or the checkpoint after a rollback.
// The levels visited, the counts seen there and so every final order are
// those of the classic sift. Only the ids of rewritten nodes differ: a
// rollback restores ids that a walk back would have reassigned.
//
// The journal (BddMgr::SiftJournal) snapshots the O(vars) state at its
// checkpoint: free-list head, live and dead counts, pool size, perm_ and
// invperm_, and the subtable counts. While it is open, swaps run the
// journaled instances of the write primitives: each saves a node record at
// its first write since the checkpoint (one bit per node marks it), logs
// every bucket-head write, and keeps the old vector of a table that grows.
// A rollback rewrites the saved records, undoes the head writes newest
// first and truncates the pool to its checkpoint size: it costs as much as
// the writes since the checkpoint, never O(arena). A restored bucket vector
// keeps the capacity its growth gave it, so the tracked arena never
// shrinks. The journal and the rest of the sift scratch live outside the
// tracked arena.

namespace rfn {

template <bool kJournal>
size_t BddMgr::swap_levels(uint32_t lvl) {
  RFN_CHECK(lvl + 1 < num_vars(), "swap_levels at bottom");
  const BddVar x = invperm_[lvl];      // upper variable, moves down
  const BddVar y = invperm_[lvl + 1];  // lower variable, moves up
  auto permute = [&] {
    std::swap(perm_[x], perm_[y]);
    invperm_[lvl] = y;
    invperm_[lvl + 1] = x;
    return stats_.live_nodes;
  };
  // With either level empty no x node depends on y: only the order changes.
  if (subtables_[x].count == 0 || subtables_[y].count == 0) return permute();

  const auto is_y = [&](uint32_t n) { return n >= 2 && nodes_[n].var == y; };
  // One scan of x's chains unlinks the nodes that depend on y, in chain
  // order; new x nodes (which never depend on y) join the same chains
  // below. x's count drops per node just before its rewrite, so
  // find_or_add grows x's table where it did when each node was removed at
  // its own turn, and the table layout and every node id come out the same.
  std::vector<uint32_t>& moved = swap_moved_;
  moved.clear();
  for (size_t b = 0; b < subtables_[x].buckets.size(); ++b) {
    uint32_t prev = kNil;
    for (uint32_t id = subtables_[x].buckets[b]; id != kNil;) {
      const uint32_t next = nodes_[id].next;
      if (is_y(nodes_[id].lo) || is_y(nodes_[id].hi)) {
        unlink<kJournal>(x, b, prev, id);
        moved.push_back(id);
      } else {
        prev = id;
      }
      id = next;
    }
  }

  std::vector<uint32_t>& maybe_dead = swap_dead_;
  maybe_dead.clear();
  for (const uint32_t id : moved) {
    const uint32_t lo = nodes_[id].lo;
    const uint32_t hi = nodes_[id].hi;
    const bool lo_y = is_y(lo);
    const bool hi_y = is_y(hi);

    // f = !x(!y f00 + y f01) + x(!y f10 + y f11)
    //   = !y(!x f00 + x f10) + y(!x f01 + x f11)
    const uint32_t f00 = lo_y ? nodes_[lo].lo : lo;
    const uint32_t f01 = lo_y ? nodes_[lo].hi : lo;
    const uint32_t f10 = hi_y ? nodes_[hi].lo : hi;
    const uint32_t f11 = hi_y ? nodes_[hi].hi : hi;

    --subtables_[x].count;
    const uint32_t n0 = find_or_add<kJournal>(x, f00, f10);
    const uint32_t n1 = find_or_add<kJournal>(x, f01, f11);
    RFN_CHECK(n0 != n1, "swap produced redundant node");
    inc_rc<kJournal>(n0);
    inc_rc<kJournal>(n1);
    // The old children lose their edge from this node.
    for (uint32_t child : {lo, hi}) {
      Node& c = nodes_[child];
      if (c.var == kTermVar || c.rc >= kMaxRc) continue;
      RFN_CHECK(c.rc > 0, "swap: child refcount underflow");
      if constexpr (kJournal) journal_node(child);
      if (--c.rc == 0) {
        ++dead_estimate_;
        maybe_dead.push_back(child);
      }
    }
    if constexpr (kJournal) journal_node(id);
    Node& n = nodes_[id];
    n.var = y;
    n.lo = n0;
    n.hi = n1;
    subtable_insert<kJournal>(y, id);
  }
  // The moved nodes may have overloaded y's chains; x's grew in find_or_add.
  maybe_grow<kJournal>(y);

  for (uint32_t d : maybe_dead)
    if (nodes_[d].var != kInvalidVar && nodes_[d].rc == 0) free_dead_node<kJournal>(d);

  return permute();
}

template size_t BddMgr::swap_levels<false>(uint32_t);

void BddMgr::journal_open() {
  SiftJournal& j = journal_;
  j.pool_size = nodes_.size();
  j.free_head = free_head_;
  j.free_count = free_count_;
  j.dead_estimate = dead_estimate_;
  j.live_nodes = stats_.live_nodes;
  j.perm = perm_;
  j.invperm = invperm_;
  j.counts.resize(subtables_.size());
  for (size_t v = 0; v < subtables_.size(); ++v) j.counts[v] = subtables_[v].count;
  j.node_seen.resize((j.pool_size + 63) / 64, 0);  // clear bits stay clear
}

void BddMgr::journal_close() {
  SiftJournal& j = journal_;
  for (const auto& rec : j.nodes) j.node_seen[rec.first >> 6] = 0;
  j.nodes.clear();
  j.heads.clear();
  j.grown.clear();
  j.pool_size = 0;
}

void BddMgr::journal_rollback() {
  SiftJournal& j = journal_;
  for (const auto& [id, rec] : j.nodes) {
    nodes_[id] = rec;
    j.node_seen[id >> 6] = 0;
  }
  j.nodes.clear();
  // Head writes undo newest first: a growth gives its table back the vector
  // the writes before it went to (assign() keeps the grown capacity).
  for (size_t i = j.heads.size(); i-- > 0;) {
    const SiftJournal::Head& h = j.heads[i];
    std::vector<uint32_t>& buckets = subtables_[h.var].buckets;
    if (h.bucket != kNil) {
      buckets[h.bucket] = h.old;
    } else {
      buckets.assign(j.grown.back().begin(), j.grown.back().end());
      j.grown.pop_back();
    }
  }
  j.heads.clear();
  nodes_.resize(j.pool_size);  // capacity stays
  free_head_ = j.free_head;
  free_count_ = j.free_count;
  dead_estimate_ = j.dead_estimate;
  stats_.live_nodes = j.live_nodes;
  perm_ = j.perm;
  invperm_ = j.invperm;
  for (size_t v = 0; v < subtables_.size(); ++v) subtables_[v].count = j.counts[v];
  ++stats_.sift_rollbacks;
}

void BddMgr::sift_var(BddVar v) {
  // Growth abort: a direction is abandoned once the table exceeds this
  // factor of the best size seen for this variable.
  constexpr double kMaxGrowth = 1.2;
  const uint32_t bottom = num_vars() - 1;
  const uint32_t start = perm_[v];

  size_t best = stats_.live_nodes;
  uint32_t best_level = start;
  const auto too_big = [&](size_t live) {
    return static_cast<double>(live) > kMaxGrowth * static_cast<double>(best);
  };
  const auto at_end = [&](bool down) { return perm_[v] == (down ? bottom : 0); };
  const auto swap = [&](bool down) {
    ++stats_.sift_swaps;
    const uint32_t lvl = down ? perm_[v] : perm_[v] - 1;
    return journal_.pool_size != 0 ? swap_levels<true>(lvl) : swap_levels<false>(lvl);
  };
  // Moves v one level; true when that level is the best so far.
  const auto step = [&](bool down) {
    const size_t live = swap(down);
    if (live >= best) return false;
    best = live;
    best_level = perm_[v];
    return true;
  };

  // Phase 0: toward the closer end first to halve the expected work,
  // recording the live count at each level.
  const bool down = start >= num_vars() / 2;
  std::vector<size_t>& counts = sift_counts_;
  counts.assign(1, best);
  journal_open();
  uint32_t checkpoint = start;  // the level journal_rollback() returns v to
  while (!at_end(down)) {
    step(down);
    counts.push_back(stats_.live_nodes);
    if (too_big(counts.back())) break;
  }
  // Phase 1 first re-passes those levels, the far end's neighbour first,
  // with best fixed: it stops at the first whose count is too big. Only if
  // none is does it reach new levels, from v's start. A new best there is
  // better than every level behind it, so the journal moves its checkpoint
  // to it.
  if (std::none_of(counts.begin(), counts.end() - 1, too_big)) {
    if (perm_[v] != start) journal_rollback();
    while (!at_end(!down)) {
      if (step(!down)) {
        journal_close();
        journal_open();
        checkpoint = best_level;
      }
      if (too_big(stats_.live_nodes)) break;
    }
  }

  // Phase 2: park at the best level, from the nearer of where v is and the
  // checkpoint.
  const auto distance = [&](uint32_t level) {
    return level > best_level ? level - best_level : best_level - level;
  };
  if (distance(checkpoint) < distance(perm_[v])) journal_rollback();
  journal_close();
  while (perm_[v] > best_level) swap(false);
  while (perm_[v] < best_level) swap(true);
}

void BddMgr::reorder_sift() {
  if (num_vars() < 2 || in_reorder_) return;
  Span span("bdd.reorder");
  in_reorder_ = true;
  garbage_collect();  // also clears the computed table
  const size_t before = stats_.live_nodes;
  const size_t swaps_before = stats_.sift_swaps;
  const size_t rollbacks_before = stats_.sift_rollbacks;

  // Visit variables in decreasing subtable size: big levels first is the
  // standard heuristic, and a cap keeps pathological managers bounded.
  std::vector<BddVar> order(num_vars());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](BddVar a, BddVar b) {
    return subtables_[a].count != subtables_[b].count
               ? subtables_[a].count > subtables_[b].count
               : a < b;
  });
  const size_t max_vars = std::min<size_t>(order.size(), 1000);
  for (size_t i = 0; i < max_vars; ++i) {
    if (should_stop(cancel_)) break;  // finish gracefully
    if (subtables_[order[i]].count == 0) continue;
    sift_var(order[i]);
  }
  ++stats_.reorderings;
  in_reorder_ = false;
  span.annotate("sift_swaps", static_cast<double>(stats_.sift_swaps - swaps_before),
                "sift_rollbacks",
                static_cast<double>(stats_.sift_rollbacks - rollbacks_before));
  RFN_DEBUG("reorder: %zu -> %zu live nodes", before, stats_.live_nodes);
}

void BddMgr::set_order(const std::vector<BddVar>& order) {
  RFN_CHECK(order.size() == num_vars(), "set_order: wrong length");
  in_reorder_ = true;
  garbage_collect();
  // Selection sort with adjacent swaps: cheap when tables are small (the
  // intended use: seeding a fresh manager with the order saved from the
  // previous CEGAR iteration, per the end of paper Section 2.2).
  for (uint32_t target = 0; target < order.size(); ++target) {
    const BddVar v = order[target];
    RFN_CHECK(perm_[v] >= target, "set_order: duplicate variable %u", v);
    while (perm_[v] > target) swap_levels(perm_[v] - 1);
  }
  in_reorder_ = false;
}

}  // namespace rfn
