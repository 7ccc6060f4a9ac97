#include <algorithm>
#include <numeric>

#include "bdd/bdd.hpp"
#include "util/trace.hpp"

// Dynamic variable reordering by sifting (Rudell's algorithm).
//
// The primitive is an in-place swap of two adjacent levels (swap_levels,
// in bdd.cpp beside the write primitives it inlines): every node labeled
// with the upper variable x that depends on the lower variable y is
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
// The journal (BddMgr::SiftJournal) keeps the checkpoint's scalars: the
// sifted variable's level, pool size, free-list head, live and dead counts.
// The order needs no copy, since every swap moves the sifted variable past
// a neighbour. While it is open, a swap saves, once per checkpoint, the
// buckets and count of each level it touches and the record of each node it
// rewrites, unlinks behind, frees or reuses (one bit per node). Reference
// counts are not saved: a swap changes one only with an edge it adds or
// removes, and each such edge belongs to a saved record or to a node born
// since, so a rollback adds the records' edges back and takes the current
// ones away. A rollback costs as much as the writes since the checkpoint,
// never O(arena), and keeps a grown bucket vector's capacity, so the tracked
// arena never shrinks. The journal lives outside the tracked arena;
// BddStats::sift_journal_peak_bytes reports the most it held.

namespace rfn {

void BddMgr::journal_open(BddVar v) {
  SiftJournal& j = journal_;
  j.var = v;
  j.level = perm_[v];
  j.pool_size = nodes_.size();
  j.free_head = free_head_;
  j.dead_estimate = dead_estimate_;
  j.live_nodes = stats_.live_nodes;
  j.node_seen.resize((j.pool_size + 63) / 64, 0);  // clear bits stay clear
  j.level_seen.resize(subtables_.size(), 0);
}

void BddMgr::journal_clear() {
  SiftJournal& j = journal_;
  const size_t bytes = j.nodes.size() * sizeof(SiftJournal::Record) +
                       j.levels.size() * sizeof(uint32_t) +
                       j.node_seen.size() * sizeof(uint64_t) + j.level_seen.size();
  stats_.sift_journal_peak_bytes = std::max(stats_.sift_journal_peak_bytes, bytes);
  for (const SiftJournal::Record& r : j.nodes) j.node_seen[r.id >> 6] = 0;
  for (size_t i = 0; i < j.levels.size(); i += 3 + j.levels[i + 2]) j.level_seen[j.levels[i]] = 0;
  j.nodes.clear();
  j.levels.clear();
}

void BddMgr::journal_close() {
  journal_clear();
  journal_.pool_size = 0;
}

void BddMgr::journal_rollback() {
  SiftJournal& j = journal_;
  // Add the records' checkpoint edges back first, so that no count passes
  // zero, then take away the current edges of those nodes and of the nodes
  // born since.
  const auto add_edges = [&](uint32_t lo, uint32_t hi, int delta) {
    for (uint32_t c : {lo, hi})
      if (c < j.pool_size && nodes_[c].rc < kMaxRc) nodes_[c].rc += static_cast<uint32_t>(delta);
  };
  for (const SiftJournal::Record& r : j.nodes)
    if (r.var != kInvalidVar) add_edges(r.lo, r.hi, 1);
  for (const SiftJournal::Record& r : j.nodes) {
    Node& n = nodes_[r.id];
    if (n.var != kInvalidVar) add_edges(n.lo, n.hi, -1);
    n.var = r.var;
    n.lo = r.lo;
    n.hi = r.hi;
    n.next = r.next;
  }
  for (size_t id = j.pool_size; id < nodes_.size(); ++id)
    if (nodes_[id].var != kInvalidVar) add_edges(nodes_[id].lo, nodes_[id].hi, -1);
  for (size_t i = 0; i < j.levels.size(); i += 3 + j.levels[i + 2]) {
    Subtable& st = subtables_[j.levels[i]];
    st.count = j.levels[i + 1];
    const auto saved = j.levels.begin() + static_cast<std::ptrdiff_t>(i) + 3;
    st.buckets.assign(saved, saved + j.levels[i + 2]);  // keeps a grown capacity
  }
  journal_clear();
  nodes_.resize(j.pool_size);  // capacity stays
  free_head_ = j.free_head;
  dead_estimate_ = j.dead_estimate;
  stats_.live_nodes = j.live_nodes;
  // Every swap since moved the sifted variable past a neighbour, so the
  // others kept their relative order: move it back to its level.
  const uint32_t at = perm_[j.var];
  const auto first = invperm_.begin() + std::min(at, j.level);
  const auto last = invperm_.begin() + std::max(at, j.level) + 1;
  if (at > j.level)
    std::rotate(first, last - 1, last);
  else
    std::rotate(first, first + 1, last);
  for (auto it = first; it != last; ++it)
    perm_[*it] = static_cast<uint32_t>(it - invperm_.begin());
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
  journal_open(v);
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
        journal_open(v);
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
