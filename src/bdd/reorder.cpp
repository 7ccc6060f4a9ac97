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

namespace rfn {

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

  // Snapshot x's subtable: the loop below inserts new x nodes (which never
  // depend on y) into the same table.
  std::vector<uint32_t>& snapshot = swap_snapshot_;
  snapshot.clear();
  for (uint32_t head : subtables_[x].buckets)
    for (uint32_t n = head; n != kNil; n = nodes_[n].next) snapshot.push_back(n);

  std::vector<uint32_t>& maybe_dead = swap_dead_;
  maybe_dead.clear();
  for (const uint32_t id : snapshot) {
    const uint32_t lo = nodes_[id].lo;
    const uint32_t hi = nodes_[id].hi;
    const bool lo_y = lo >= 2 && nodes_[lo].var == y;
    const bool hi_y = hi >= 2 && nodes_[hi].var == y;
    if (!lo_y && !hi_y) continue;  // independent of y: stays labeled x

    // f = !x(!y f00 + y f01) + x(!y f10 + y f11)
    //   = !y(!x f00 + x f10) + y(!x f01 + x f11)
    const uint32_t f00 = lo_y ? nodes_[lo].lo : lo;
    const uint32_t f01 = lo_y ? nodes_[lo].hi : lo;
    const uint32_t f10 = hi_y ? nodes_[hi].lo : hi;
    const uint32_t f11 = hi_y ? nodes_[hi].hi : hi;

    subtable_remove(subtables_[x], id);
    const uint32_t n0 = find_or_add(x, f00, f10);
    const uint32_t n1 = find_or_add(x, f01, f11);
    RFN_CHECK(n0 != n1, "swap produced redundant node");
    inc_rc(n0);
    inc_rc(n1);
    // The old children lose their edge from this node.
    for (uint32_t child : {lo, hi}) {
      Node& c = nodes_[child];
      if (c.var == kTermVar || c.rc >= kMaxRc) continue;
      RFN_CHECK(c.rc > 0, "swap: child refcount underflow");
      if (--c.rc == 0) {
        ++dead_estimate_;
        maybe_dead.push_back(child);
      }
    }
    Node& n = nodes_[id];
    n.var = y;
    n.lo = n0;
    n.hi = n1;
    subtable_insert(subtables_[y], id);
  }
  // The moved nodes may have overloaded y's chains; x's grew in find_or_add.
  maybe_grow(subtables_[y]);

  for (uint32_t d : maybe_dead)
    if (nodes_[d].var != kInvalidVar && nodes_[d].rc == 0) free_dead_node(d);

  return permute();
}

void BddMgr::sift_var(BddVar v, size_t& best_live) {
  // Growth abort: a direction is abandoned once the table exceeds this
  // factor of the best size seen for this variable.
  constexpr double kMaxGrowth = 1.2;
  const uint32_t bottom = num_vars() - 1;

  size_t best = stats_.live_nodes;
  uint32_t best_level = perm_[v];

  // Phase 1: sift toward the closer end first to halve the expected work.
  const bool down_first = perm_[v] >= num_vars() / 2;
  for (int phase = 0; phase < 2; ++phase) {
    const bool down = (phase == 0) == down_first;
    while (down ? perm_[v] < bottom : perm_[v] > 0) {
      const size_t live = swap_levels(down ? perm_[v] : perm_[v] - 1);
      if (live < best) {
        best = live;
        best_level = perm_[v];
      }
      if (static_cast<double>(live) > kMaxGrowth * static_cast<double>(best)) break;
    }
  }
  // Phase 2: park at the best level seen.
  while (perm_[v] > best_level) swap_levels(perm_[v] - 1);
  while (perm_[v] < best_level) swap_levels(perm_[v]);
  best_live = best;
}

void BddMgr::reorder_sift() {
  if (num_vars() < 2 || in_reorder_) return;
  Span span("bdd.reorder");
  in_reorder_ = true;
  garbage_collect();  // also clears the computed table
  const size_t before = stats_.live_nodes;

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
    size_t best = 0;
    sift_var(order[i], best);
  }
  ++stats_.reorderings;
  in_reorder_ = false;
  span.annotate("live_nodes", static_cast<double>(stats_.live_nodes));
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
