#include "bdd/bdd.hpp"

#include <algorithm>

#include "util/metrics.hpp"

namespace rfn {

void publish_bdd_metrics(const BddStats& s) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("bdd.managers").add(1);
  m.counter("bdd.gc_runs").add(s.gc_runs);
  m.counter("bdd.reorderings").add(s.reorderings);
  m.counter("bdd.sift_swaps").add(s.sift_swaps);
  m.counter("bdd.sift_rollbacks").add(s.sift_rollbacks);
  m.counter("bdd.sift_rewrites").add(s.sift_rewrites);
  m.counter("bdd.cache_lookups").add(s.cache_lookups);
  m.counter("bdd.cache_hits").add(s.cache_hits);
  m.gauge("bdd.peak_live_nodes").record_max(static_cast<int64_t>(s.peak_live_nodes));
  m.gauge("bdd.sift_journal_bytes")
      .record_max(static_cast<int64_t>(s.sift_journal_peak_bytes));
  // Arena bytes: level = this manager's footprint, max = the largest any
  // manager reached (the batch summary's bdd.heap_bytes max).
  m.gauge("bdd.heap_bytes").set(static_cast<int64_t>(s.heap_bytes));
  m.gauge("bdd.heap_bytes").record_max(static_cast<int64_t>(s.heap_peak_bytes));
}

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(BddMgr* mgr, uint32_t id) : mgr_(mgr), id_(id) {}

Bdd::Bdd(const Bdd& other) : mgr_(other.mgr_), id_(other.id_) {
  if (mgr_) mgr_->inc_rc(id_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), id_(other.id_) {
  other.mgr_ = nullptr;
  other.id_ = 0;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  if (other.mgr_) other.mgr_->inc_rc(other.id_);
  if (mgr_) mgr_->dec_rc(id_);
  mgr_ = other.mgr_;
  id_ = other.id_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_) mgr_->dec_rc(id_);
  mgr_ = other.mgr_;
  id_ = other.id_;
  other.mgr_ = nullptr;
  other.id_ = 0;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_) mgr_->dec_rc(id_);
}

bool Bdd::is_false() const { return mgr_ != nullptr && id_ == 0; }
bool Bdd::is_true() const { return mgr_ != nullptr && id_ == 1; }

Bdd Bdd::operator&(const Bdd& o) const {
  if (is_null() || o.is_null()) return Bdd();
  return mgr_->apply_and(*this, o);
}
Bdd Bdd::operator|(const Bdd& o) const {
  if (is_null() || o.is_null()) return Bdd();
  return mgr_->apply_or(*this, o);
}
Bdd Bdd::operator^(const Bdd& o) const {
  if (is_null() || o.is_null()) return Bdd();
  return mgr_->apply_xor(*this, o);
}
Bdd Bdd::operator!() const {
  if (is_null()) return Bdd();
  return mgr_->apply_not(*this);
}

bool Bdd::implies(const Bdd& o) const {
  const Bdd diff = *this & !o;
  RFN_CHECK(!diff.is_null(), "implies: null operand or budget exceeded");
  return diff.is_false();
}

// ---------------------------------------------------------------------------
// Manager: construction, nodes, unique table
// ---------------------------------------------------------------------------

BddMgr::BddMgr(uint32_t initial_vars) {
  nodes_.reserve(1u << 16);
  // Terminals occupy ids 0 (false) and 1 (true).
  nodes_.push_back({kTermVar, kNil, kNil, kNil, kMaxRc});
  nodes_.push_back({kTermVar, kNil, kNil, kNil, kMaxRc});
  stats_.live_nodes = 0;  // terminals not counted
  cache_.resize(1u << 16);
  cache_mask_ = cache_.size() - 1;
  heap_track(0, nodes_.capacity() * sizeof(Node) +
                    cache_.capacity() * sizeof(CacheEntry));
  for (uint32_t i = 0; i < initial_vars; ++i) new_var();
}

BddMgr::~BddMgr() = default;

BddVar BddMgr::new_var() {
  const BddVar v = static_cast<BddVar>(perm_.size());
  perm_.push_back(v);  // new variable goes to the bottom level
  invperm_.push_back(v);
  subtables_.emplace_back();
  subtables_.back().buckets.assign(16, kNil);
  heap_track(0, subtables_.back().buckets.capacity() * sizeof(uint32_t));
  return v;
}

void BddMgr::inc_rc(uint32_t node) {
  Node& n = nodes_[node];
  if (n.rc >= kMaxRc) return;
  if (n.rc == 0 && n.var != kTermVar && dead_estimate_ > 0) --dead_estimate_;
  ++n.rc;
}

void BddMgr::dec_rc(uint32_t node) {
  Node& n = nodes_[node];
  if (n.rc >= kMaxRc) return;
  RFN_CHECK(n.rc > 0, "refcount underflow on node %u", node);
  --n.rc;
  if (n.rc == 0) ++dead_estimate_;
}

size_t BddMgr::hash_pair(uint32_t lo, uint32_t hi, size_t mask) {
  uint64_t h = (static_cast<uint64_t>(lo) << 32) | hi;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return static_cast<size_t>(h) & mask;
}

void BddMgr::subtable_insert(BddVar v, uint32_t node) {
  Subtable& st = subtables_[v];
  const size_t b = hash_pair(nodes_[node].lo, nodes_[node].hi, st.buckets.size() - 1);
  nodes_[node].next = st.buckets[b];
  st.buckets[b] = node;
  ++st.count;
}

template <bool kJournal>
void BddMgr::unlink(BddVar v, size_t b, uint32_t prev, uint32_t node) {
  if (prev == kNil) {
    subtables_[v].buckets[b] = nodes_[node].next;
  } else {
    if constexpr (kJournal) journal_node(prev);
    nodes_[prev].next = nodes_[node].next;
  }
}

template <bool kJournal>
void BddMgr::maybe_grow(BddVar v, size_t gone) {
  Subtable& st = subtables_[v];
  if (st.count + gone < st.buckets.size() * 2) return;
  std::vector<uint32_t> old = std::move(st.buckets);
  st.buckets.assign(old.size() * 4, kNil);
  heap_track(old.capacity() * sizeof(uint32_t),
             st.buckets.capacity() * sizeof(uint32_t));
  const size_t mask = st.buckets.size() - 1;
  for (uint32_t head : old) {
    while (head != kNil) {
      const uint32_t next = nodes_[head].next;
      const size_t b = hash_pair(nodes_[head].lo, nodes_[head].hi, mask);
      if constexpr (kJournal) journal_node(head);
      nodes_[head].next = st.buckets[b];
      st.buckets[b] = head;
      head = next;
    }
  }
}

template <bool kJournal>
uint32_t BddMgr::find_or_add(BddVar v, uint32_t lo, uint32_t hi) {
  if (lo == hi) return lo;
  Subtable& st = subtables_[v];
  const size_t b = hash_pair(lo, hi, st.buckets.size() - 1);
  for (uint32_t node = st.buckets[b]; node != kNil; node = nodes_[node].next) {
    const Node& n = nodes_[node];
    if (n.lo == lo && n.hi == hi) return node;
  }
  // Allocate (from free list or fresh).
  if (node_budget_ != 0 && !in_reorder_ && stats_.live_nodes >= node_budget_) {
    ++stats_.node_budget_refusals;
    throw BudgetExceeded{};
  }
  uint32_t id;
  if (free_head_ != kNil) {
    id = free_head_;
    if constexpr (kJournal) journal_node(id);
    free_head_ = nodes_[id].next;
  } else {
    id = static_cast<uint32_t>(nodes_.size());
    const size_t before = nodes_.capacity();
    nodes_.push_back({});
    heap_track(before * sizeof(Node), nodes_.capacity() * sizeof(Node));
  }
  nodes_[id] = {v, lo, hi, st.buckets[b], 0};
  st.buckets[b] = id;
  ++st.count;
  inc_rc(lo);
  inc_rc(hi);
  ++dead_estimate_;  // born dead until someone references it
  ++stats_.live_nodes;
  if (stats_.live_nodes > stats_.peak_live_nodes)
    stats_.peak_live_nodes = stats_.live_nodes;
  maybe_grow<kJournal>(v);
  return id;
}

void BddMgr::free_dead_node(uint32_t root) {
  std::vector<uint32_t>& work = free_work_;
  work.assign(1, root);
  while (!work.empty()) {
    const uint32_t id = work.back();
    work.pop_back();
    Node& n = nodes_[id];
    if (n.rc != 0 || n.var == kTermVar || n.var == kInvalidVar) continue;
    Subtable& st = subtables_[n.var];
    const size_t b = hash_pair(n.lo, n.hi, st.buckets.size() - 1);
    uint32_t prev = kNil;
    for (uint32_t cur = st.buckets[b]; cur != id; cur = nodes_[cur].next) prev = cur;
    unlink(n.var, b, prev, id);
    --st.count;
    const uint32_t lo = n.lo, hi = n.hi;
    n.var = kInvalidVar;
    n.next = free_head_;
    free_head_ = id;
    --stats_.live_nodes;
    if (dead_estimate_ > 0) --dead_estimate_;
    for (uint32_t child : {lo, hi}) {
      Node& c = nodes_[child];
      if (c.var == kTermVar) continue;
      if (c.rc < kMaxRc) {
        RFN_CHECK(c.rc > 0, "child refcount underflow");
        --c.rc;
        if (c.rc == 0) {
          ++dead_estimate_;
          work.push_back(child);
        }
      }
    }
  }
}

void BddMgr::garbage_collect() {
  cache_clear();
  for (uint32_t id = 2; id < nodes_.size(); ++id) {
    if (nodes_[id].var != kInvalidVar && nodes_[id].var != kTermVar &&
        nodes_[id].rc == 0)
      free_dead_node(id);
  }
  dead_estimate_ = 0;
  ++stats_.gc_runs;
}

void BddMgr::housekeeping() {
  if (in_reorder_) return;
  if (dead_estimate_ > 4096 && dead_estimate_ * 4 > stats_.live_nodes)
    garbage_collect();
  if (auto_reorder_ && stats_.live_nodes > reorder_threshold_) {
    reorder_sift();
    // Back off so we do not thrash: next reorder at 2x the post-sift size.
    reorder_threshold_ = std::max(reorder_threshold_, stats_.live_nodes * 2);
  }
}

Bdd BddMgr::make(uint32_t id) {
  inc_rc(id);
  return Bdd(this, id);
}

// ---------------------------------------------------------------------------
// Computed table
// ---------------------------------------------------------------------------

uint32_t BddMgr::cache_lookup(Op op, uint32_t a, uint32_t b, uint32_t c) {
  ++stats_.cache_lookups;
  if (cancel_ && (stats_.cache_lookups & 0x3FFF) == 0 && !in_reorder_ &&
      cancel_->cancelled()) {
    cancel_fired_ = true;
    throw BudgetExceeded{};
  }
  uint64_t h = (static_cast<uint64_t>(a) * 0x100000001b3ULL) ^
               (static_cast<uint64_t>(b) << 21) ^ (static_cast<uint64_t>(c) << 42) ^
               static_cast<uint64_t>(op);
  h *= 0x9e3779b97f4a7c15ULL;
  const CacheEntry& e = cache_[(h >> 32) & cache_mask_];
  if (e.result != kNil && e.op == op && e.a == a && e.b == b && e.c == c) {
    ++stats_.cache_hits;
    return e.result;
  }
  return kNil;
}

void BddMgr::cache_insert(Op op, uint32_t a, uint32_t b, uint32_t c, uint32_t result) {
  uint64_t h = (static_cast<uint64_t>(a) * 0x100000001b3ULL) ^
               (static_cast<uint64_t>(b) << 21) ^ (static_cast<uint64_t>(c) << 42) ^
               static_cast<uint64_t>(op);
  h *= 0x9e3779b97f4a7c15ULL;
  cache_[(h >> 32) & cache_mask_] = {a, b, c, result, op};
}

void BddMgr::cache_clear() {
  for (CacheEntry& e : cache_) e.result = kNil;
}

// ---------------------------------------------------------------------------
// Cofactors and core recursions
// ---------------------------------------------------------------------------

void BddMgr::cofactors(uint32_t f, uint32_t lvl, uint32_t& f0, uint32_t& f1) const {
  if (level(f) == lvl) {
    f0 = nodes_[f].lo;
    f1 = nodes_[f].hi;
  } else {
    f0 = f1 = f;
  }
}

uint32_t BddMgr::and_rec(uint32_t f, uint32_t g) {
  if (f == 0 || g == 0) return 0;
  if (f == 1) return g;
  if (g == 1) return f;
  if (f == g) return f;
  if (f > g) std::swap(f, g);
  const uint32_t cached = cache_lookup(Op::And, f, g, kNil);
  if (cached != kNil) return cached;
  const uint32_t lvl = std::min(level(f), level(g));
  uint32_t f0, f1, g0, g1;
  cofactors(f, lvl, f0, f1);
  cofactors(g, lvl, g0, g1);
  const uint32_t r0 = and_rec(f0, g0);
  const uint32_t r1 = and_rec(f1, g1);
  const uint32_t r = find_or_add(invperm_[lvl], r0, r1);
  cache_insert(Op::And, f, g, kNil, r);
  return r;
}

uint32_t BddMgr::xor_rec(uint32_t f, uint32_t g) {
  if (f == g) return 0;
  if (f == 0) return g;
  if (g == 0) return f;
  if (f == 1) return not_rec(g);
  if (g == 1) return not_rec(f);
  if (f > g) std::swap(f, g);
  const uint32_t cached = cache_lookup(Op::Xor, f, g, kNil);
  if (cached != kNil) return cached;
  const uint32_t lvl = std::min(level(f), level(g));
  uint32_t f0, f1, g0, g1;
  cofactors(f, lvl, f0, f1);
  cofactors(g, lvl, g0, g1);
  const uint32_t r = find_or_add(invperm_[lvl], xor_rec(f0, g0), xor_rec(f1, g1));
  cache_insert(Op::Xor, f, g, kNil, r);
  return r;
}

uint32_t BddMgr::not_rec(uint32_t f) {
  if (f == 0) return 1;
  if (f == 1) return 0;
  const uint32_t cached = cache_lookup(Op::Not, f, kNil, kNil);
  if (cached != kNil) return cached;
  const uint32_t r =
      find_or_add(nodes_[f].var, not_rec(nodes_[f].lo), not_rec(nodes_[f].hi));
  cache_insert(Op::Not, f, kNil, kNil, r);
  // Negation is an involution; prime the reverse direction too.
  cache_insert(Op::Not, r, kNil, kNil, f);
  return r;
}

uint32_t BddMgr::ite_rec(uint32_t f, uint32_t g, uint32_t h) {
  if (f == 1) return g;
  if (f == 0) return h;
  if (g == h) return g;
  if (g == 1 && h == 0) return f;
  if (g == 0 && h == 1) return not_rec(f);
  if (f == g) return ite_rec(f, 1, h);   // f ? f : h == f | h
  if (f == h) return ite_rec(f, g, 0);   // f ? g : f == f & g
  const uint32_t cached = cache_lookup(Op::Ite, f, g, h);
  if (cached != kNil) return cached;
  const uint32_t lvl = std::min(level(f), std::min(level(g), level(h)));
  uint32_t f0, f1, g0, g1, h0, h1;
  cofactors(f, lvl, f0, f1);
  cofactors(g, lvl, g0, g1);
  cofactors(h, lvl, h0, h1);
  const uint32_t r0 = ite_rec(f0, g0, h0);
  const uint32_t r1 = ite_rec(f1, g1, h1);
  const uint32_t r = find_or_add(invperm_[lvl], r0, r1);
  cache_insert(Op::Ite, f, g, h, r);
  return r;
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

namespace {
void check_same_mgr(const BddMgr* mgr, const Bdd& x) {
  RFN_CHECK(!x.is_null() && x.mgr() == mgr, "operand from wrong/null manager");
}
}  // namespace

Bdd BddMgr::literal(BddVar v, bool positive) {
  RFN_CHECK(v < num_vars(), "literal on unknown var %u", v);
  return run_guarded([&] { return positive ? find_or_add(v, 0, 1) : find_or_add(v, 1, 0); });
}

Bdd BddMgr::apply_and(const Bdd& f, const Bdd& g) {
  if (f.is_null() || g.is_null()) return Bdd();
  check_same_mgr(this, f);
  check_same_mgr(this, g);
  return run_guarded([&] { return and_rec(f.id(), g.id()); });
}

Bdd BddMgr::apply_or(const Bdd& f, const Bdd& g) {
  if (f.is_null() || g.is_null()) return Bdd();
  check_same_mgr(this, f);
  check_same_mgr(this, g);
  // f | g == ite(f, 1, g).
  return run_guarded([&] { return ite_rec(f.id(), 1, g.id()); });
}

Bdd BddMgr::apply_xor(const Bdd& f, const Bdd& g) {
  if (f.is_null() || g.is_null()) return Bdd();
  check_same_mgr(this, f);
  check_same_mgr(this, g);
  return run_guarded([&] { return xor_rec(f.id(), g.id()); });
}

Bdd BddMgr::apply_not(const Bdd& f) {
  if (f.is_null()) return Bdd();
  check_same_mgr(this, f);
  return run_guarded([&] { return not_rec(f.id()); });
}

Bdd BddMgr::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  if (f.is_null() || g.is_null() || h.is_null()) return Bdd();
  check_same_mgr(this, f);
  check_same_mgr(this, g);
  check_same_mgr(this, h);
  return run_guarded([&] { return ite_rec(f.id(), g.id(), h.id()); });
}

Bdd BddMgr::cofactor(const Bdd& f, BddVar v, bool value) {
  if (f.is_null()) return Bdd();
  check_same_mgr(this, f);
  return run_guarded([&] {
    std::vector<uint32_t> memo(0);
    return cofactor_rec(f.id(), v, value, memo);
  });
}

uint32_t BddMgr::cofactor_rec(uint32_t f, BddVar v, bool value,
                              std::vector<uint32_t>& memo) {
  if (f < 2) return f;
  if (level(f) > perm_[v]) return f;  // f entirely below v
  if (nodes_[f].var == v) return value ? nodes_[f].hi : nodes_[f].lo;
  if (memo.empty()) memo.assign(nodes_.size(), kNil);
  if (memo[f] != kNil) return memo[f];
  const uint32_t r = find_or_add(nodes_[f].var, cofactor_rec(nodes_[f].lo, v, value, memo),
                                 cofactor_rec(nodes_[f].hi, v, value, memo));
  memo[f] = r;
  return r;
}

void BddMgr::check_integrity() const {
  size_t live = 0;
  for (uint32_t id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.var == kInvalidVar) continue;
    ++live;
    RFN_CHECK(n.var < num_vars(), "node %u has bad var", id);
    RFN_CHECK(n.lo != n.hi, "node %u is redundant", id);
    for (uint32_t child : {n.lo, n.hi}) {
      const Node& c = nodes_[child];
      RFN_CHECK(c.var != kInvalidVar, "node %u points at freed child %u", id, child);
      if (c.var != kTermVar)
        RFN_CHECK(perm_[c.var] > perm_[n.var], "order violation at node %u", id);
    }
    // The node must be findable in its subtable.
    const Subtable& st = subtables_[n.var];
    const size_t b = hash_pair(n.lo, n.hi, st.buckets.size() - 1);
    bool found = false;
    for (uint32_t cur = st.buckets[b]; cur != kNil; cur = nodes_[cur].next)
      if (cur == id) {
        found = true;
        break;
      }
    RFN_CHECK(found, "node %u missing from subtable", id);
  }
  RFN_CHECK(live == stats_.live_nodes, "live count drift: %zu vs %zu", live,
            stats_.live_nodes);
  // Refcount cross-check: rc(node) >= number of internal parents.
  std::vector<uint32_t> parents(nodes_.size(), 0);
  for (uint32_t id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.var == kInvalidVar || n.var == kTermVar) continue;
    if (n.lo >= 2) ++parents[n.lo];
    if (n.hi >= 2) ++parents[n.hi];
  }
  for (uint32_t id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.var == kInvalidVar || n.var == kTermVar || n.rc >= kMaxRc) continue;
    RFN_CHECK(n.rc >= parents[id], "node %u rc %u < %u internal parents", id, n.rc,
              parents[id]);
  }
}

// ---------------------------------------------------------------------------
// Level swap (reorder.cpp sifts with it), beside the primitives it inlines
// ---------------------------------------------------------------------------

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
  // A swap writes the buckets of x and y only.
  if constexpr (kJournal) {
    journal_level(x);
    journal_level(y);
  }

  const auto is_y = [&](uint32_t n) { return nodes_[n].var == y; };
  // One scan of x's chains unlinks the nodes that depend on y, in chain
  // order; new x nodes (which never depend on y) join the same chains
  // below. x's count drops per node just before its rewrite, so
  // find_or_add grows x's table where it did when each node was removed at
  // its own turn.
  std::vector<uint32_t>& moved = swap_moved_;
  moved.clear();
  for (size_t b = 0; b < subtables_[x].buckets.size(); ++b) {
    uint32_t prev = kNil;
    for (uint32_t id = subtables_[x].buckets[b]; id != kNil;) {
      const uint32_t next = nodes_[id].next;
      if (is_y(nodes_[id].lo) || is_y(nodes_[id].hi)) {
        if constexpr (kJournal) journal_node(id);
        unlink<kJournal>(x, b, prev, id);
        moved.push_back(id);
      } else {
        prev = id;
      }
      id = next;
    }
  }
  stats_.sift_rewrites += moved.size();

  // Only y nodes die: every other child of a rewritten node, and every
  // child of a dead y node, gains an edge from a new x node or the
  // rewritten node before it loses one.
  std::vector<uint32_t>& dead = swap_dead_;
  dead.clear();
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
    inc_rc(n0);
    inc_rc(n1);
    // The old children lose their edge from this node.
    for (uint32_t child : {lo, hi}) {
      Node& c = nodes_[child];
      if (c.rc >= kMaxRc) continue;
      RFN_CHECK(c.rc > 0, "swap: child refcount underflow");
      if (--c.rc == 0) {
        RFN_CHECK(c.var == y, "swap: node below y died");
        dead.push_back(child);
      }
    }
    Node& n = nodes_[id];
    n.var = y;
    n.lo = n0;
    n.hi = n1;
  }

  // The dead leave y's chains before the rewritten nodes join them, so the
  // walks to their predecessors pass old y nodes only.
  Subtable& ys = subtables_[y];
  const size_t ymask = ys.buckets.size() - 1;
  for (const uint32_t id : dead) {
    Node& n = nodes_[id];
    const size_t b = hash_pair(n.lo, n.hi, ymask);
    uint32_t prev = kNil;
    for (uint32_t cur = ys.buckets[b]; cur != id; cur = nodes_[cur].next) prev = cur;
    if constexpr (kJournal) journal_node(id);
    unlink<kJournal>(y, b, prev, id);
    --ys.count;
    for (uint32_t child : {n.lo, n.hi}) {
      Node& c = nodes_[child];
      if (c.rc >= kMaxRc) continue;
      RFN_CHECK(c.rc > 1, "swap: a dead node's child died");
      --c.rc;
    }
    n.var = kInvalidVar;
    n.next = free_head_;
    free_head_ = id;
    --stats_.live_nodes;
  }
  for (const uint32_t id : moved) subtable_insert(y, id);
  // y's table grows where it did when the dead left after the inserts.
  maybe_grow<kJournal>(y, dead.size());
  return permute();
}

template size_t BddMgr::swap_levels<false>(uint32_t);
template size_t BddMgr::swap_levels<true>(uint32_t);
// bdd_ops.cpp's operators add nodes too.
template uint32_t BddMgr::find_or_add<false>(BddVar, uint32_t, uint32_t);

}  // namespace rfn
