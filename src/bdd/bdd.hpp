#pragma once
// Reduced Ordered Binary Decision Diagram (ROBDD) package.
//
// A from-scratch replacement for the CUDD package the paper's prototype used
// [14]. Features required by the RFN engines:
//   * unique tables organized per variable (a prerequisite for in-place
//     adjacent-level swap, hence dynamic reordering);
//   * a lossy computed-table cache for the recursive operators;
//   * reference-counted nodes with deferred garbage collection at operation
//     boundaries ("safe points");
//   * AND / OR / XOR / NOT / ITE, existential quantification, the
//     and-exists relational product used by image computation, variable
//     substitution, cofactors;
//   * cube utilities: satisfying cube, *shortest* cube (the paper's
//     "fattest cube ... with least number of assignments", Section 2.2),
//     per-variable support, model counting;
//   * sifting-based dynamic variable reordering (Section 2.2 "we allow
//     automatic dynamic BDD variable reordering").
//
// Design notes. Nodes have no complement edges; canonical form is the plain
// (var, lo, hi) triple with lo != hi and maximal sharing. node(v, lo, hi)
// denotes (!v & lo) | (v & hi). Node ids are stable across garbage
// collection and reordering (reordering rewrites nodes in place, preserving
// each id's *function*), so external Bdd handles survive both. Garbage
// collection and reordering run only between public operations, never
// inside a recursion.

#include <cstdint>
#include <utility>
#include <vector>

#include "util/cancel.hpp"
#include "util/log.hpp"

namespace rfn {

class BddMgr;

using BddVar = uint32_t;

/// A (variable, polarity) pair; `positive` true means the variable itself.
struct BddLit {
  BddVar var = 0;
  bool positive = true;

  friend bool operator==(const BddLit&, const BddLit&) = default;
};

/// RAII handle to a BDD node. Copying increments the node reference count;
/// destruction decrements it. A default-constructed handle is null.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  bool is_null() const { return mgr_ == nullptr; }
  bool is_false() const;
  bool is_true() const;
  bool is_terminal() const { return is_false() || is_true(); }

  uint32_t id() const { return id_; }
  BddMgr* mgr() const { return mgr_; }

  /// Structural equality; by canonicity this is semantic equivalence.
  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.id_ == b.id_;
  }

  // Logical operators (null-safe only for assignment; operands must be
  // non-null and share a manager).
  Bdd operator&(const Bdd& o) const;
  Bdd operator|(const Bdd& o) const;
  Bdd operator^(const Bdd& o) const;
  Bdd operator!() const;
  Bdd& operator&=(const Bdd& o) { return *this = *this & o; }
  Bdd& operator|=(const Bdd& o) { return *this = *this | o; }

  /// f & !o
  Bdd diff(const Bdd& o) const { return *this & !o; }
  /// True iff this implies o (f & !o == false).
  bool implies(const Bdd& o) const;
  /// True iff the conjunction is satisfiable.
  bool intersects(const Bdd& o) const { return !((*this & o).is_false()); }

 private:
  friend class BddMgr;
  Bdd(BddMgr* mgr, uint32_t id);  // takes no extra reference; used internally

  BddMgr* mgr_ = nullptr;
  uint32_t id_ = 0;
};

/// Statistics snapshot for logs and benches.
struct BddStats {
  size_t live_nodes = 0;
  /// High-water mark of live_nodes over the manager's lifetime — the
  /// capacity metric the CEGAR loop reports per iteration and the bench
  /// regression gate tracks.
  size_t peak_live_nodes = 0;
  size_t gc_runs = 0;
  size_t reorderings = 0;
  /// Adjacent-level swaps made by sifting, and the times a sift restored
  /// its undo journal's checkpoint instead of swapping back to it.
  size_t sift_swaps = 0;
  size_t sift_rollbacks = 0;
  /// Nodes those swaps rewrote in place, and the most bytes the undo
  /// journal held at once (it lives outside the tracked arena).
  size_t sift_rewrites = 0;
  size_t sift_journal_peak_bytes = 0;
  size_t cache_lookups = 0;
  size_t cache_hits = 0;
  /// Allocations the node cap (BddMgr::set_node_budget) refused; each one
  /// abandoned a public operation, which returned a null Bdd.
  size_t node_budget_refusals = 0;
  /// Byte-exact arena footprint: node pool + unique-table buckets +
  /// computed cache, by *capacity* (what the vectors actually hold from the
  /// allocator). The arena never shrinks — freed nodes go to the free list —
  /// so live == peak within one manager; both are kept so the metrics
  /// vocabulary matches the SAT solver's, whose watch lists can be resized.
  size_t heap_bytes = 0;
  size_t heap_peak_bytes = 0;

  /// Computed-cache hit rate in [0, 1]; 0 when no lookups happened.
  double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) / static_cast<double>(cache_lookups);
  }
};

/// Merges one manager's lifetime statistics into the global metrics
/// registry ("bdd.*": counters for gc/reorder/cache totals, gauge maxima
/// for the node high-water marks). BddMgr itself never touches the global
/// registry — its counters are plain fields on the hot path — so owners
/// flush exactly once per manager, at a natural boundary (RFN flushes the
/// per-iteration Step-2 manager when the iteration ends; benches flush before
/// exporting counters).
void publish_bdd_metrics(const BddStats& s);

/// Live-node cap of every manager the engines own when no smaller node
/// budget is set: RFN and coverage iterations, the BFS baseline, plain MC
/// and the holds-certificate rebuild (BddMgr::set_node_budget).
inline constexpr size_t kDefaultNodeBudget = size_t{4} << 20;

class BddMgr {
 public:
  explicit BddMgr(uint32_t initial_vars = 0);
  ~BddMgr();

  BddMgr(const BddMgr&) = delete;
  BddMgr& operator=(const BddMgr&) = delete;

  // --- variables ---

  /// Creates a fresh variable at the bottom of the current order.
  BddVar new_var();
  uint32_t num_vars() const { return static_cast<uint32_t>(perm_.size()); }
  /// Current level of a variable (0 = top).
  uint32_t level_of(BddVar v) const { return perm_[v]; }
  /// Variable at a level.
  BddVar var_at_level(uint32_t level) const { return invperm_[level]; }

  // --- constants and literals ---

  Bdd bdd_false() { return make(0); }
  Bdd bdd_true() { return make(1); }
  Bdd literal(BddVar v, bool positive = true);
  Bdd var(BddVar v) { return literal(v, true); }
  Bdd nvar(BddVar v) { return literal(v, false); }

  // --- core operations ---

  Bdd apply_and(const Bdd& f, const Bdd& g);
  Bdd apply_or(const Bdd& f, const Bdd& g);
  Bdd apply_xor(const Bdd& f, const Bdd& g);
  Bdd apply_not(const Bdd& f);
  Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// Cofactor of f with v set to `value`.
  Bdd cofactor(const Bdd& f, BddVar v, bool value);

  /// Existential quantification of `vars` out of f.
  Bdd exists(const Bdd& f, const std::vector<BddVar>& vars);
  /// Universal quantification.
  Bdd forall(const Bdd& f, const std::vector<BddVar>& vars);
  /// exists(vars, f & g) computed without building f & g — the relational
  /// product at the heart of image computation.
  Bdd and_exists(const Bdd& f, const Bdd& g, const std::vector<BddVar>& vars);

  /// Simultaneous variable substitution: var v is replaced by map[v]
  /// (identity where map[v] == v). Works for arbitrary (even
  /// order-violating) maps.
  Bdd rename(const Bdd& f, const std::vector<BddVar>& map);

  /// Conjunction of literals as a BDD.
  Bdd cube(const std::vector<BddLit>& lits);

  // --- queries ---

  /// Variables in the support of f, ascending by variable index.
  std::vector<BddVar> support(const Bdd& f);
  /// Number of satisfying assignments over `nvars` variables.
  double sat_count(const Bdd& f, uint32_t nvars);
  /// Some satisfying cube (empty for the constants).
  std::vector<BddLit> any_cube(const Bdd& f);
  /// A satisfying cube with the minimum number of literals — the paper's
  /// "fattest cube". Returns empty if f is a constant.
  std::vector<BddLit> shortest_cube(const Bdd& f);
  /// Up to `limit` distinct satisfying path-cubes of f in DFS order. The
  /// hybrid trace engine iterates these when ATPG rejects a candidate.
  std::vector<std::vector<BddLit>> first_cubes(const Bdd& f, size_t limit);
  /// Top variable of f (the one at the highest level in f's DAG);
  /// kNoTopVar for terminals. f must be non-null.
  static constexpr BddVar kNoTopVar = 0xFFFFFFFFu;
  BddVar top_var(const Bdd& f) const;
  /// Irredundant sum-of-products (Minato-Morreale ISOP): a cube cover whose
  /// disjunction is exactly f, appended to `out` with each cube's literals
  /// sorted by variable. Returns false — with `out` cleared — when the
  /// cover exceeds `max_cubes` cubes or the node budget trips mid-way.
  /// Certificate extraction turns the cover of a reached-set complement
  /// into invariant clauses.
  bool isop_cover(const Bdd& f, size_t max_cubes,
                  std::vector<std::vector<BddLit>>* out);
  /// Evaluates f under a total assignment (indexed by variable).
  bool eval(const Bdd& f, const std::vector<bool>& assignment);
  /// DAG size of f (internal nodes, excluding terminals).
  size_t node_count(const Bdd& f);

  // --- memory management & reordering ---

  /// Hard cap on live nodes (0 = unlimited). When an operation would grow
  /// the manager past the cap, it is abandoned: the public call returns a
  /// null Bdd, intermediate garbage is collected, and the manager stays
  /// consistent, and stats().node_budget_refusals counts the refusal. This
  /// is how resource-bounded runs (plain MC on oversized designs, each RFN
  /// iteration under budget-bdd-nodes) fail gracefully, and since the cap
  /// is checked in line, the same run is refused at the same allocation
  /// every time.
  void set_node_budget(size_t cap) { node_budget_ = cap; }
  size_t node_budget() const { return node_budget_; }

  /// The run's stop signal, polled inside the recursive operators (every
  /// 16,384 computed-table probes) and per variable of a sifting pass: an
  /// operation that thrashes the lossy computed table can burn unbounded
  /// CPU without allocating, so the node cap alone cannot bound it. A
  /// cancelled operation is abandoned like a refused allocation: the public
  /// call returns a null Bdd and the manager stays consistent; once the
  /// token has fired, every later operation returns null too. Pass nullptr
  /// to clear. The token must outlive the manager or be cleared before it
  /// dies.
  void set_cancel(const CancelToken* cancel) {
    cancel_ = cancel;
    cancel_fired_ = false;
  }

  void garbage_collect();
  /// Runs one sifting pass over all variables, moving each to the level
  /// that minimizes the live node count.
  void reorder_sift();
  /// Enables automatic sifting when the live node count crosses a growing
  /// threshold (checked at operation boundaries).
  void set_auto_reorder(bool enabled) { auto_reorder_ = enabled; }
  /// Captures / restores a variable order (vector of variables, top first).
  std::vector<BddVar> current_order() const { return invperm_; }
  void set_order(const std::vector<BddVar>& order);

  const BddStats& stats() const { return stats_; }
  size_t live_nodes() const { return stats_.live_nodes; }

  /// Tracked arena bytes (stats().heap_bytes, maintained incrementally at
  /// every growth site) and an O(vars) recomputation from the live vector
  /// capacities. prof_test pins tracked == recomputed after alloc, GC and
  /// reorder — the incremental counter may never drift.
  size_t heap_bytes() const { return stats_.heap_bytes; }
  size_t heap_bytes_recomputed() const {
    size_t bytes = nodes_.capacity() * sizeof(Node) +
                   cache_.capacity() * sizeof(CacheEntry);
    for (const Subtable& st : subtables_)
      bytes += st.buckets.capacity() * sizeof(uint32_t);
    return bytes;
  }

  /// Validates internal invariants (canonicity, refcount consistency,
  /// subtable membership). O(nodes); used by tests.
  void check_integrity() const;

 private:
  friend class Bdd;
  friend class BddReorderTestPeer;

  struct Node {
    BddVar var;     // kInvalidVar when on the free list; kTermVar for 0/1
    uint32_t lo, hi;
    uint32_t next;  // unique-table chain / free-list link
    uint32_t rc;    // parents + external handles; saturates at kMaxRc
  };
  static constexpr BddVar kTermVar = 0xFFFFFFFEu;
  static constexpr BddVar kInvalidVar = 0xFFFFFFFFu;
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  static constexpr uint32_t kMaxRc = 0xFFFFFFF0u;

  struct Subtable {
    std::vector<uint32_t> buckets;  // heads of chains, kNil-terminated
    uint32_t count = 0;             // nodes currently in this subtable
  };

  enum class Op : uint8_t {
    And = 1, Xor, Not, Ite, Exists, Forall, AndExists,
  };

  struct CacheEntry {
    uint32_t a = kNil, b = kNil, c = kNil;
    uint32_t result = kNil;
    Op op{};
  };

  // node helpers
  uint32_t level(uint32_t node) const {
    const BddVar v = nodes_[node].var;
    return v == kTermVar ? kTermLevel : perm_[v];
  }
  static constexpr uint32_t kTermLevel = 0xFFFFFFFFu;

  // The write primitives. Instantiated with kJournal (a swap while the sift
  // journal is open), each saves the node records it rewrites first.
  void inc_rc(uint32_t node);
  void dec_rc(uint32_t node);
  template <bool kJournal = false>
  uint32_t find_or_add(BddVar v, uint32_t lo, uint32_t hi);
  void subtable_insert(BddVar v, uint32_t node);
  /// Unlinks `node` from chain `b` of v's subtable; `prev` is the node
  /// before it on the chain, kNil when it is the head. Count unchanged.
  template <bool kJournal = false>
  void unlink(BddVar v, size_t b, uint32_t prev, uint32_t node);
  /// Grows v's table 4x once its count plus `gone` (just freed) reaches 2x its buckets.
  template <bool kJournal = false>
  void maybe_grow(BddVar v, size_t gone = 0);
  static size_t hash_pair(uint32_t lo, uint32_t hi, size_t mask);

  // cache
  uint32_t cache_lookup(Op op, uint32_t a, uint32_t b, uint32_t c);
  void cache_insert(Op op, uint32_t a, uint32_t b, uint32_t c, uint32_t result);
  void cache_clear();

  // recursive workers (raw ids; no rc manipulation on results)
  uint32_t and_rec(uint32_t f, uint32_t g);
  uint32_t xor_rec(uint32_t f, uint32_t g);
  uint32_t not_rec(uint32_t f);
  uint32_t ite_rec(uint32_t f, uint32_t g, uint32_t h);
  uint32_t exists_rec(uint32_t f, uint32_t cube);
  uint32_t and_exists_rec(uint32_t f, uint32_t g, uint32_t cube);
  uint32_t cofactor_rec(uint32_t f, BddVar v, bool value,
                        std::vector<uint32_t>& memo);
  /// Cofactors f by variable at `lvl` (identity if f is below).
  void cofactors(uint32_t f, uint32_t lvl, uint32_t& f0, uint32_t& f1) const;

  /// Safe point: run pending GC / auto-reorder. Called on public entry.
  void housekeeping();
  Bdd make(uint32_t id);  // wraps id into a referenced handle

  // reordering internals (reorder.cpp)
  /// Swaps lvl and lvl+1; returns the live count. Defined in bdd.cpp, where
  /// the write primitives inline into it.
  template <bool kJournal = false>
  size_t swap_levels(uint32_t lvl);
  void sift_var(BddVar v);
  /// Frees a node with rc == 0: unlink, then cascade to its children.
  void free_dead_node(uint32_t node);

  /// Undo journal of one variable's sift (reorder.cpp). While it is open,
  /// swaps save each level they touch and each node record they rewrite,
  /// once per checkpoint, so journal_rollback() restores the checkpoint at
  /// the cost of the writes made since.
  struct SiftJournal {
    BddVar var = 0;          // the variable being sifted
    uint32_t level = 0;      // its level at the checkpoint
    size_t pool_size = 0;    // nodes_.size(), 0 while closed; later ids drop
    uint32_t free_head = 0;
    size_t dead_estimate = 0;
    size_t live_nodes = 0;
    // Levels a swap touched, saved whole before its first write: var,
    // count, bucket count, then the buckets. One flag per var marks them.
    std::vector<uint32_t> levels;
    std::vector<uint8_t> level_seen;
    // Node records saved before their first rewrite since the checkpoint,
    // one bit each in node_seen; no reference counts (see reorder.cpp).
    struct Record {
      uint32_t id, var, lo, hi, next;
    };
    std::vector<Record> nodes;
    std::vector<uint64_t> node_seen;
  };
  void journal_open(BddVar v);  // checkpoint: v at its current level
  void journal_rollback();      // back to the checkpoint; stays open
  void journal_close();         // keeps the writes
  void journal_clear();         // drops what is saved; notes the peak bytes
  /// Saves node `id`'s record before its first rewrite since the checkpoint.
  void journal_node(uint32_t id) {
    if (id >= journal_.pool_size) return;  // born since: dropped whole
    uint64_t& word = journal_.node_seen[id >> 6];
    const uint64_t bit = uint64_t{1} << (id & 63);
    if (word & bit) return;
    word |= bit;
    const Node& n = nodes_[id];
    journal_.nodes.push_back({id, n.var, n.lo, n.hi, n.next});
  }
  /// Saves v's buckets and count before a swap's first write to them.
  void journal_level(BddVar v) {
    if (journal_.level_seen[v]) return;
    journal_.level_seen[v] = 1;
    const Subtable& st = subtables_[v];
    journal_.levels.insert(journal_.levels.end(),
                           {v, st.count, static_cast<uint32_t>(st.buckets.size())});
    journal_.levels.insert(journal_.levels.end(), st.buckets.begin(), st.buckets.end());
  }

  // Scratch reused across calls (swap_levels runs millions of times per
  // sift pass): the x nodes a swap rewrites, the y nodes that died,
  // free_dead_node's cascade stack, the live counts of a sift's first
  // phase, and the journal. Not part of the tracked arena.
  std::vector<uint32_t> swap_moved_;
  std::vector<uint32_t> swap_dead_;
  std::vector<uint32_t> free_work_;
  std::vector<size_t> sift_counts_;
  SiftJournal journal_;

  std::vector<Node> nodes_;
  uint32_t free_head_ = kNil;
  size_t dead_estimate_ = 0;

  std::vector<Subtable> subtables_;   // indexed by var
  std::vector<uint32_t> perm_;        // var -> level
  std::vector<BddVar> invperm_;       // level -> var

  std::vector<CacheEntry> cache_;
  size_t cache_mask_ = 0;

  bool auto_reorder_ = false;
  size_t reorder_threshold_ = 1u << 14;
  bool in_reorder_ = false;
  size_t node_budget_ = 0;
  const CancelToken* cancel_ = nullptr;
  bool cancel_fired_ = false;  // cancel_ was seen cancelled

  /// Applies a capacity delta (in bytes) from one growth site. Every
  /// mutation that can change a tracked vector's capacity brackets itself
  /// with before/after capacities so stats_.heap_bytes stays byte-exact
  /// against heap_bytes_recomputed().
  void heap_track(size_t before_bytes, size_t after_bytes) {
    stats_.heap_bytes += after_bytes - before_bytes;
    if (stats_.heap_bytes > stats_.heap_peak_bytes)
      stats_.heap_peak_bytes = stats_.heap_bytes;
  }

  /// Thrown by find_or_add when the node budget is exceeded and by
  /// cache_lookup when the cancel token has fired; caught at the public
  /// operation boundary.
  struct BudgetExceeded {};

  /// Runs a recursive worker at a public boundary: null at once after the
  /// cancel token fired, else housekeeping first, wrap the raw result in a
  /// handle, and convert a blown node budget or a cancellation into a null
  /// handle (after collecting the abandoned intermediates, which are
  /// all unreferenced and thus reclaimable).
  template <typename Fn>
  Bdd run_guarded(Fn&& fn) {
    if (cancel_fired_) return Bdd();
    housekeeping();
    try {
      return make(fn());
    } catch (const BudgetExceeded&) {
      garbage_collect();
      return Bdd();
    }
  }

  BddStats stats_;
};

}  // namespace rfn
