#pragma once
// Incremental CDCL SAT solver (MiniSat lineage) behind the certificate
// checker (cert/check.hpp), which discharges each holds-invariant obligation
// as one UNSAT query.
//
// Feature set: two-watched-literal propagation, VSIDS variable activities
// with phase saving, first-UIP clause learning, Luby restarts, activity-based
// learnt-clause reduction, and *incremental solving under assumptions*.
// Clauses persist across solve() calls; each call takes a list of
// assumption literals that are decided before any free variable, and an
// UNSAT answer exposes final_conflict(): the subset of assumptions the
// refutation actually used.
//
// Cancellation is cooperative, like every engine in this codebase: solve()
// polls its CancelToken at propagation boundaries (never mid-propagation), so
// a cancelled solver unwinds to decision level 0 with all internal state
// intact and remains usable for the next incremental call.

#include <cstdint>
#include <vector>

#include "util/cancel.hpp"

namespace rfn::sat {

using Var = uint32_t;

/// A literal in MiniSat packing: index() = 2*var + (1 if negated). The
/// default-constructed literal is the sentinel kUndefLit.
struct Lit {
  uint32_t x = 0xFFFFFFFFu;

  static Lit make(Var v, bool neg = false) { return Lit{(v << 1) | (neg ? 1u : 0u)}; }
  Var var() const { return x >> 1; }
  bool neg() const { return (x & 1u) != 0; }
  uint32_t index() const { return x; }

  friend Lit operator~(Lit l) { return Lit{l.x ^ 1u}; }
  friend bool operator==(const Lit&, const Lit&) = default;
};

inline constexpr Lit kUndefLit{};

enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

inline LBool lbool_of(bool b) { return b ? LBool::True : LBool::False; }

struct SolverStats {
  uint64_t solves = 0;
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  uint64_t learned_clauses = 0;
  uint64_t learned_literals = 0;
  uint64_t deleted_clauses = 0;
};

class Solver {
 public:
  enum class Result { Sat, Unsat, Undef };  // Undef = cancelled

  Solver();

  /// Creates a fresh variable. Variables may be added between solve() calls.
  Var new_var();
  size_t num_vars() const { return assigns_.size(); }

  /// Adds a clause over existing variables. Returns false when the clause
  /// makes the formula trivially unsatisfiable at level 0 (the solver is
  /// then permanently UNSAT: ok() turns false and solve() answers Unsat with
  /// an empty final conflict). Tautologies and duplicate literals are
  /// simplified away.
  bool add_clause(std::vector<Lit> lits);

  /// Solves the clause set under `assumptions`. Sat: model_value() is valid
  /// for every variable until the next add_clause/solve. Unsat:
  /// final_conflict() names the failing assumption subset (empty when the
  /// clause set itself is UNSAT). Undef: cancelled; internal state stays
  /// consistent and the instance remains usable.
  Result solve(const std::vector<Lit>& assumptions = {},
               const CancelToken* cancel = nullptr);

  /// Model access after a Sat answer.
  LBool value(Var v) const { return model_[v]; }
  LBool lit_value(Lit l) const {
    const LBool v = model_[l.var()];
    if (v == LBool::Undef) return LBool::Undef;
    return lbool_of((v == LBool::True) != l.neg());
  }

  /// After an Unsat answer: the subset of the assumption literals (as
  /// passed, not negated) whose joint enforcement the refutation used.
  const std::vector<Lit>& final_conflict() const { return final_conflict_; }

  bool ok() const { return ok_; }
  const SolverStats& stats() const { return stats_; }

 private:
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kNullClause = 0xFFFFFFFFu;

  // Clause arena. Layout per clause: [header][activity][lit0 ... litN-1]
  // where header = size << 2 | learnt << 1 | deleted. Deleted learnt clauses
  // leave holes until the instance dies — a checker instance lives for one
  // certificate, so the arena's lifetime is bounded and relocation would buy
  // complexity, not memory that matters here.
  uint32_t clause_size(ClauseRef c) const { return arena_[c] >> 2; }
  bool clause_learnt(ClauseRef c) const { return (arena_[c] & 2u) != 0; }
  bool clause_deleted(ClauseRef c) const { return (arena_[c] & 1u) != 0; }
  float clause_activity(ClauseRef c) const;
  void set_clause_activity(ClauseRef c, float a);
  Lit* clause_lits(ClauseRef c) { return reinterpret_cast<Lit*>(&arena_[c + 2]); }
  const Lit* clause_lits(ClauseRef c) const {
    return reinterpret_cast<const Lit*>(&arena_[c + 2]);
  }
  ClauseRef alloc_clause(const std::vector<Lit>& lits, bool learnt);

  struct Watch {
    ClauseRef cref = kNullClause;
    Lit blocker = kUndefLit;  // clause skipped without a lookup when true
  };

  LBool assign_value(Lit l) const {
    const LBool v = assigns_[l.var()];
    if (v == LBool::Undef) return LBool::Undef;
    return lbool_of((v == LBool::True) != l.neg());
  }
  uint32_t decision_level() const { return static_cast<uint32_t>(trail_lim_.size()); }
  void new_decision_level() { trail_lim_.push_back(static_cast<uint32_t>(trail_.size())); }

  void attach_clause(ClauseRef c);
  void detach_clause(ClauseRef c);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void cancel_until(uint32_t level);
  void analyze(ClauseRef confl, std::vector<Lit>& learnt, uint32_t& bt_level);
  void analyze_final(Lit p, std::vector<Lit>& out);
  Lit pick_branch_lit();
  void var_bump(Var v);
  void var_decay() { var_inc_ *= (1.0 / 0.95); }
  void clause_bump(ClauseRef c);
  void reduce_db();
  bool locked(ClauseRef c) const;

  // Binary max-heap over VSIDS activity (decision order).
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_contains(Var v) const { return heap_pos_[v] != kNoHeapPos; }
  void heap_sift_up(size_t i);
  void heap_sift_down(size_t i);
  static constexpr uint32_t kNoHeapPos = 0xFFFFFFFFu;

  std::vector<uint32_t> arena_;
  std::vector<ClauseRef> clauses_;  // problem clauses
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watch>> watches_;  // indexed by Lit::index()

  std::vector<LBool> assigns_;
  std::vector<uint8_t> phase_;       // saved phase: last assigned sign
  std::vector<uint32_t> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<uint32_t> trail_lim_;
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<Var> heap_;
  std::vector<uint32_t> heap_pos_;
  double clause_inc_ = 1.0;

  std::vector<uint8_t> seen_;
  std::vector<LBool> model_;
  std::vector<Lit> final_conflict_;
  size_t max_learnts_ = 256;

  bool ok_ = true;
  SolverStats stats_;
};

}  // namespace rfn::sat
