#include "sat/solver.hpp"

#include <algorithm>
#include <bit>

#include "util/log.hpp"
#include "util/metrics.hpp"

namespace rfn::sat {

namespace {

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
uint64_t luby(uint64_t i) {
  // Find the finite subsequence containing index i and its position in it.
  uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

}  // namespace

Solver::Solver() = default;

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  phase_.push_back(0);  // default polarity false
  level_.push_back(0);
  reason_.push_back(kNullClause);
  activity_.push_back(0.0);
  heap_pos_.push_back(kNoHeapPos);
  seen_.push_back(0);
  model_.push_back(LBool::Undef);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

float Solver::clause_activity(ClauseRef c) const {
  return std::bit_cast<float>(arena_[c + 1]);
}

void Solver::set_clause_activity(ClauseRef c, float a) {
  arena_[c + 1] = std::bit_cast<uint32_t>(a);
}

Solver::ClauseRef Solver::alloc_clause(const std::vector<Lit>& lits, bool learnt) {
  const ClauseRef c = static_cast<ClauseRef>(arena_.size());
  arena_.push_back(static_cast<uint32_t>(lits.size()) << 2 | (learnt ? 2u : 0u));
  arena_.push_back(std::bit_cast<uint32_t>(0.0f));
  for (const Lit l : lits) arena_.push_back(l.x);
  return c;
}

void Solver::attach_clause(ClauseRef c) {
  const Lit* lits = clause_lits(c);
  watches_[(~lits[0]).index()].push_back({c, lits[1]});
  watches_[(~lits[1]).index()].push_back({c, lits[0]});
}

void Solver::detach_clause(ClauseRef c) {
  const Lit* lits = clause_lits(c);
  for (const Lit w : {lits[0], lits[1]}) {
    auto& ws = watches_[(~w).index()];
    for (size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == c) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(std::vector<Lit> lits) {
  if (!ok_) return false;
  RFN_CHECK(decision_level() == 0, "add_clause mid-search");
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.index() < b.index(); });
  // Simplify: drop duplicates and level-0-false literals; tautologies and
  // clauses with a level-0-true literal are already satisfied.
  std::vector<Lit> out;
  Lit prev = kUndefLit;
  for (const Lit l : lits) {
    RFN_CHECK(l.var() < num_vars(), "literal over unknown variable");
    if (l == prev) continue;
    if (prev != kUndefLit && l.var() == prev.var()) return true;  // l and ~l
    if (assign_value(l) == LBool::True) return true;
    if (assign_value(l) == LBool::False) continue;
    out.push_back(l);
    prev = l;
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], kNullClause);
    if (propagate() != kNullClause) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const ClauseRef c = alloc_clause(out, /*learnt=*/false);
  clauses_.push_back(c);
  attach_clause(c);
  return true;
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  const Var v = l.var();
  RFN_CHECK(assigns_[v] == LBool::Undef, "enqueue of assigned variable");
  assigns_[v] = lbool_of(!l.neg());
  phase_[v] = l.neg() ? 0 : 1;
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNullClause;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p became true; visit clauses watching ~p
    ++stats_.propagations;
    auto& ws = watches_[p.index()];
    size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watch w = ws[i++];
      if (assign_value(w.blocker) == LBool::True) {
        ws[j++] = w;
        continue;
      }
      const ClauseRef c = w.cref;
      Lit* lits = clause_lits(c);
      const uint32_t size = clause_size(c);
      // Normalize: the false watched literal goes to slot 1.
      const Lit false_lit = ~p;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      if (assign_value(lits[0]) == LBool::True) {
        ws[j++] = {c, lits[0]};
        continue;
      }
      // Look for an unfalsified replacement watch.
      bool moved = false;
      for (uint32_t k = 2; k < size; ++k) {
        if (assign_value(lits[k]) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).index()].push_back({c, lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      ws[j++] = {c, lits[0]};
      if (assign_value(lits[0]) == LBool::False) {
        confl = c;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
        break;
      }
      enqueue(lits[0], c);
    }
    ws.resize(j);
    if (confl != kNullClause) break;
  }
  return confl;
}

void Solver::cancel_until(uint32_t level) {
  if (decision_level() <= level) return;
  for (size_t i = trail_.size(); i-- > trail_lim_[level];) {
    const Var v = trail_[i].var();
    assigns_[v] = LBool::Undef;
    reason_[v] = kNullClause;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(trail_lim_[level]);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& learnt, uint32_t& bt_level) {
  learnt.clear();
  learnt.push_back(kUndefLit);  // slot for the asserting (1UIP) literal
  std::vector<Var> to_clear;
  uint32_t path_count = 0;
  Lit p = kUndefLit;
  size_t index = trail_.size();

  do {
    RFN_CHECK(confl != kNullClause, "conflict analysis lost the reason chain");
    if (clause_learnt(confl)) clause_bump(confl);
    const Lit* lits = clause_lits(confl);
    const uint32_t size = clause_size(confl);
    for (uint32_t k = (p == kUndefLit ? 0 : 1); k < size; ++k) {
      const Var v = lits[k].var();
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      to_clear.push_back(v);
      var_bump(v);
      if (level_[v] >= decision_level()) {
        ++path_count;
      } else {
        learnt.push_back(lits[k]);
      }
    }
    while (!seen_[trail_[index - 1].var()]) --index;
    p = trail_[index - 1];
    --index;
    confl = reason_[p.var()];
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  learnt[0] = ~p;

  if (learnt.size() == 1) {
    bt_level = 0;
  } else {
    // Second-highest decision level watches slot 1 (the backjump target).
    size_t max_i = 1;
    for (size_t k = 2; k < learnt.size(); ++k)
      if (level_[learnt[k].var()] > level_[learnt[max_i].var()]) max_i = k;
    std::swap(learnt[1], learnt[max_i]);
    bt_level = level_[learnt[1].var()];
  }
  for (const Var v : to_clear) seen_[v] = 0;
}

void Solver::analyze_final(Lit p, std::vector<Lit>& out) {
  // Expresses the falsification of assumption `p` as a subset of the
  // assumption literals: every decision reached by walking the implication
  // graph backward from ~p is, during the assumption prefix, an assumption.
  out.clear();
  out.push_back(p);
  if (decision_level() == 0) return;
  std::vector<Var> to_clear{p.var()};
  seen_[p.var()] = 1;
  for (size_t i = trail_.size(); i-- > trail_lim_[0];) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    if (reason_[v] == kNullClause) {
      RFN_CHECK(level_[v] > 0, "level-0 decision on the trail");
      out.push_back(trail_[i]);
    } else {
      const Lit* lits = clause_lits(reason_[v]);
      const uint32_t size = clause_size(reason_[v]);
      for (uint32_t k = 1; k < size; ++k) {
        const Var u = lits[k].var();
        if (level_[u] > 0 && !seen_[u]) {
          seen_[u] = 1;
          to_clear.push_back(u);
        }
      }
    }
  }
  for (const Var v : to_clear) seen_[v] = 0;
}

Lit Solver::pick_branch_lit() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (assigns_[v] == LBool::Undef)
      return Lit::make(v, /*neg=*/phase_[v] == 0);
  }
  return kUndefLit;
}

void Solver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_update(v);
}

void Solver::clause_bump(ClauseRef c) {
  float a = clause_activity(c) + static_cast<float>(clause_inc_);
  if (a > 1e20f) {
    for (const ClauseRef lc : learnts_)
      if (!clause_deleted(lc)) set_clause_activity(lc, clause_activity(lc) * 1e-20f);
    clause_inc_ *= 1e-20;
    a = clause_activity(c) + static_cast<float>(clause_inc_);
  }
  set_clause_activity(c, a);
}

bool Solver::locked(ClauseRef c) const {
  const Lit first = clause_lits(c)[0];
  return reason_[first.var()] == c && assign_value(first) == LBool::True;
}

void Solver::reduce_db() {
  // Drop the low-activity half of the learnt clauses (locked ones stay: they
  // are reasons on the current trail). Arena holes are not reclaimed — see
  // the arena comment in the header.
  std::vector<ClauseRef> sorted = learnts_;
  std::sort(sorted.begin(), sorted.end(), [this](ClauseRef a, ClauseRef b) {
    return clause_activity(a) < clause_activity(b);
  });
  const size_t limit = sorted.size() / 2;
  std::vector<uint8_t> drop(sorted.size(), 0);
  size_t dropped = 0;
  for (size_t i = 0; i < limit; ++i) {
    const ClauseRef c = sorted[i];
    if (locked(c) || clause_size(c) <= 2) continue;
    detach_clause(c);
    arena_[c] |= 1u;  // deleted
    ++dropped;
  }
  std::vector<ClauseRef> keep;
  keep.reserve(learnts_.size() - dropped);
  for (const ClauseRef c : learnts_)
    if (!clause_deleted(c)) keep.push_back(c);
  learnts_ = std::move(keep);
  stats_.deleted_clauses += dropped;
}

Solver::Result Solver::solve(const std::vector<Lit>& assumptions,
                             const CancelToken* cancel) {
  ++stats_.solves;
  final_conflict_.clear();
  if (!ok_) return Result::Unsat;
  cancel_until(0);
  if (propagate() != kNullClause) {
    ok_ = false;
    return Result::Unsat;
  }
  max_learnts_ = std::max<size_t>(256, clauses_.size() / 3);

  std::vector<Lit> learnt;
  uint64_t restart_seq = 0;
  uint64_t restart_budget = 64 * luby(restart_seq);
  uint64_t restart_conflicts = 0;
  uint64_t steps = 0;

  for (;;) {
    if ((++steps & 0xFFu) == 0 && should_stop(cancel)) {
      cancel_until(0);
      return Result::Undef;
    }
    const ClauseRef confl = propagate();
    if (confl != kNullClause) {
      ++stats_.conflicts;
      ++restart_conflicts;
      if (decision_level() == 0) {
        // Conflict below every assumption: the clause set itself is UNSAT.
        ok_ = false;
        return Result::Unsat;
      }
      uint32_t bt_level = 0;
      analyze(confl, learnt, bt_level);
      cancel_until(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNullClause);
      } else {
        const ClauseRef c = alloc_clause(learnt, /*learnt=*/true);
        learnts_.push_back(c);
        attach_clause(c);
        clause_bump(c);
        enqueue(learnt[0], c);
      }
      ++stats_.learned_clauses;
      stats_.learned_literals += learnt.size();
      var_decay();
      clause_inc_ *= 1.0 / 0.999;
    } else {
      if (restart_conflicts >= restart_budget) {
        ++stats_.restarts;
        ++restart_seq;
        restart_budget = 64 * luby(restart_seq);
        restart_conflicts = 0;
        cancel_until(0);
        continue;
      }
      if (learnts_.size() >= max_learnts_ + trail_.size()) reduce_db();

      Lit next = kUndefLit;
      while (decision_level() < assumptions.size()) {
        const Lit p = assumptions[decision_level()];
        RFN_CHECK(p.var() < num_vars(), "assumption over unknown variable");
        const LBool v = assign_value(p);
        if (v == LBool::True) {
          new_decision_level();  // already implied: dummy level keeps indices aligned
        } else if (v == LBool::False) {
          analyze_final(p, final_conflict_);
          cancel_until(0);
          return Result::Unsat;
        } else {
          next = p;
          break;
        }
      }
      if (next == kUndefLit) {
        next = pick_branch_lit();
        if (next == kUndefLit) {
          model_ = assigns_;  // total: every variable is assigned
          cancel_until(0);
          return Result::Sat;
        }
        ++stats_.decisions;
      }
      new_decision_level();
      enqueue(next, kNullClause);
    }
  }
}

// --- decision-order heap (binary max-heap on VSIDS activity) ---

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<uint32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(Var v) { heap_sift_up(heap_pos_[v]); }

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = kNoHeapPos;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<uint32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<uint32_t>(i);
}

void Solver::heap_sift_down(size_t i) {
  const Var v = heap_[i];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() &&
        activity_[heap_[child + 1]] > activity_[heap_[child]])
      ++child;
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<uint32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<uint32_t>(i);
}

}  // namespace rfn::sat
