#pragma once
// IC3/PDR: the portfolio's unbounded clause-learning prover (fifth engine).
//
// Property-directed reachability in the Bradley / Eén-Mishchenko
// formulation, specialized to this codebase's abstraction semantics: the
// engine runs on the ORIGINAL design restricted to an `included` register
// set — registers inside `included` are state, registers in the property
// cone outside it are free pseudo-inputs, exactly the pseudo-input
// semantics of netlist/subcircuit.hpp and the sat/cnf.hpp enable-assumption
// BMC. A Holds on the abstraction is therefore a Holds on the design
// (over-approximation), and with `included` = all registers the verdict is
// concrete in both polarities.
//
// Machinery (one incremental sat::Solver per Pdr instance):
//   * one copy of the transition logic: current-state variables for the
//     state registers, the combinational cone of `bad` and of every state
//     register's data function; the next-state literal of register r is
//     simply the cone literal of data(r) — no second frame is unrolled.
//   * frame clauses in delta encoding with per-level activation literals:
//     a clause learned at level i is added as (¬act_i ∨ clause) and F_j is
//     asserted by assuming {act_j..act_K}; pushing a clause re-adds it
//     under the next level's guard (the stale copy stays sound: it only
//     ever activates for frames where the clause is already known to hold).
//     act_0 guards the initial-state cube (binary-init registers pinned).
//   * relative-induction queries F_{i-1} ∧ ¬s ∧ T ∧ s′ under assumptions;
//     ¬s is a temporary clause behind a fresh guard, retired with a unit.
//   * cube generalization: first the solver's final_conflict() core over
//     the s′ assumption literals, then greedy literal dropping — always
//     keeping the cube syntactically disjoint from the initial states (at
//     least one literal contradicting a binary reset value).
//   * a proof-obligation priority queue (lowest frame first) whose
//     predecessor chain doubles as the counterexample trace; the main loop
//     and every solver call poll the CancelToken cooperatively.
//
// On convergence (some delta level empties after clause propagation) the
// inductive frame is returned both as cubes and pre-mapped into the
// rfn-cert-v1 clause convention — ±(index into the sorted register scope
// + 1) — so core/certificate.cpp can emit a witness the independent
// `rfn_check` audits with zero checker changes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "util/cancel.hpp"

namespace rfn {

enum class PdrStatus : uint8_t {
  Holds,       // converged: inductive invariant, unbounded proof
  Cex,         // real counterexample trace of the (abstract) model
  FrameLimit,  // exhausted max_frames without converging
  Cancelled,   // lost the race / watchdog
};

const char* to_string(PdrStatus s);

struct PdrOptions {
  /// Frame bound; the run returns FrameLimit instead of growing past it.
  size_t max_frames = 64;
  /// Cap on proof obligations examined per run (0 = unlimited); a
  /// safety-valve against pathological oscillation, returns FrameLimit.
  uint64_t max_obligations = 0;
};

struct PdrStats {
  size_t frames = 0;              // highest frame opened
  uint64_t obligations = 0;       // proof obligations examined
  uint64_t clauses = 0;           // frame clauses learned
  uint64_t generalization_drops = 0;  // literals removed from blocked cubes
  uint64_t pushed_clauses = 0;    // clauses propagated forward
};

struct PdrResult {
  PdrStatus status = PdrStatus::Cancelled;
  /// Cex: counterexample in original-design ids with the same literal
  /// placement as sat/cnf.hpp decode_trace — state registers in the state
  /// cubes, pseudo-input registers and primary inputs in the input cubes —
  /// so Step-3 concretization and cert::check_certificate consume it
  /// unchanged.
  Trace trace;
  /// Holds: the invariant's register scope (sorted ascending) and its
  /// clauses in the rfn-cert-v1 convention (±(index into scope + 1)).
  std::vector<GateId> scope;
  std::vector<std::vector<int32_t>> clauses;
  PdrStats stats;
};

/// Single-owner like a BddMgr or SatBmc: no two threads may use the
/// instance at once.
class Pdr {
 public:
  /// `included` must be sorted ascending (the session's invariant for
  /// register sets). Encoding happens lazily on the first run() call so a
  /// cancelled race never pays for it.
  Pdr(const Netlist& m, GateId bad, std::vector<GateId> included);

  PdrResult run(const PdrOptions& opt = {}, const CancelToken* cancel = nullptr);

  /// State registers of the encoded model: bad's register cone intersected
  /// with `included` (sorted). Valid after run().
  const std::vector<GateId>& state_registers() const { return state_regs_; }

 private:
  struct Obligation {
    Cube state;       // full assignment over the state registers
    Cube inputs;      // inputs driving this state into its successor
    size_t frame = 0;
    int succ = -1;    // index into obligations_ (-1 = the bad-cube root)
  };

  void encode();
  sat::Lit fresh();
  sat::Lit const_lit(bool value);
  void encode_gate(GateId g);
  sat::Lit cur(GateId g) const { return cur_[g]; }
  sat::Lit next_lit(const Literal& l) const;
  sat::Lit act(size_t level);
  /// Assumptions asserting F_level: {act_level .. act_K}.
  void frame_assumps(size_t level, std::vector<sat::Lit>* out) const;

  bool init_compatible(const Cube& cube) const;
  bool has_init_contradiction(const Cube& cube) const;
  Cube model_state() const;
  Cube model_inputs() const;
  void add_frame_clause(const Cube& cube, size_t level);
  /// Generalizes a blocked cube via UNSAT core + literal dropping; `guard`
  /// is the active ¬s temporary. Returns the (sub)cube actually blocked.
  Cube generalize(Cube cube, size_t frame, sat::Lit guard,
                  const CancelToken* cancel);
  /// Blocks the root obligation or finds a counterexample (filled into
  /// `res`). Returns false on cancellation/limits (status already set).
  bool block(Obligation root, PdrResult* res, const PdrOptions& opt,
             const CancelToken* cancel);
  /// Clause propagation after opening frame K; true when some level
  /// emptied (invariant extracted into `res`).
  bool propagate(PdrResult* res, const CancelToken* cancel);
  void extract_invariant(size_t level, PdrResult* res) const;
  void build_trace(int leaf, PdrResult* res) const;

  const Netlist* m_;
  GateId bad_;
  std::vector<GateId> included_;

  sat::Solver solver_;
  bool encoded_ = false;
  std::vector<sat::Lit> cur_;        // per-gate cone literal (kUndefLit = out)
  sat::Lit true_lit_ = sat::kUndefLit;
  sat::Lit bad_lit_ = sat::kUndefLit;
  std::vector<GateId> state_regs_;   // cone ∩ included, sorted
  std::vector<GateId> pseudo_regs_;  // cone \ included, sorted
  std::vector<GateId> cone_inputs_;  // primary inputs in the cone, sorted

  std::vector<sat::Lit> act_;              // activation literal per level
  std::vector<std::vector<Cube>> delta_;   // frame cubes by (current) level
  size_t k_ = 0;                           // highest open frame

  std::vector<Obligation> obligations_;
  PdrStats stats_;
};

}  // namespace rfn
