#pragma once
// Tseitin CNF encoding of a time-frame-expanded netlist — the single-instance
// incremental formulation (Eén/Mishchenko/Amla) behind the SAT BMC engine.
//
// One encoder owns one growing unrolling of one design inside one Solver.
// It extends lazily along two axes, never re-encoding what already exists:
//
//   * depth: extend_to(k) appends frames k'+1..k. Every frame materializes
//     the same signal set — atpg/unroll's stable_frame_cone of the roots —
//     so appending a frame never disturbs earlier ones (the property
//     unroll_cone's shrinking per-frame cones cannot give an incremental
//     consumer);
//   * width: add_root(g) widens the cone to cover a new root's COI and
//     back-fills the missing variables/clauses in every existing frame. The
//     session layer uses this to keep one encoder alive while a batch run
//     appends disjunction roots to its design.
//
// Register semantics carry an *enable assumption literal* per register r:
//
//   enable(r) -> (r@1 = init)           initial-state constraint
//   enable(r) -> (r@f = data(r)@f-1)    transition constraint, f > 1
//
// Nothing else constrains r@f, so solving without assuming enable(r) leaves
// r free at every frame — exactly the pseudo-input semantics a register gets
// when excluded from an abstract model (netlist/subcircuit.hpp). Excluding a
// register from the abstraction is therefore one assumption flip.
// X-initialized registers get no frame-1 constraint (free either way,
// matching unroll.cpp's fresh-input treatment).
//
// The property side uses per-(root, frame) *trigger* assumption literals:
// trigger(g, f) -> g@f. Assuming the trigger asks "can g rise at frame f";
// leaving it out vacuously satisfies the clause, so one clause set serves
// every depth of an iterative deepening.

#include <cstdint>
#include <map>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace rfn::sat {

class BmcEncoder {
 public:
  /// `m` and `s` must outlive the encoder. The netlist may grow behind the
  /// encoder's back (append_disjunction on a session's augmented design);
  /// existing GateIds stay valid and new gates are picked up by the next
  /// add_root() that needs them.
  BmcEncoder(const Netlist& m, Solver& s);

  /// Ensures `root`'s COI is part of the stable cone, back-filling every
  /// existing frame. No-op when already covered.
  void add_root(GateId root);

  /// Ensures frames 1..k are encoded. No-op when k <= frames().
  void extend_to(size_t frames);
  size_t frames() const { return frames_; }

  /// Enable assumption literal of register `r` (created when the register
  /// enters the cone; kUndefLit for registers outside it).
  Lit enable(GateId r) const;
  /// Trigger assumption literal asserting `root` is 1 at frame `f` (creates
  /// it on first use; `root` must be materialized at `f`).
  Lit trigger(GateId root, size_t frame);

  /// Registers inside the stable cone, sorted by GateId.
  const std::vector<GateId>& cone_registers() const { return cone_regs_; }
  bool in_cone(GateId g) const { return g < cone_.size() && cone_[g]; }

  /// Decodes the solver's model into a `depth`-cycle error trace over the
  /// design's signals. Registers in `included` (sorted) land in the state
  /// cubes; cone registers outside it — free pseudo-inputs of the
  /// abstraction — and primary inputs land in the input cubes, the same
  /// placement Subcircuit::trace_to_old gives abstract traces, so
  /// refinement, concretization and cert::check_certificate consume the
  /// result unchanged.
  Trace decode_trace(size_t depth, const std::vector<GateId>& included) const;

 private:
  void encode_frame_signals(size_t frame);
  Lit fresh();
  Lit const_lit(bool value);
  void add2(Lit a, Lit b) { s_->add_clause({a, b}); }
  void add3(Lit a, Lit b, Lit c) { s_->add_clause({a, b, c}); }
  /// out <-> AND(ins); negate literals to express OR/NAND/NOR.
  void add_and(Lit out, const std::vector<Lit>& ins);
  void add_xor(Lit out, Lit a, Lit b);

  const Netlist* m_;
  Solver* s_;
  std::vector<bool> cone_;             // stable materialization mask
  std::vector<GateId> order_;          // topo order filtered to the cone
  std::vector<GateId> roots_;
  std::vector<GateId> cone_regs_;      // sorted
  std::vector<Lit> enable_;            // per GateId; kUndefLit when absent
  std::vector<std::vector<Lit>> vars_; // vars_[f-1][g]
  std::map<std::pair<GateId, size_t>, Lit> triggers_;
  size_t frames_ = 0;
  Lit true_lit_ = kUndefLit;           // shared constant
};

}  // namespace rfn::sat
