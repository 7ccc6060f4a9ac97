#pragma once
// Three-valued implication engine over a gate-level netlist.
//
// This is the deduction core of the ATPG engines: given a set of required
// signal values it propagates forward (fanin values determine an output) and
// backward (an output value forces fanin values, e.g. AND=1 forces all
// fanins to 1), detecting conflicts. Assignments are recorded on a trail so
// the branch-and-bound search can backtrack in O(undone assignments).
//
// Registers are treated exactly like primary inputs: the engine works either
// on an unrolled (purely combinational) model, or on a single frame of a
// sequential design where register outputs are free cut points.

#include <deque>
#include <vector>

#include "netlist/analysis.hpp"
#include "netlist/netlist.hpp"

namespace rfn {

class ImplicationEngine {
 public:
  explicit ImplicationEngine(const Netlist& n);

  const Netlist& netlist() const { return *n_; }

  /// Asserts signal g = value and runs implication to closure.
  /// Returns false on conflict (state remains valid; caller must undo).
  bool assign(GateId g, bool value);

  Tri value(GateId g) const { return vals_[g]; }
  const std::vector<Tri>& values() const { return vals_; }

  /// Free signals are the decision variables: primary inputs and register
  /// outputs.
  bool is_free(GateId g) const { return n_->is_input(g) || n_->is_reg(g); }

  /// Trail position to pass to undo_to later.
  size_t mark() const { return trail_.size(); }
  /// Rolls assignments back to a previous mark.
  void undo_to(size_t mark);
  const std::vector<GateId>& trail() const { return trail_; }

  /// A combinational gate is justified when its fanin values force its
  /// assigned output value. Gates with X output are trivially justified.
  bool justified(GateId g) const;

  /// First unjustified gate on the trail, or kNullGate when the current
  /// partial assignment is self-consistent (J-frontier empty). Resumes after
  /// the trail prefix already known to be justified, so a search that calls
  /// it once per decision pays amortized O(trail), not O(decisions x trail).
  GateId find_unjustified() const;

  /// justified() evaluations find_unjustified() has made so far.
  uint64_t frontier_checks() const { return frontier_checks_; }

  /// The fanout table implication walks (one CSR table per engine).
  const FanoutTable& fanouts() const { return fanouts_; }

 private:
  bool set_value(GateId g, Tri v);  // trail + queue bookkeeping; false = conflict
  bool imply_gate(GateId g);        // local forward+backward rules
  bool propagate();

  Tri forward_value(GateId g) const;

  const Netlist* n_;
  std::vector<Tri> vals_;
  std::vector<GateId> trail_;
  std::deque<GateId> queue_;
  std::vector<uint8_t> in_queue_;
  FanoutTable fanouts_;

  // J-frontier checkpoints, increasing in both fields: when the trail had
  // `trail_size` entries, trail_[0, justified) were all justified.
  // Implication is monotone (values only go X -> 0/1 until an undo), so that
  // prefix stays justified while the first `trail_size` entries are kept;
  // undo_to drops every checkpoint taken above its mark.
  struct Checkpoint {
    size_t trail_size;
    size_t justified;
  };
  mutable std::vector<Checkpoint> checkpoints_;
  mutable uint64_t frontier_checks_ = 0;
};

}  // namespace rfn
