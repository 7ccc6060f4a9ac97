#pragma once
// Three-valued implication engine over a gate-level graph.
//
// This is the deduction core of the ATPG engines: given a set of required
// signal values it propagates forward (fanin values determine an output) and
// backward (an output value forces fanin values, e.g. AND=1 forces all
// fanins to 1), detecting conflicts. Assignments are recorded on a trail so
// the branch-and-bound search can backtrack in O(undone assignments).
//
// The engine walks one of two graphs: a NetlistGraph (one frame of a
// sequential design, register outputs being free cut points like primary
// inputs) or a FrameView (k frames of a design, see frame_view.hpp). A graph
// provides:
//   slots()               bound on node ids (per-node state is indexed by id)
//   type(node)            the node's GateType
//   fanins(node)          size() and operator[] over the fanin node ids
//   for_each_const(fn)    every constant node, in id order of a flat model
//   for_each_fanout(n,fn) every reader of n, in id order of a flat model
// Propagation order, and with it the trail and every search decision, is a
// function of those orders only.

#include <deque>
#include <span>
#include <vector>

#include "atpg/frame_view.hpp"
#include "netlist/analysis.hpp"
#include "netlist/netlist.hpp"

namespace rfn {

/// A netlist with its fanout table: the graph of the single-frame engines.
/// Node ids are the netlist's GateIds.
class NetlistGraph {
 public:
  explicit NetlistGraph(const Netlist& n) : n_(&n), fanouts_(fanout_lists(n)) {}

  size_t slots() const { return n_->size(); }
  GateType type(GateId g) const { return n_->type(g); }
  std::span<const GateId> fanins(GateId g) const { return n_->fanins(g); }
  template <class F>
  void for_each_const(F&& fn) const {
    for (GateId g = 0; g < n_->size(); ++g)
      if (n_->is_const(g)) fn(g);
  }
  template <class F>
  void for_each_fanout(GateId g, F&& fn) const {
    for (GateId fo : fanouts_[g]) fn(fo);
  }

 private:
  const Netlist* n_;
  FanoutTable fanouts_;
};

template <class Graph>
class ImplicationEngine {
 public:
  /// `graph` must outlive the engine.
  explicit ImplicationEngine(const Graph& graph);

  const Graph& graph() const { return *g_; }

  /// Asserts node g = value and runs implication to closure.
  /// Returns false on conflict (state remains valid; caller must undo).
  bool assign(GateId g, bool value);

  Tri value(GateId g) const { return vals_[g]; }
  const std::vector<Tri>& values() const { return vals_; }

  /// Free nodes are the decision variables: primary inputs and register
  /// outputs.
  bool is_free(GateId g) const {
    const GateType t = g_->type(g);
    return t == GateType::Input || t == GateType::Reg;
  }
  /// Combinational node: not an input, register, or constant.
  bool is_comb(GateId g) const {
    const GateType t = g_->type(g);
    return t != GateType::Input && t != GateType::Reg && t != GateType::Const0 &&
           t != GateType::Const1;
  }

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

  /// Heap bytes of the engine's own state: per-slot values and queue flags,
  /// the trail and the frontier checkpoints (the graph is not counted).
  size_t heap_bytes() const;

 private:
  bool set_value(GateId g, Tri v);  // trail + queue bookkeeping; false = conflict
  bool imply_gate(GateId g);        // local forward+backward rules
  bool propagate();
  void enqueue(GateId g);

  Tri forward_value(GateId g) const;

  const Graph* g_;
  std::vector<Tri> vals_;
  std::vector<GateId> trail_;
  std::deque<GateId> queue_;
  std::vector<uint8_t> in_queue_;

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

extern template class ImplicationEngine<NetlistGraph>;
extern template class ImplicationEngine<FrameView>;

}  // namespace rfn
