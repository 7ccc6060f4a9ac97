#pragma once
// Time-frame expansion (iterative logic array) for sequential ATPG, as a view
// of the design rather than a copy of it.
//
// k cycles of a sequential design M are read as a combinational graph whose
// nodes are pairs (frame f, gate g of M), 1 <= f <= k. Nothing of M is
// copied: fanins come from M's own fanin pool and are resolved on the fly.
// A view keeps a set of M's registers: all of them for M itself, an
// abstraction's included registers for an abstract model read in place.
// Resolution rules:
//   * a kept register's output at frame f > 1 is its data net at frame f-1:
//     an alias, not a node of its own (a chain of kept registers resolves
//     through as many frames as it spans);
//   * a kept register at frame 1 is its initial value: a constant node for a
//     binary init, a free input node for an X init;
//   * a register outside the set is a free input node at every frame, frame
//     1 included, as a pseudo-input of an extracted abstract model is
//     (subcircuit.hpp): it never aliases its data net, never reads as its
//     initial value, and never pulls its data net into the cone of the frame
//     before;
//   * every other cell of M at frame f (input, constant, gate) is a node.
// Only the backward cone of the signals needed at each frame belongs to the
// view: frame f's cone is the combinational fanin of needed[f-1] plus the
// data nets of the kept registers in frame f+1's cone. Membership is one
// bitset per frame; node(f, g) is kNullGate outside it. With every register
// kept, the cones, ids and fanout order are those of the unmasked view.
//
// The ids and resolution rules need no cone: FrameNodes holds them alone, so
// a question can be refuted against constants, initial values and aliases
// before any cone is built (seq_atpg.hpp). A FrameView adds the cones.
//
// Node ids are (f-1) * 2^s + g with 2^s >= |M|, so engines index their
// per-node state by id in slots() = k * 2^s entries. Fanouts come from M's
// TopoIndex (netlist/analysis.hpp), built once per design and shared by
// every view: its reader lists are in topo rank order, so a node's fanouts
// are its readers in its own frame's cone, then the readers of the registers
// it feeds in the next frame's cone, and so on, in (frame, rank) order. That
// is the id order of a flat copy laid out frame by frame in topo order, so
// an engine walking the view makes the same propagation, trail and decisions
// as one walking such a copy.
//
// Memory (paper-scale processor, error_flag cone at depth 28, 1.01M nodes):
// the view holds the cone bitsets and the kept set, well under 1 B per node;
// the shared TopoIndex adds 12 B per cell of M and 4 B per fanin, once per
// design. An implication engine over the view adds 2 B per slot (1.82 slots
// per node) for values and queue flags plus its trail, and justify's
// valuation 1 B per slot.

#include <algorithm>
#include <span>
#include <vector>

#include "netlist/analysis.hpp"

namespace rfn {

/// The node ids of k frames of `m` keeping the registers in `kept`, and the
/// rule that resolves a signal read at a frame to its node: no cones.
class FrameNodes {
 public:
  /// `m` must outlive every view built from these nodes.
  FrameNodes(const TopoIndex& m, size_t frames, std::span<const GateId> kept);

  /// Bound on node ids: frames * 2^s.
  size_t slots() const { return frames_ << shift_; }

  /// Signal g read at 0-based frame `frame0`, followed through kept-register
  /// aliases to its node (cones are not consulted).
  GateId resolve(size_t frame0, GateId g) const {
    while (frame0 > 0 && kept_[g]) {
      g = m_->reg_data(g);
      --frame0;
    }
    return id(frame0, g);
  }

  /// M's gate type, except that a register outside the set reads as Input
  /// and a kept (frame-1) register as its initial value: Const0, Const1, or
  /// Input when X-initialized.
  GateType type(GateId node) const {
    const GateId g = gate_of(node);
    const GateType t = m_->type(g);
    if (t != GateType::Reg) return t;
    if (!kept_[g]) return GateType::Input;
    switch (m_->reg_init(g)) {
      case Tri::F: return GateType::Const0;
      case Tri::T: return GateType::Const1;
      case Tri::X: break;
    }
    return GateType::Input;
  }

 protected:
  GateId gate_of(GateId node) const { return node & mask_; }
  GateId id(size_t frame0, GateId g) const {
    return static_cast<GateId>(frame0 << shift_) | g;
  }

  const TopoIndex* t_;
  const Netlist* m_;
  size_t frames_ = 0;
  unsigned shift_ = 0;
  GateId mask_ = 0;
  std::vector<bool> kept_;  // kept_[g]: g is a kept register
};

class FrameView : public FrameNodes {
 public:
  /// The view over the frames of `nodes`, restricted per frame to the cone
  /// of `needed[f-1]` (signals required at frame f) plus whatever the later
  /// frames need from it.
  FrameView(FrameNodes nodes, const std::vector<std::vector<GateId>>& needed);

  /// The node carrying signal g of M at 1-based `frame`, resolving register
  /// aliases; kNullGate when g is outside that frame's cone.
  GateId node(size_t frame, GateId g) const;

  /// Nodes of the view: cone members of every frame except aliased
  /// registers.
  size_t cone_nodes() const;
  /// Heap bytes held by the view (cone bitsets, register set, buffers); the
  /// shared TopoIndex is not counted.
  size_t heap_bytes() const;

  // --- graph interface of the ATPG engines (see NetlistGraph): slots() and
  // type() as FrameNodes, and:

  /// A node's fanins in M's fanin order, each resolved to its node.
  class Fanins {
   public:
    Fanins(const FrameView& v, size_t frame0, std::span<const GateId> gates)
        : v_(&v), frame0_(frame0), gates_(gates) {}
    size_t size() const { return gates_.size(); }
    GateId operator[](size_t i) const { return v_->resolve(frame0_, gates_[i]); }

   private:
    const FrameView* v_;
    size_t frame0_;
    std::span<const GateId> gates_;
  };
  Fanins fanins(GateId node) const {
    return Fanins(*this, node >> shift_, m_->fanins(gate_of(node)));
  }

  /// Calls fn(node) for every constant node, in (frame, rank) order.
  template <class F>
  void for_each_const(F&& fn) const {
    for (size_t f0 = 0; f0 < frames_; ++f0)
      for (GateId g : const_sources_)
        if ((f0 == 0 || !kept_[g]) && cone_[f0][g]) fn(id(f0, g));
  }

  /// Calls fn(reader) for every node that has `node` as a fanin, in
  /// (frame, rank) order; a reader that reads it twice may be visited
  /// twice. Not reentrant: fn must not walk this view's fanouts itself.
  template <class F>
  void for_each_fanout(GateId node, F&& fn) const {
    size_t f0 = node >> shift_;
    aliases_.clear();
    visit_readers(f0, gate_of(node), fn);
    // The registers fed so far carry the node into the next frame.
    while (!aliases_.empty()) {
      ++f0;
      next_aliases_.swap(aliases_);
      aliases_.clear();
      if (next_aliases_.size() == 1) {
        visit_readers(f0, next_aliases_[0], fn);
        continue;
      }
      merged_.clear();
      for (GateId r : next_aliases_)
        visit_readers(f0, r, [&](GateId reader) { merged_.push_back(reader); });
      std::sort(merged_.begin(), merged_.end(), [&](GateId a, GateId b) {
        return t_->rank[gate_of(a)] < t_->rank[gate_of(b)];
      });
      for (GateId reader : merged_) fn(reader);
    }
  }

 private:
  /// Readers of g at frame0: combinational ones in the cone go to fn, the
  /// kept registers in the next frame's cone to aliases_. A register outside
  /// the set reads nothing.
  template <class F>
  void visit_readers(size_t frame0, GateId g, F&& fn) const {
    const std::vector<bool>& cone = cone_[frame0];
    for (const GateId reader : t_->readers[g]) {
      if (m_->is_reg(reader)) {
        if (kept_[reader] && frame0 + 1 < frames_ && cone_[frame0 + 1][reader])
          aliases_.push_back(reader);
      } else if (cone[reader]) {
        fn(id(frame0, reader));
      }
    }
  }

  std::vector<std::vector<bool>> cone_;  // cone_[f-1][g]
  std::vector<GateId> const_sources_;    // Const cells, binary-init kept registers
  // Buffers for_each_fanout reuses across calls.
  mutable std::vector<GateId> aliases_, next_aliases_, merged_;
};

}  // namespace rfn
