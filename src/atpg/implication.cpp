#include "atpg/implication.hpp"

namespace rfn {

template <class Graph>
ImplicationEngine<Graph>::ImplicationEngine(const Graph& graph)
    : g_(&graph), vals_(graph.slots(), Tri::X), in_queue_(graph.slots(), 0) {
  graph.for_each_const([&](GateId c) {
    vals_[c] = graph.type(c) == GateType::Const1 ? Tri::T : Tri::F;
  });
  // Propagate the constant cones up front: gates fed (transitively) by
  // constants must carry their implied values before any search starts,
  // otherwise backtrace could chase an X path into a constant.
  graph.for_each_const([&](GateId c) { graph.for_each_fanout(c, [&](GateId fo) { enqueue(fo); }); });
  const bool ok = propagate();
  RFN_CHECK(ok, "constant propagation conflict");
}

template <class Graph>
void ImplicationEngine<Graph>::enqueue(GateId g) {
  if (is_comb(g) && !in_queue_[g]) {
    in_queue_[g] = 1;
    queue_.push_back(g);
  }
}

template <class Graph>
Tri ImplicationEngine<Graph>::forward_value(GateId g) const {
  const auto fi = g_->fanins(g);
  Tri buf[8];
  std::vector<Tri> wide;
  const Tri* vals;
  if (fi.size() <= 8) {
    for (size_t i = 0; i < fi.size(); ++i) buf[i] = vals_[fi[i]];
    vals = buf;
  } else {
    wide.reserve(fi.size());
    for (size_t i = 0; i < fi.size(); ++i) wide.push_back(vals_[fi[i]]);
    vals = wide.data();
  }
  return eval_gate3(g_->type(g), vals, fi.size());
}

template <class Graph>
bool ImplicationEngine<Graph>::set_value(GateId g, Tri v) {
  RFN_CHECK(v != Tri::X, "set_value with X");
  if (vals_[g] != Tri::X) return vals_[g] == v;
  vals_[g] = v;
  trail_.push_back(g);
  // Re-examine the driving gate (backward rules may now fire) and all
  // fanout gates (forward rules).
  enqueue(g);
  g_->for_each_fanout(g, [&](GateId fo) { enqueue(fo); });
  return true;
}

template <class Graph>
bool ImplicationEngine<Graph>::imply_gate(GateId g) {
  const GateType t = g_->type(g);
  const auto fi = g_->fanins(g);
  const Tri out = vals_[g];

  // Forward: fanins determine the output.
  const Tri fwd = forward_value(g);
  if (fwd != Tri::X) {
    if (!set_value(g, fwd)) return false;
  }

  // Backward: output value constrains fanins.
  if (out == Tri::X) return true;
  const bool v = out == Tri::T;
  auto need = [&](GateId f, bool val) { return set_value(f, tri_of(val)); };

  switch (t) {
    case GateType::Buf:
      return need(fi[0], v);
    case GateType::Not:
      return need(fi[0], !v);
    case GateType::And:
    case GateType::Nand: {
      const bool conj = t == GateType::And ? v : !v;
      if (conj) {
        // Output of the conjunction is 1: every fanin must be 1.
        for (size_t i = 0; i < fi.size(); ++i)
          if (!need(fi[i], true)) return false;
      } else {
        // Conjunction is 0: if exactly one fanin is X and the rest are 1,
        // the X fanin must be 0.
        GateId unknown = kNullGate;
        for (size_t i = 0; i < fi.size(); ++i) {
          const GateId f = fi[i];
          if (vals_[f] == Tri::F) return true;  // already justified
          if (vals_[f] == Tri::X) {
            if (unknown != kNullGate) return true;  // two unknowns: no implication
            unknown = f;
          }
        }
        if (unknown == kNullGate) return false;  // all 1 but output 0: conflict
        return need(unknown, false);
      }
      return true;
    }
    case GateType::Or:
    case GateType::Nor: {
      const bool disj = t == GateType::Or ? v : !v;
      if (!disj) {
        for (size_t i = 0; i < fi.size(); ++i)
          if (!need(fi[i], false)) return false;
      } else {
        GateId unknown = kNullGate;
        for (size_t i = 0; i < fi.size(); ++i) {
          const GateId f = fi[i];
          if (vals_[f] == Tri::T) return true;
          if (vals_[f] == Tri::X) {
            if (unknown != kNullGate) return true;
            unknown = f;
          }
        }
        if (unknown == kNullGate) return false;
        return need(unknown, true);
      }
      return true;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      const bool parity = t == GateType::Xor ? v : !v;  // fanin0 ^ fanin1 == parity
      const GateId f0 = fi[0], f1 = fi[1];
      const Tri a = vals_[f0], b = vals_[f1];
      if (a != Tri::X && b == Tri::X) return need(f1, (a == Tri::T) != parity);
      if (b != Tri::X && a == Tri::X) return need(f0, (b == Tri::T) != parity);
      return true;
    }
    case GateType::Mux: {
      const GateId s = fi[0], f0 = fi[1], f1 = fi[2];
      const Tri sel = vals_[s], d0 = vals_[f0], d1 = vals_[f1];
      if (sel == Tri::F) return need(f0, v);
      if (sel == Tri::T) return need(f1, v);
      // sel unknown: a data input that already disagrees with the output
      // forces the select to the other branch.
      if (d0 != Tri::X && (d0 == Tri::T) != v) {
        if (!need(s, true)) return false;
        return need(f1, v);
      }
      if (d1 != Tri::X && (d1 == Tri::T) != v) {
        if (!need(s, false)) return false;
        return need(f0, v);
      }
      return true;
    }
    case GateType::Input:
    case GateType::Reg:
    case GateType::Const0:
    case GateType::Const1:
      return true;
  }
  return true;
}

template <class Graph>
bool ImplicationEngine<Graph>::propagate() {
  while (!queue_.empty()) {
    const GateId g = queue_.front();
    queue_.pop_front();
    in_queue_[g] = 0;
    if (!imply_gate(g)) {
      // Flush the queue: the caller will undo the trail.
      while (!queue_.empty()) {
        in_queue_[queue_.front()] = 0;
        queue_.pop_front();
      }
      return false;
    }
  }
  return true;
}

template <class Graph>
bool ImplicationEngine<Graph>::assign(GateId g, bool value) {
  if (!set_value(g, tri_of(value))) return false;
  return propagate();
}

template <class Graph>
void ImplicationEngine<Graph>::undo_to(size_t mark) {
  RFN_CHECK(mark <= trail_.size(), "undo_to beyond trail");
  while (trail_.size() > mark) {
    vals_[trail_.back()] = Tri::X;
    trail_.pop_back();
  }
  while (!checkpoints_.empty() && checkpoints_.back().trail_size > mark)
    checkpoints_.pop_back();
}

template <class Graph>
bool ImplicationEngine<Graph>::justified(GateId g) const {
  if (!is_comb(g)) return true;
  if (vals_[g] == Tri::X) return true;
  return forward_value(g) == vals_[g];
}

template <class Graph>
GateId ImplicationEngine<Graph>::find_unjustified() const {
  size_t i = checkpoints_.empty() ? 0 : checkpoints_.back().justified;
  for (; i < trail_.size(); ++i) {
    ++frontier_checks_;
    if (!justified(trail_[i])) break;
  }
  if (!checkpoints_.empty() && checkpoints_.back().trail_size == trail_.size())
    checkpoints_.back().justified = i;
  else
    checkpoints_.push_back({trail_.size(), i});
  return i < trail_.size() ? trail_[i] : kNullGate;
}

template <class Graph>
size_t ImplicationEngine<Graph>::heap_bytes() const {
  return vals_.capacity() * sizeof(Tri) + in_queue_.capacity() +
         trail_.capacity() * sizeof(GateId) + checkpoints_.capacity() * sizeof(Checkpoint);
}

template class ImplicationEngine<NetlistGraph>;
template class ImplicationEngine<FrameView>;

}  // namespace rfn
