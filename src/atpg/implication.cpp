#include "atpg/implication.hpp"

namespace rfn {

ImplicationEngine::ImplicationEngine(const Netlist& n)
    : n_(&n),
      vals_(n.size(), Tri::X),
      in_queue_(n.size(), 0),
      fanouts_(fanout_lists(n)) {
  bool have_consts = false;
  for (GateId g = 0; g < n.size(); ++g) {
    if (n.type(g) == GateType::Const0) vals_[g] = Tri::F;
    if (n.type(g) == GateType::Const1) vals_[g] = Tri::T;
    have_consts |= n.is_const(g);
  }
  if (have_consts) {
    // Propagate the constant cones up front: gates fed (transitively) by
    // constants must carry their implied values before any search starts,
    // otherwise backtrace could chase an X path into a constant.
    for (GateId g = 0; g < n.size(); ++g) {
      if (!n.is_const(g)) continue;
      for (GateId fo : fanouts_[g]) {
        if (n.is_comb(fo) && !in_queue_[fo]) {
          in_queue_[fo] = 1;
          queue_.push_back(fo);
        }
      }
    }
    const bool ok = propagate();
    RFN_CHECK(ok, "constant propagation conflict");
  }
}

Tri ImplicationEngine::forward_value(GateId g) const {
  const auto& fi = n_->fanins(g);
  Tri buf[8];
  std::vector<Tri> wide;
  const Tri* vals;
  if (fi.size() <= 8) {
    for (size_t i = 0; i < fi.size(); ++i) buf[i] = vals_[fi[i]];
    vals = buf;
  } else {
    wide.reserve(fi.size());
    for (GateId f : fi) wide.push_back(vals_[f]);
    vals = wide.data();
  }
  return eval_gate3(n_->type(g), vals, fi.size());
}

bool ImplicationEngine::set_value(GateId g, Tri v) {
  RFN_CHECK(v != Tri::X, "set_value with X");
  if (vals_[g] != Tri::X) return vals_[g] == v;
  vals_[g] = v;
  trail_.push_back(g);
  // Re-examine the driving gate (backward rules may now fire) and all
  // fanout gates (forward rules).
  if (n_->is_comb(g) && !in_queue_[g]) {
    in_queue_[g] = 1;
    queue_.push_back(g);
  }
  for (GateId fo : fanouts_[g]) {
    if (n_->is_comb(fo) && !in_queue_[fo]) {
      in_queue_[fo] = 1;
      queue_.push_back(fo);
    }
  }
  return true;
}

bool ImplicationEngine::imply_gate(GateId g) {
  const GateType t = n_->type(g);
  const auto& fi = n_->fanins(g);
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
        for (GateId f : fi)
          if (!need(f, true)) return false;
      } else {
        // Conjunction is 0: if exactly one fanin is X and the rest are 1,
        // the X fanin must be 0.
        GateId unknown = kNullGate;
        for (GateId f : fi) {
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
        for (GateId f : fi)
          if (!need(f, false)) return false;
      } else {
        GateId unknown = kNullGate;
        for (GateId f : fi) {
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
      const Tri a = vals_[fi[0]], b = vals_[fi[1]];
      if (a != Tri::X && b == Tri::X) return need(fi[1], (a == Tri::T) != parity);
      if (b != Tri::X && a == Tri::X) return need(fi[0], (b == Tri::T) != parity);
      return true;
    }
    case GateType::Mux: {
      const Tri sel = vals_[fi[0]], d0 = vals_[fi[1]], d1 = vals_[fi[2]];
      if (sel == Tri::F) return need(fi[1], v);
      if (sel == Tri::T) return need(fi[2], v);
      // sel unknown: a data input that already disagrees with the output
      // forces the select to the other branch.
      if (d0 != Tri::X && (d0 == Tri::T) != v) {
        if (!need(fi[0], true)) return false;
        return need(fi[2], v);
      }
      if (d1 != Tri::X && (d1 == Tri::T) != v) {
        if (!need(fi[0], false)) return false;
        return need(fi[1], v);
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

bool ImplicationEngine::propagate() {
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

bool ImplicationEngine::assign(GateId g, bool value) {
  if (!set_value(g, tri_of(value))) return false;
  return propagate();
}

void ImplicationEngine::undo_to(size_t mark) {
  RFN_CHECK(mark <= trail_.size(), "undo_to beyond trail");
  while (trail_.size() > mark) {
    vals_[trail_.back()] = Tri::X;
    trail_.pop_back();
  }
  while (!checkpoints_.empty() && checkpoints_.back().trail_size > mark)
    checkpoints_.pop_back();
}

bool ImplicationEngine::justified(GateId g) const {
  if (!n_->is_comb(g)) return true;
  if (vals_[g] == Tri::X) return true;
  return forward_value(g) == vals_[g];
}

GateId ImplicationEngine::find_unjustified() const {
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

}  // namespace rfn
