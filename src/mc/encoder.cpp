#include "mc/encoder.hpp"

#include "netlist/analysis.hpp"

namespace rfn {

Encoder::Encoder(BddMgr& mgr, const Netlist& n) : mgr_(&mgr), n_(&n) {
  for (GateId r : n.regs()) {
    state_var_.emplace(r, mgr.new_var());
    next_var_.emplace(r, mgr.new_var());
  }
  for (GateId i : n.inputs()) input_var_.emplace(i, mgr.new_var());
  index_vars();
}

Encoder::Encoder(BddMgr& mgr, const Subcircuit& sub, const Encoder& parent)
    : mgr_(&mgr), n_(&sub.net) {
  RFN_CHECK(&parent.mgr() == &mgr, "parent encoder uses a different manager");
  for (GateId r : sub.net.regs()) {
    const GateId old = sub.to_old(r);
    state_var_.emplace(r, parent.state_var(old));
    next_var_.emplace(r, parent.next_var(old));
  }
  for (GateId i : sub.net.inputs()) {
    const GateId old = sub.to_old(i);
    // The original signal may be a real primary input of the parent (share
    // its variable) or an internal signal / cut register (fresh variable).
    const auto it = parent.input_var_.find(old);
    if (it != parent.input_var_.end()) {
      input_var_.emplace(i, it->second);
    } else if (parent.state_var_.count(old) > 0) {
      // A register of the parent that became a pseudo-input here: share the
      // parent's *state* variable so cubes line up across models.
      input_var_.emplace(i, parent.state_var(old));
    } else {
      input_var_.emplace(i, mgr.new_var());
    }
  }
  index_vars();
}

void Encoder::index_vars() {
  var_kind_.assign(mgr_->num_vars(), VarKind::None);
  var_gate_.assign(mgr_->num_vars(), kNullGate);
  for (GateId r : n_->regs()) {
    const BddVar s = state_var_.at(r), x = next_var_.at(r);
    var_kind_[s] = VarKind::State;
    var_gate_[s] = r;
    var_kind_[x] = VarKind::Next;
    var_gate_[x] = r;
    state_vars_flat_.push_back(s);
    next_vars_flat_.push_back(x);
  }
  for (GateId i : n_->inputs()) {
    const BddVar v = input_var_.at(i);
    // A shared parent-state variable keeps its State kind in the parent; in
    // this encoder it acts as an input.
    var_kind_[v] = VarKind::Input;
    var_gate_[v] = i;
    input_vars_flat_.push_back(v);
  }
  signal_memo_.assign(n_->size(), Bdd());
  signal_ready_.assign(n_->size(), 0);
}

BddVar Encoder::state_var(GateId reg) const {
  const auto it = state_var_.find(reg);
  RFN_CHECK(it != state_var_.end(), "no state var for gate %u", reg);
  return it->second;
}

BddVar Encoder::next_var(GateId reg) const {
  const auto it = next_var_.find(reg);
  RFN_CHECK(it != next_var_.end(), "no next var for gate %u", reg);
  return it->second;
}

BddVar Encoder::input_var(GateId input) const {
  const auto it = input_var_.find(input);
  RFN_CHECK(it != input_var_.end(), "no input var for gate %u", input);
  return it->second;
}

GateId Encoder::reg_of_var(BddVar v) const {
  if (v >= var_kind_.size()) return kNullGate;
  return (var_kind_[v] == VarKind::State || var_kind_[v] == VarKind::Next)
             ? var_gate_[v]
             : kNullGate;
}

GateId Encoder::input_of_var(BddVar v) const {
  if (v >= var_kind_.size()) return kNullGate;
  return var_kind_[v] == VarKind::Input ? var_gate_[v] : kNullGate;
}

bool Encoder::is_state_var(BddVar v) const {
  return v < var_kind_.size() && var_kind_[v] == VarKind::State;
}
bool Encoder::is_next_var(BddVar v) const {
  return v < var_kind_.size() && var_kind_[v] == VarKind::Next;
}
bool Encoder::is_input_var(BddVar v) const {
  return v < var_kind_.size() && var_kind_[v] == VarKind::Input;
}

Bdd Encoder::signal_fn(GateId g) {
  if (signal_ready_[g]) return signal_memo_[g];
  // Iterative bottom-up evaluation over the needed cone (avoids deep
  // recursion on long gate chains).
  std::vector<GateId> stack{g};
  while (!stack.empty()) {
    const GateId cur = stack.back();
    if (signal_ready_[cur]) {
      stack.pop_back();
      continue;
    }
    bool deps_ready = true;
    if (n_->is_comb(cur)) {
      for (GateId f : n_->fanins(cur)) {
        if (!signal_ready_[f]) {
          if (deps_ready) deps_ready = false;
          stack.push_back(f);
        }
      }
    }
    if (!deps_ready) continue;
    stack.pop_back();
    Bdd r;
    switch (n_->type(cur)) {
      case GateType::Input: r = mgr_->var(input_var(cur)); break;
      case GateType::Reg: r = mgr_->var(state_var(cur)); break;
      case GateType::Const0: r = mgr_->bdd_false(); break;
      case GateType::Const1: r = mgr_->bdd_true(); break;
      case GateType::Buf: r = signal_memo_[n_->fanins(cur)[0]]; break;
      case GateType::Not: r = !signal_memo_[n_->fanins(cur)[0]]; break;
      case GateType::And:
      case GateType::Nand: {
        r = mgr_->bdd_true();
        for (GateId f : n_->fanins(cur)) r &= signal_memo_[f];
        if (n_->type(cur) == GateType::Nand) r = !r;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        r = mgr_->bdd_false();
        for (GateId f : n_->fanins(cur)) r |= signal_memo_[f];
        if (n_->type(cur) == GateType::Nor) r = !r;
        break;
      }
      case GateType::Xor:
        r = signal_memo_[n_->fanins(cur)[0]] ^ signal_memo_[n_->fanins(cur)[1]];
        break;
      case GateType::Xnor:
        r = !(signal_memo_[n_->fanins(cur)[0]] ^ signal_memo_[n_->fanins(cur)[1]]);
        break;
      case GateType::Mux:
        r = mgr_->ite(signal_memo_[n_->fanins(cur)[0]],
                      signal_memo_[n_->fanins(cur)[2]],
                      signal_memo_[n_->fanins(cur)[1]]);
        break;
    }
    if (r.is_null()) return Bdd();  // the manager abandoned an operation
    signal_memo_[cur] = std::move(r);
    signal_ready_[cur] = 1;
  }
  return signal_memo_[g];
}

Bdd Encoder::initial_states() {
  std::vector<BddLit> lits;
  for (GateId r : n_->regs()) {
    const Tri init = n_->reg_init(r);
    if (init != Tri::X) lits.push_back({state_var(r), init == Tri::T});
  }
  return mgr_->cube(lits);
}

Bdd Encoder::cube_bdd(const Cube& c) {
  std::vector<BddLit> lits;
  lits.reserve(c.size());
  for (const Literal& lit : c) {
    if (n_->is_reg(lit.signal))
      lits.push_back({state_var(lit.signal), lit.value});
    else if (n_->is_input(lit.signal))
      lits.push_back({input_var(lit.signal), lit.value});
    else
      fatal("cube_bdd literal on internal signal; use constraint_bdd");
  }
  return mgr_->cube(lits);
}

Bdd Encoder::constraint_bdd(const Cube& c) {
  Bdd acc = mgr_->bdd_true();
  for (const Literal& lit : c) {
    const Bdd fn = signal_fn(lit.signal);
    acc &= lit.value ? fn : !fn;
  }
  return acc;
}

Cube Encoder::lits_to_cube(const std::vector<BddLit>& lits) const {
  Cube c;
  c.reserve(lits.size());
  for (const BddLit& l : lits) {
    GateId g = kNullGate;
    if (is_state_var(l.var))
      g = var_gate_[l.var];
    else if (is_input_var(l.var))
      g = var_gate_[l.var];
    RFN_CHECK(g != kNullGate, "literal on unknown/next var %u", l.var);
    c.push_back({g, l.positive});
  }
  return c;
}

void Encoder::split_lits(const std::vector<BddLit>& lits, Cube& state, Cube& inputs,
                         std::vector<BddLit>& other) const {
  for (const BddLit& l : lits) {
    if (is_state_var(l.var))
      state.push_back({var_gate_[l.var], l.positive});
    else if (is_input_var(l.var))
      inputs.push_back({var_gate_[l.var], l.positive});
    else
      other.push_back(l);
  }
}

}  // namespace rfn
