#include "sim/sim3.hpp"

namespace rfn {

Sim3::Sim3(const TopoIndex& t) : n_(&t.net), comb_(t.comb_order()), vals_(n_->size(), Tri::X) {
  for (GateId g = 0; g < n_->size(); ++g)
    if (n_->is_const(g)) vals_[g] = tri_of(n_->type(g) == GateType::Const1);
}

void Sim3::set(GateId g, Tri v) {
  RFN_CHECK(n_->is_input(g) || n_->is_reg(g), "Sim3::set on gate %u (%s)", g,
            gate_type_name(n_->type(g)));
  vals_[g] = v;
}

void Sim3::set_cube(const Cube& c) {
  for (const Literal& lit : c) set(lit.signal, tri_of(lit.value));
}

void Sim3::clear_inputs() {
  for (GateId i : n_->inputs()) vals_[i] = Tri::X;
}

void Sim3::load_initial_state() {
  for (GateId r : n_->regs()) vals_[r] = n_->reg_init(r);
}

void Sim3::eval(std::span<const GateId> gates) {
  Tri buf[8];
  std::vector<Tri> wide;
  stopped_ = false;
  size_t batch = 0;
  for (GateId g : gates) {
    // Step-boundary poll every 1024 gates; cheap enough to leave in the
    // non-cancellable path (cancel_ is almost always null).
    if ((batch++ & 0x3FF) == 0 && should_stop(cancel_)) {
      stopped_ = true;
      return;
    }
    const auto& fi = n_->fanins(g);
    const Tri* vals;
    if (fi.size() <= 8) {
      for (size_t i = 0; i < fi.size(); ++i) buf[i] = vals_[fi[i]];
      vals = buf;
    } else {
      wide.clear();
      for (GateId f : fi) wide.push_back(vals_[f]);
      vals = wide.data();
    }
    vals_[g] = eval_gate3(n_->type(g), vals, fi.size());
  }
}

Cube Sim3::state_cube() const {
  Cube c;
  for (GateId r : n_->regs())
    if (vals_[r] != Tri::X) c.push_back({r, vals_[r] == Tri::T});
  return c;
}

void Sim3::step() {
  // Two-phase: read all data inputs first so register-to-register feed
  // chains latch the pre-edge values.
  std::vector<Tri> next;
  next.reserve(n_->regs().size());
  for (GateId r : n_->regs()) next.push_back(vals_[n_->reg_data(r)]);
  size_t i = 0;
  for (GateId r : n_->regs()) vals_[r] = next[i++];
}

Tri simulate_trace(const Netlist& n, const Trace& trace, GateId signal,
                   const CancelToken* cancel) {
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.set_should_stop(cancel);
  sim.load_initial_state();
  for (size_t cycle = 0; cycle < trace.steps.size(); ++cycle) {
    sim.clear_inputs();
    sim.set_cube(trace.steps[cycle].state);
    sim.set_cube(trace.steps[cycle].inputs);
    sim.eval();
    if (sim.stopped()) return Tri::X;
    if (cycle + 1 < trace.steps.size()) sim.step();
  }
  return sim.value(signal);
}

}  // namespace rfn
