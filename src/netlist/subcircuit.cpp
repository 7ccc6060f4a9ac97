#include "netlist/subcircuit.hpp"

#include <algorithm>

#include "netlist/analysis.hpp"

namespace rfn {

Cube Subcircuit::cube_to_old(const Cube& c) const {
  Cube out;
  out.reserve(c.size());
  for (const Literal& lit : c) out.push_back({to_old(lit.signal), lit.value});
  return out;
}

Cube Subcircuit::cube_to_new(const Cube& c) const {
  Cube out;
  for (const Literal& lit : c) {
    const GateId nw = to_new(lit.signal);
    if (nw != kNullGate) out.push_back({nw, lit.value});
  }
  return out;
}

Trace Subcircuit::trace_to_old(const Trace& t) const {
  Trace out;
  out.steps.reserve(t.steps.size());
  for (const TraceStep& step : t.steps)
    out.steps.push_back({cube_to_old(step.state), cube_to_old(step.inputs)});
  return out;
}

Subcircuit extract_abstract_model(const TopoIndex& topo,
                                  const std::vector<GateId>& property_roots,
                                  const std::vector<GateId>& included_regs) {
  const Netlist& m = topo.net;
  std::vector<bool> included(m.size(), false);
  for (GateId r : included_regs) {
    RFN_CHECK(m.is_reg(r), "included gate %u is not a register", r);
    included[r] = true;
  }

  // Roots of the combinational cone: the property signals plus the data
  // inputs of every included register.
  std::vector<GateId> roots = property_roots;
  for (GateId r : included_regs) roots.push_back(m.reg_data(r));
  std::vector<bool> cone = comb_fanin_cone(m, roots);
  // Included registers belong to N even if nothing in the cone reads them.
  for (GateId r : included_regs) cone[r] = true;

  Subcircuit sub;
  auto map_new = [&](GateId old, GateId nw) {
    sub.new_of_old_.emplace(old, nw);
    RFN_CHECK(sub.old_of_new.size() == nw, "non-contiguous new ids");
    sub.old_of_new.push_back(old);
    if (m.has_name(old)) sub.net.set_name(nw, m.name(old));
  };

  // Pass 1: create all sources (inputs, constants, registers) so that
  // combinational gates can reference them, and register data inputs can be
  // patched after pass 2.
  for (GateId g = 0; g < m.size(); ++g) {
    if (!cone[g]) continue;
    if (m.is_input(g)) {
      map_new(g, sub.net.add(GateType::Input));
    } else if (m.is_const(g)) {
      map_new(g, sub.net.add(m.type(g)));
    } else if (m.is_reg(g)) {
      if (included[g]) {
        const GateId nw = sub.net.add(GateType::Reg, {}, m.reg_init(g));
        map_new(g, nw);
        sub.kept_regs_old.push_back(g);
      } else {
        // Cut register: becomes a pseudo primary input of N.
        const GateId nw = sub.net.add(GateType::Input);
        map_new(g, nw);
        sub.pseudo_inputs.push_back(nw);
      }
    }
  }

  // Pass 2: combinational gates in topological order.
  std::vector<GateId> fanins;  // one gate's new fanins, reused
  for (GateId g : topo.comb_order()) {
    if (!cone[g]) continue;
    fanins.clear();
    for (GateId f : m.fanins(g)) {
      const GateId nf = sub.to_new(f);
      RFN_CHECK(nf != kNullGate, "cone gate %u has unmapped fanin %u", g, f);
      fanins.push_back(nf);
    }
    map_new(g, sub.net.add(m.type(g), fanins));
  }

  // Pass 3: patch register data inputs.
  for (GateId r : sub.kept_regs_old) {
    const GateId data_old = m.reg_data(r);
    const GateId data_new = sub.to_new(data_old);
    RFN_CHECK(data_new != kNullGate, "register %u data cone missing", r);
    sub.net.set_reg_data(sub.to_new(r), data_new);
  }

  // Carry over design outputs that survived.
  for (const auto& [name, g] : m.outputs()) {
    const GateId nw = sub.to_new(g);
    if (nw != kNullGate) sub.net.add_output(name, nw);
  }

  sub.net.check();
  return sub;
}

Subcircuit coi_reduce(const Netlist& m, const std::vector<GateId>& property_roots) {
  return extract_abstract_model(TopoIndex(m), property_roots, coi_registers(m, property_roots));
}

Subcircuit extract_with_cut(const Netlist& m, const std::vector<GateId>& roots,
                            const std::vector<GateId>& cut_signals) {
  std::vector<bool> is_cut(m.size(), false);
  for (GateId c : cut_signals) is_cut[c] = true;

  // Backward closure from the roots: through combinational gates, stopping
  // at cut signals, primary inputs, constants; registers are kept and their
  // data nets become roots in turn.
  std::vector<bool> in_model(m.size(), false);
  std::vector<GateId> stack;
  auto visit = [&](GateId g) {
    if (!in_model[g]) {
      in_model[g] = true;
      stack.push_back(g);
    }
  };
  for (GateId r : roots) visit(r);
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (is_cut[g] || m.is_input(g) || m.is_const(g)) continue;
    if (m.is_reg(g)) {
      visit(m.reg_data(g));
      continue;
    }
    for (GateId f : m.fanins(g)) visit(f);
  }

  Subcircuit sub;
  auto map_new = [&](GateId old, GateId nw) {
    sub.new_of_old_.emplace(old, nw);
    RFN_CHECK(sub.old_of_new.size() == nw, "non-contiguous new ids");
    sub.old_of_new.push_back(old);
    if (m.has_name(old)) sub.net.set_name(nw, m.name(old));
  };

  // Sources first (cut signals and primary inputs become inputs; registers
  // and constants keep their type), then combinational gates in topo order.
  for (GateId g = 0; g < m.size(); ++g) {
    if (!in_model[g]) continue;
    if (is_cut[g] || m.is_input(g)) {
      const GateId nw = sub.net.add(GateType::Input);
      map_new(g, nw);
      sub.pseudo_inputs.push_back(nw);
    } else if (m.is_const(g)) {
      map_new(g, sub.net.add(m.type(g)));
    } else if (m.is_reg(g)) {
      map_new(g, sub.net.add(GateType::Reg, {}, m.reg_init(g)));
      sub.kept_regs_old.push_back(g);
    }
  }
  std::vector<GateId> fanins;  // one gate's new fanins, reused
  for (GateId g : topo_order(m)) {
    if (!in_model[g] || !m.is_comb(g) || is_cut[g]) continue;
    fanins.clear();
    for (GateId f : m.fanins(g)) {
      const GateId nf = sub.to_new(f);
      RFN_CHECK(nf != kNullGate, "cut-extraction gate %u missing fanin %u", g, f);
      fanins.push_back(nf);
    }
    map_new(g, sub.net.add(m.type(g), fanins));
  }
  for (GateId r : sub.kept_regs_old) {
    const GateId data_new = sub.to_new(m.reg_data(r));
    RFN_CHECK(data_new != kNullGate, "register %u data cone missing", r);
    sub.net.set_reg_data(sub.to_new(r), data_new);
  }
  sub.net.check();
  return sub;
}

}  // namespace rfn
