#include "core/concretize.hpp"

#include "sim/sim3.hpp"
#include "util/trace.hpp"

namespace rfn {

std::vector<Cube> guidance_cubes(const Trace& abs_trace) {
  std::vector<Cube> cubes(abs_trace.steps.size());
  for (size_t c = 0; c < abs_trace.steps.size(); ++c) {
    for (const Literal& lit : abs_trace.steps[c].state) cube_add(cubes[c], lit);
    // Input literals of the abstract model are either real primary inputs
    // of M or outputs of cut registers; both are just signals of M here.
    for (const Literal& lit : abs_trace.steps[c].inputs) cube_add(cubes[c], lit);
  }
  return cubes;
}

ConcretizeResult concretize_trace(const Netlist& m, const Trace& abs_trace, GateId bad,
                                  const AtpgOptions& opt) {
  Span span("concretize");
  ConcretizeResult res;
  RFN_CHECK(!abs_trace.empty(), "concretize of empty trace");
  const size_t k = abs_trace.steps.size();

  // Fast path: replay the abstract trace's primary-input assignments on M
  // from its real initial state. If the property signal fires, the abstract
  // trace already is a concrete error trace (the paper's "contains only
  // assignments to the primary inputs of the original design" case, checked
  // semantically instead of syntactically).
  {
    Sim3 sim(m);
    sim.load_initial_state();
    Trace direct;
    direct.steps.resize(k);
    bool init_consistent = true;
    // Cycle-1 register assignments must agree with M's initial values.
    for (const Literal& lit : abs_trace.steps[0].state) {
      const Tri have = sim.value(lit.signal);
      if (have != Tri::X && have != tri_of(lit.value)) init_consistent = false;
    }
    for (const Literal& lit : abs_trace.steps[0].inputs) {
      if (!m.is_reg(lit.signal)) continue;
      const Tri have = sim.value(lit.signal);
      if (have != Tri::X && have != tri_of(lit.value)) init_consistent = false;
    }
    if (init_consistent) {
      for (size_t c = 0; c < k; ++c) {
        sim.clear_inputs();
        for (const Literal& lit : abs_trace.steps[c].inputs)
          if (m.is_input(lit.signal)) {
            sim.set(lit.signal, tri_of(lit.value));
            direct.steps[c].inputs.push_back(lit);
          }
        sim.eval();
        for (GateId r : m.regs())
          if (sim.value(r) != Tri::X)
            direct.steps[c].state.push_back({r, sim.value(r) == Tri::T});
        if (c + 1 < k) sim.step();
      }
      if (sim.value(bad) == Tri::T) {
        res.status = AtpgStatus::Sat;
        res.trace = direct;
        res.direct_replay = true;
        return res;
      }
    }
  }

  // Guided sequential ATPG at the abstract trace's depth.
  std::vector<Cube> cubes = guidance_cubes(abs_trace);
  if (!cube_add(cubes[k - 1], {bad, true})) {
    res.status = AtpgStatus::Unsat;
    return res;
  }
  SeqAtpgResult seq = solve_cycle_cubes(m, cubes, opt);
  res.status = seq.status;
  res.backtracks = seq.backtracks;
  if (seq.status == AtpgStatus::Sat) res.trace = std::move(seq.trace);
  return res;
}

}  // namespace rfn
