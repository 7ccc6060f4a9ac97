#include "core/refine.hpp"

#include <algorithm>
#include <map>

#include "core/concretize.hpp"
#include "sim/sim3.hpp"
#include "util/trace.hpp"

namespace rfn {

namespace {

/// Cap on frequency-fallback candidates when phase 1 finds no conflicts.
constexpr size_t kMaxFallbackCandidates = 8;

}  // namespace

std::vector<GateId> crucial_candidates_by_simulation(const TopoIndex& topo,
                                                     const Trace& abs_trace,
                                                     const std::vector<GateId>& current_regs,
                                                     RefineStats* stats) {
  const Netlist& m = topo.net;
  const size_t k = abs_trace.steps.size();
  std::vector<bool> in_model(m.size(), false);
  for (GateId r : current_regs) in_model[r] = true;

  // The trace pins registers in the state cube (kept ones) and the input
  // cube (cut ones); the state cube wins. pins[c] lists cycle c's in
  // m.regs() order; cycle 0's are loaded below, never compared.
  std::vector<Cube> pins(k);
  for (size_t c = 1; c < k; ++c) {
    for (const Cube* cube : {&abs_trace.steps[c].state, &abs_trace.steps[c].inputs})
      for (const Literal& lit : *cube)
        if (m.is_reg(lit.signal)) cube_add(pins[c], lit);
    std::sort(pins[c].begin(), pins[c].end(),
              [](const Literal& a, const Literal& b) { return a.signal < b.signal; });
  }

  // The replay reads a simulated register only where the trace pins it
  // outside the model at a cycle c > 0, and it reads its data net at cycle
  // c-1. So cycle c-1 evaluates only the cone of those data nets and of the
  // data nets of the unpinned registers that carry values into cycle c's.
  std::vector<std::vector<GateId>> cones(k);  // cycle c's gates, topo order
  std::vector<bool> cone(m.size(), false), pinned;  // cone: cycle c's
  std::vector<GateId> roots;
  for (size_t c = k; c-- > 1;) {
    pinned.assign(m.size(), false);
    roots.clear();
    for (const Literal& lit : pins[c]) {
      pinned[lit.signal] = true;
      if (!in_model[lit.signal]) roots.push_back(m.reg_data(lit.signal));
    }
    for (GateId r : m.regs())
      if (cone[r] && !pinned[r]) roots.push_back(m.reg_data(r));
    cone = comb_fanin_cone(m, roots);
    for (GateId g : topo.comb_order())
      if (cone[g]) cones[c - 1].push_back(g);
  }

  std::vector<GateId> candidates;
  std::vector<bool> is_candidate(m.size(), false);

  Sim3 sim(topo);
  // Paper: initialize with the beginning state of the abstract model;
  // everything unassigned is X (not M's reset values — the replay follows
  // the abstract trace, which may start anywhere the abstract init allows).
  for (const Literal& lit : abs_trace.steps[0].state) sim.set(lit.signal, tri_of(lit.value));
  for (const Literal& lit : abs_trace.steps[0].inputs)
    if (m.is_reg(lit.signal)) sim.set(lit.signal, tri_of(lit.value));

  for (size_t c = 0; c < k; ++c) {
    // Compare the simulated register values against the trace's pins for
    // this cycle; binary disagreement on an out-of-model register flags it,
    // then the trace value wins.
    for (const Literal& lit : pins[c]) {
      const Tri have = sim.value(lit.signal);
      if (have != Tri::X && have != tri_of(lit.value) && !in_model[lit.signal] &&
          !is_candidate[lit.signal]) {
        is_candidate[lit.signal] = true;
        candidates.push_back(lit.signal);
      }
      sim.set(lit.signal, tri_of(lit.value));
    }
    sim.clear_inputs();
    for (const Literal& lit : abs_trace.steps[c].inputs)
      if (m.is_input(lit.signal)) sim.set(lit.signal, tri_of(lit.value));
    sim.eval(cones[c]);
    if (c + 1 < k) sim.step();
  }

  if (!candidates.empty()) {
    if (stats) stats->conflict_candidates = candidates.size();
    return candidates;
  }
  // Fallback: registers appearing most frequently in the trace.
  std::map<GateId, size_t> freq;
  for (const TraceStep& step : abs_trace.steps) {
    for (const Literal& lit : step.state)
      if (!in_model[lit.signal] && m.is_reg(lit.signal)) ++freq[lit.signal];
    for (const Literal& lit : step.inputs)
      if (m.is_reg(lit.signal) && !in_model[lit.signal]) ++freq[lit.signal];
  }
  std::vector<std::pair<size_t, GateId>> ranked;
  for (const auto& [r, f] : freq) ranked.emplace_back(f, r);
  std::sort(ranked.rbegin(), ranked.rend());
  for (const auto& [f, r] : ranked) {
    candidates.push_back(r);
    if (candidates.size() >= kMaxFallbackCandidates) break;
  }
  if (stats) stats->fallback_candidates = candidates.size();
  return candidates;
}

std::vector<GateId> identify_crucial_registers(const TopoIndex& m, GateId bad,
                                               const std::vector<GateId>& current_regs,
                                               const Trace& abs_trace,
                                               const AtpgOptions& atpg_opt,
                                               RefineStats* stats) {
  Span span("refine");
  RefineStats local;
  RefineStats& st = stats ? *stats : local;

  std::vector<GateId> candidates =
      crucial_candidates_by_simulation(m, abs_trace, current_regs, &st);

  if (candidates.empty()) {
    st.final_count = 0;
    return candidates;
  }

  // Phase 2a: add candidates one by one until the trace dies.
  std::vector<GateId> added;
  std::vector<GateId> model = current_regs;
  bool invalidated = false;
  for (GateId r : candidates) {
    added.push_back(r);
    model.push_back(r);
    ++st.atpg_calls;
    const AtpgStatus s = solve_abstract_trace(m, model, abs_trace, bad, atpg_opt).status;
    if (s == AtpgStatus::Unsat) {
      invalidated = true;
      break;
    }
    // Sat or Abort: keep adding. (Abort counts as "maybe satisfiable"; the
    // paper falls back to including all candidates in that situation.)
  }
  st.added_until_unsat = added.size();
  st.trace_invalidated = invalidated;
  if (!invalidated) {
    st.final_count = added.size();
    return added;  // all candidates (paper's resource-limit fallback)
  }

  // Phase 2b: try to remove previously added registers (not the last one).
  for (size_t i = 0; i + 1 < added.size();) {
    std::vector<GateId> trial = current_regs;
    for (size_t j = 0; j < added.size(); ++j)
      if (j != i) trial.push_back(added[j]);
    ++st.atpg_calls;
    const AtpgStatus s = solve_abstract_trace(m, trial, abs_trace, bad, atpg_opt).status;
    if (s == AtpgStatus::Unsat) {
      // Still invalidated without added[i]: drop it for good.
      added.erase(added.begin() + static_cast<long>(i));
      ++st.removed_by_greedy;
    } else {
      ++i;  // needed (or unknown): keep it
    }
  }
  st.final_count = added.size();
  return added;
}

}  // namespace rfn
