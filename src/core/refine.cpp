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

std::vector<GateId> crucial_candidates_by_simulation(const Netlist& m,
                                                     const Trace& abs_trace,
                                                     const std::vector<GateId>& current_regs,
                                                     RefineStats* stats) {
  std::vector<bool> in_model(m.size(), false);
  for (GateId r : current_regs) in_model[r] = true;

  // The trace assigns register values through both the state cube (kept
  // registers) and the input cube (cut registers appear as abstract-model
  // inputs).
  auto trace_reg_value = [&](const TraceStep& step, GateId r) -> Tri {
    const Tri s = cube_lookup(step.state, r);
    if (s != Tri::X) return s;
    return cube_lookup(step.inputs, r);
  };

  std::vector<GateId> candidates;
  std::vector<bool> is_candidate(m.size(), false);

  Sim3 sim(m);
  // Paper: initialize with the beginning state of the abstract model;
  // everything unassigned is X (not M's reset values — the replay follows
  // the abstract trace, which may start anywhere the abstract init allows).
  for (GateId r : m.regs()) sim.set(r, Tri::X);
  for (const Literal& lit : abs_trace.steps[0].state) sim.set(lit.signal, tri_of(lit.value));
  for (const Literal& lit : abs_trace.steps[0].inputs)
    if (m.is_reg(lit.signal)) sim.set(lit.signal, tri_of(lit.value));

  for (size_t c = 0; c < abs_trace.steps.size(); ++c) {
    const TraceStep& step = abs_trace.steps[c];
    if (c > 0) {
      // Compare the simulated register values against the trace's
      // assignments for this cycle; binary disagreement on an out-of-model
      // register flags it, then the trace value wins.
      for (GateId r : m.regs()) {
        const Tri want = trace_reg_value(step, r);
        if (want == Tri::X) continue;
        const Tri have = sim.value(r);
        if (have != Tri::X && have != want) {
          if (!in_model[r] && !is_candidate[r]) {
            is_candidate[r] = true;
            candidates.push_back(r);
          }
          sim.set(r, want);
        } else if (have == Tri::X) {
          sim.set(r, want);
        }
      }
    }
    sim.clear_inputs();
    for (const Literal& lit : step.inputs)
      if (m.is_input(lit.signal)) sim.set(lit.signal, tri_of(lit.value));
    sim.eval();
    if (c + 1 < abs_trace.steps.size()) sim.step();
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

std::vector<GateId> identify_crucial_registers(const Netlist& m, GateId bad,
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
