#pragma once
// Step 4: identifying crucial registers for refinement (paper Section 2.4).
//
// Two-phase algorithm:
//   Phase 1 (3-valued simulation): replay the abstract error trace on the
//   full design with everything unassigned held at X. A register outside the
//   abstract model whose simulated value *conflicts* with the value the
//   trace assumed for it is a crucial-register candidate; after flagging,
//   the trace value overrides the simulated one and the replay continues.
//   Each cycle evaluates only the backward cone of the next cycle's
//   comparisons (and of the unpinned registers carrying values into it), so
//   the candidates are those of a replay of all of M.
//   If no conflict arises, the registers appearing most often in the trace
//   are taken instead (24 of the 37 refinements of CI's four builtin suites
//   take this path).
//
//   Phase 2 (greedy ATPG minimization): add candidates one at a time to the
//   abstract model until sequential ATPG proves the error trace
//   unsatisfiable on the refined model; then try to remove earlier
//   candidates again, keeping only those whose removal would make the trace
//   satisfiable. Each trial is solve_abstract_trace (concretize.hpp) over M
//   keeping the trial's registers: nothing is extracted or copied.

#include <vector>

#include "atpg/seq_atpg.hpp"

namespace rfn {

struct RefineStats {
  size_t conflict_candidates = 0;  // phase-1 candidates from conflicts
  size_t fallback_candidates = 0;  // phase-1 candidates from frequency
  size_t hint_candidates = 0;      // always 0: read by e2ebench/util.cpp
  size_t added_until_unsat = 0;    // prefix length that invalidated the trace
  size_t removed_by_greedy = 0;    // registers dropped by the backward pass
  size_t final_count = 0;
  size_t atpg_calls = 0;
  bool trace_invalidated = false;  // ATPG reached Unsat at some prefix
};

/// Phase 1 only: crucial-register candidates (ids of M registers outside
/// the abstract model), in discovery order. The conflict path or the
/// frequency fallback (at most eight registers) found them; `stats`, when
/// given, counts them under that path.
std::vector<GateId> crucial_candidates_by_simulation(const TopoIndex& m,
                                                     const Trace& abs_trace,
                                                     const std::vector<GateId>& current_regs,
                                                     RefineStats* stats = nullptr);

/// Full two-phase identification. `current_regs` is the abstract model's
/// included register set; `abs_trace` is in M ids; `bad` is the property
/// signal an error trace must raise, or kNullGate when the trace's last
/// state cube is itself the target (coverage). Every phase-2 ATPG call runs
/// under `atpg_opt`: the run's own cancel token and budget.
std::vector<GateId> identify_crucial_registers(const TopoIndex& m, GateId bad,
                                               const std::vector<GateId>& current_regs,
                                               const Trace& abs_trace,
                                               const AtpgOptions& atpg_opt,
                                               RefineStats* stats = nullptr);

}  // namespace rfn
