#pragma once
// Step 4: identifying crucial registers for refinement (paper Section 2.4).
//
// Two-phase algorithm:
//   Phase 1 (3-valued simulation): replay the abstract error trace on the
//   full design with everything unassigned held at X. A register outside the
//   abstract model whose simulated value *conflicts* with the value the
//   trace assumed for it is a crucial-register candidate; after flagging,
//   the trace value overrides the simulated one and the replay continues.
//   If no conflict arises (rare), the registers appearing most often in the
//   trace are taken instead.
//
//   Phase 2 (greedy ATPG minimization): add candidates one at a time to the
//   abstract model until sequential ATPG proves the error trace
//   unsatisfiable on the refined model; then try to remove earlier
//   candidates again, keeping only those whose removal would make the trace
//   satisfiable.

#include <vector>

#include "atpg/seq_atpg.hpp"
#include "netlist/subcircuit.hpp"

namespace rfn {

struct RefineOptions {
  AtpgOptions atpg;
  /// Cap on fallback candidates when phase 1 finds no conflicts.
  size_t max_fallback_candidates = 8;
};

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
/// the abstract model), in discovery order.
std::vector<GateId> crucial_candidates_by_simulation(const Netlist& m,
                                                     const Trace& abs_trace,
                                                     const std::vector<GateId>& current_regs,
                                                     size_t max_fallback);

/// Full two-phase identification. `current_regs` is the abstract model's
/// included register set; `abs_trace` is in M ids; `property_roots` are the
/// property signals (needed to rebuild candidate abstract models); `bad` is
/// the property signal an error trace must raise.
std::vector<GateId> identify_crucial_registers(const Netlist& m,
                                               const std::vector<GateId>& property_roots,
                                               GateId bad,
                                               const std::vector<GateId>& current_regs,
                                               const Trace& abs_trace,
                                               const RefineOptions& opt = {},
                                               RefineStats* stats = nullptr);

/// Helper shared with phase 2: is the abstract error trace still satisfiable
/// on the abstract model over `regs`? Maps the trace into the subcircuit,
/// adds the property target at the last cycle, and runs sequential ATPG.
AtpgStatus trace_satisfiable_on(const Netlist& m,
                                const std::vector<GateId>& property_roots, GateId bad,
                                const std::vector<GateId>& regs, const Trace& abs_trace,
                                const AtpgOptions& opt);

}  // namespace rfn
