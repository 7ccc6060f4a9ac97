#pragma once
// BFS abstraction baseline for coverage analysis (Ho et al. [8], compared
// against RFN in Table 2).
//
// The BFS method is purely topological: take the k registers closest (in
// register-BFS distance) to the coverage signals, build the subcircuit over
// them, run one forward fixpoint, project to the coverage signals, and
// report everything outside the projection as unreachable.

#include <vector>

#include "mc/reach.hpp"
#include "netlist/netlist.hpp"

namespace rfn {

struct BfsBaselineOptions {
  /// Abstract-model size (paper: 60 registers, "forward fixpoint almost
  /// always completes on an abstract model with 60 registers").
  size_t num_registers = 60;
  /// Wall-clock limit in seconds (negative = unlimited): the limit of the
  /// CancelToken the fixpoint and its BDD manager poll. The manager is
  /// capped at kDefaultNodeBudget.
  double time_limit_s = -1.0;
};

struct BfsBaselineResult {
  size_t total_states = 0;
  size_t unreachable = 0;
  size_t abstract_regs = 0;
  ReachStatus reach_status = ReachStatus::ResourceOut;
  double seconds = 0.0;
};

BfsBaselineResult bfs_coverage_analysis(const Netlist& m,
                                        const std::vector<GateId>& coverage_regs,
                                        const BfsBaselineOptions& opt = {});

}  // namespace rfn
