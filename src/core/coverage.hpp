#pragma once
// Unreachable-coverage-state analysis (paper Section 3, second experiment).
//
// Given a set of coverage signals (registers encoding control FSMs), find as
// many coverage states (valuations of those signals) as possible that are
// unreachable on the original design. RFN mode: run the abstract-model
// fixpoint, classify coverage states outside the projected fixpoint as
// unreachable (sound: the abstraction over-approximates), concretize traces
// to candidate states to mark them reachable, and refine on spurious traces;
// the still-unclassified states become the next iteration's targets.

#include <vector>

#include "netlist/netlist.hpp"

namespace rfn {

struct CoverageOptions {
  /// Wall-clock limit (paper: 1,800 CPU seconds per experiment), carried
  /// by one CancelToken to every engine call and every BDD manager of the
  /// analysis. Each iteration's manager is capped at kDefaultNodeBudget.
  double time_limit_s = 1800.0;
  size_t max_iterations = 1000;
};

struct CoverageResult {
  size_t total_states = 0;
  size_t unreachable = 0;  // proved unreachable on the original design
  size_t reachable = 0;    // witnessed by a concrete trace
  size_t unknown = 0;      // unclassified when the loop stopped
  size_t iterations = 0;
  size_t final_abstract_regs = 0;
  double seconds = 0.0;
  /// Per-state classification, indexed by the coverage-state encoding
  /// (bit i = value of coverage_regs[i]).
  std::vector<uint8_t> state_class;  // 0 unknown, 1 unreachable, 2 reachable
};

/// RFN-based analysis. `coverage_regs` must be registers of `m`.
CoverageResult rfn_coverage_analysis(const Netlist& m,
                                     const std::vector<GateId>& coverage_regs,
                                     const CoverageOptions& opt = {});

}  // namespace rfn
