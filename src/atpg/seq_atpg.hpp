#pragma once
// Sequential ATPG by time-frame expansion.
//
// Implements the paper's sequential ATPG contract (Section 2): given a
// design M, a cycle count k and a sequence of cubes C_1..C_k, decide whether
// some k-cycle trace of M from its initial states satisfies every cube at
// its cycle — reporting Sat (with the trace), Unsat, or Abort on resource
// exhaustion. Guidance (Step 3) and the refinement satisfiability checks
// (Step 4) are both expressed through the constraint cubes.
//
// Each call builds a FrameView of M over k frames restricted to the cubes'
// cones (frame_view.hpp) and justifies the cubes' literals on its nodes. A
// literal on a constant node (a constant of M, or a binary-initialized
// register at cycle 1, directly or through register aliases) is checked
// before the search; two literals that alias one node with opposite values
// are Unsat. The trace is read back from the view's valuation.

#include "atpg/comb_atpg.hpp"
#include "netlist/netlist.hpp"

namespace rfn {

struct SeqAtpgResult {
  AtpgStatus status = AtpgStatus::Abort;
  /// Sat only: a k-cycle trace. Each step's state cube assigns every
  /// register of that cycle's cone the search determined (binary-initialized
  /// registers at cycle 1 take their initial value); the input cubes assign
  /// the inputs the search constrained.
  Trace trace;
  uint64_t backtracks = 0;
  uint64_t decisions = 0;
};

/// cubes[i] is the cube that must hold at cycle i+1 (states and/or inputs
/// and/or internal signals of that cycle).
SeqAtpgResult solve_cycle_cubes(const Netlist& m, const std::vector<Cube>& cubes,
                                const AtpgOptions& opt = {});

/// Convenience: is there a k-cycle trace reaching `target`=value at cycle k,
/// subject to optional per-cycle guidance cubes (empty = unguided)?
SeqAtpgResult reach_target(const Netlist& m, size_t cycles, GateId target, bool value,
                           const std::vector<Cube>& guidance = {},
                           const AtpgOptions& opt = {});

}  // namespace rfn
