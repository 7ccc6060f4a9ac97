#pragma once
// Sequential ATPG by time-frame expansion.
//
// Implements the paper's sequential ATPG contract (Section 2): given a
// design M, a cycle count k and a sequence of cubes C_1..C_k, decide whether
// some k-cycle trace of M from its initial states satisfies every cube at
// its cycle — reporting Sat (with the trace), Unsat, or Abort on resource
// exhaustion. The paper asks it twice: Step 3 of M, and Step 4's greedy
// phase of the abstraction plus candidate registers. Both read M in place:
// an abstract model is M with the registers outside its set turned into
// free inputs (core/concretize.hpp builds the cubes from an abstract trace).
//
// Each call maps the cubes' literals to (frame, gate) nodes first (FrameNodes,
// frame_view.hpp). A literal that contradicts a constant node (a constant of
// M, or a binary-initialized kept register at cycle 1, directly or through
// register aliases), or two that alias one node with opposite values, answer
// Unsat before any view is built ("atpg.seq.refuted_early"). Otherwise the
// literals are justified on a FrameView over M's TopoIndex, restricted to
// the cubes' cones, and the trace is read back from its valuation.

#include <span>

#include "atpg/comb_atpg.hpp"
#include "netlist/analysis.hpp"

namespace rfn {

struct SeqAtpgResult {
  AtpgStatus status = AtpgStatus::Abort;
  /// Sat only: a k-cycle trace. Each step's state cube assigns every
  /// register of that cycle's cone the search determined (binary-initialized
  /// kept registers at cycle 1 take their initial value, a register outside
  /// the kept set the free value chosen for it); the input cubes assign the
  /// inputs the search constrained.
  Trace trace;
  uint64_t backtracks = 0;
  uint64_t decisions = 0;
};

/// cubes[i] is the cube that must hold at cycle i+1 (states and/or inputs
/// and/or internal signals of that cycle). The design read is M with only
/// the registers in `kept` kept; every other register is a free input at
/// every cycle, as in an extracted abstract model.
SeqAtpgResult solve_cycle_cubes(const TopoIndex& m, std::span<const GateId> kept,
                                const std::vector<Cube>& cubes, const AtpgOptions& opt = {});

/// The same over M itself: every register kept.
SeqAtpgResult solve_cycle_cubes(const TopoIndex& m, const std::vector<Cube>& cubes,
                                const AtpgOptions& opt = {});

/// Convenience: is there a k-cycle trace reaching `target`=value at cycle k,
/// subject to optional per-cycle guidance cubes (empty = unguided)?
SeqAtpgResult reach_target(const TopoIndex& m, size_t cycles, GateId target, bool value,
                           const std::vector<Cube>& guidance = {},
                           const AtpgOptions& opt = {});

}  // namespace rfn
