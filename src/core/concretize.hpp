#pragma once
// Step 3: searching for an error trace on the original design, guided by the
// abstract error trace (paper Section 2.3).
//
// The abstract trace bounds the depth (the real shortest trace is at least
// as long) and supplies cycle-by-cycle constraint cubes that steer the
// sequential ATPG search. RFN never performs symbolic image computation on
// the original design.

#include "atpg/seq_atpg.hpp"
#include "netlist/subcircuit.hpp"

namespace rfn {

struct ConcretizeResult {
  /// Sat: `trace` violates the property on the original design.
  /// Unsat: the abstract trace is spurious at this depth under guidance.
  /// Abort: resource limits hit.
  AtpgStatus status = AtpgStatus::Abort;
  Trace trace;
  uint64_t backtracks = 0;
  /// True when the abstract trace replayed concretely without any search.
  bool direct_replay = false;
};

/// `abs_trace` must be expressed in the original design's signal ids (use
/// Subcircuit::trace_to_old on the hybrid engine's output). `bad` is the
/// property signal of `m` that an error trace must raise at its last cycle.
ConcretizeResult concretize_trace(const Netlist& m, const Trace& abs_trace, GateId bad,
                                  const AtpgOptions& opt = {});

/// Converts an abstract trace (in M ids) into per-cycle guidance cubes over
/// M: register literals (both kept registers and cut-register pseudo-input
/// assignments) form the state cube, primary-input literals the input cube.
std::vector<Cube> guidance_cubes(const Trace& abs_trace);

}  // namespace rfn
