#pragma once
// The BDD-ATPG hybrid engine for finding error traces on the abstract model
// (paper Section 2.2).
//
// Abstract models routinely have thousands of primary inputs (cut register
// outputs), which kills BDD pre-image on the model itself. The hybrid
// engine instead:
//   1. computes the min-cut design MC of the abstract model N (fewest
//      primary inputs);
//   2. walks the onion rings backward, pre-imaging the current target cube
//      on MC only;
//   3. classifies each candidate cube of the result: a *no-cut cube*
//      (registers and primary inputs of N only) extends the trace directly;
//      a *min-cut cube* (mentions MC inputs that are internal signals of N)
//      is handed to combinational ATPG on N, which justifies the internal
//      values back to an assignment of N's registers and inputs.
// The state part of the accepted cube becomes the next pre-image target.

#include "atpg/comb_atpg.hpp"
#include "mc/reach.hpp"
#include "mc/trace.hpp"
#include "mincut/mincut.hpp"

namespace rfn {

struct HybridTraceStats {
  size_t mc_inputs = 0;       // primary inputs of the min-cut design
  size_t model_inputs = 0;    // primary inputs of the abstract model
  size_t cone_inputs = 0;     // inputs in the registers' fanin cone
  size_t nocut_cubes = 0;     // cubes accepted without ATPG
  size_t mincut_cubes = 0;    // cubes routed through combinational ATPG
  size_t atpg_calls = 0;
  size_t atpg_rejects = 0;    // candidate cubes ATPG refuted / aborted
};

/// Extracts an error trace on abstract model `n` from a BadReachable
/// reachability result, using min-cut pre-image + ATPG justification.
/// `enc` must be the encoder the rings were computed with. The walk starts
/// from the shortest cube of the bad intersection. `cancel` is the run's
/// stop signal: the walk polls it per pre-image step and every
/// justification call polls it too. Returns an empty trace if `cancel`
/// fires, the manager abandons an operation, or every candidate cube is
/// exhausted (should not happen: the paper argues a consistent no-cut cube
/// always exists).
Trace hybrid_error_trace(Encoder& enc, const Netlist& n, const ReachResult& reach,
                         const Bdd& bad, const CancelToken* cancel = nullptr,
                         HybridTraceStats* stats = nullptr);

}  // namespace rfn
