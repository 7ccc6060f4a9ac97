#pragma once
// Plain symbolic model checking with cone-of-influence reduction — the
// baseline RFN is compared against in Table 1 ("to be fair, we perform
// symbolic model checking with COI reduction").

#include "core/rfn.hpp"
#include "mc/reach.hpp"

namespace rfn {

struct PlainMcOptions {
  /// Wall-clock limit in seconds (negative = unlimited): the limit of the
  /// CancelToken the fixpoint and the BDD manager poll.
  double time_limit_s = -1.0;
  /// Live-node cap of the BDD manager.
  size_t node_cap = kDefaultNodeBudget;
};

struct PlainMcResult {
  Verdict verdict = Verdict::Unknown;
  ReachStatus reach_status = ReachStatus::ResourceOut;
  size_t coi_regs = 0;
  size_t steps = 0;
  double seconds = 0.0;
};

/// Runs BDD reachability on the COI-reduced design. Fails/Holds are exact
/// (COI reduction preserves the property); Unknown means resources ran out —
/// the expected outcome on designs beyond BDD capacity.
PlainMcResult plain_model_check(const Netlist& m, GateId bad,
                                const PlainMcOptions& opt = {});

}  // namespace rfn
