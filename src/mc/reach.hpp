#pragma once
// Forward reachability: fixpoint with onion rings and on-the-fly target
// detection (Step 2 of RFN).

#include <vector>

#include "mc/image.hpp"
#include "util/cancel.hpp"

namespace rfn {

struct ReachOptions {
  /// Abort after this many image steps.
  size_t max_steps = 1u << 20;
  /// The run's stop signal, polled once per image step; a cancelled
  /// fixpoint reports ResourceOut. Nodes are bounded by the manager's own
  /// cap (BddMgr::set_node_budget): a refused image also reports
  /// ResourceOut.
  const CancelToken* cancel = nullptr;
};

enum class ReachStatus {
  Proved,        // fixpoint reached, no target state reachable
  BadReachable,  // some target state reached at step `steps`
  ResourceOut,   // cancelled, node cap refused an operation, or step limit
};
// The canonical spelling lives in core/status.hpp: to_string(ReachStatus).

struct ReachResult {
  ReachStatus status = ReachStatus::ResourceOut;
  /// Onion rings: rings[i] = states first reached at exactly step i
  /// (rings[0] = initial set). Every state in rings[i] (i>0) has a
  /// predecessor in rings[i-1], which is what backward trace extraction
  /// relies on. On BadReachable the last ring intersects `bad`.
  std::vector<Bdd> rings;
  /// Union of all rings (the fixpoint when status == Proved).
  Bdd reached;
  size_t steps = 0;
  double seconds = 0.0;
};

/// BFS forward fixpoint from `init`, stopping early if `bad` is hit.
ReachResult forward_reach(ImageComputer& img, const Bdd& init, const Bdd& bad,
                          const ReachOptions& opt = {});

}  // namespace rfn
