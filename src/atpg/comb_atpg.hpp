#pragma once
// Combinational justification ATPG.
//
// Contract (paper Section 2): given a design and a cube of required signal
// values, report
//   * Sat    — an assignment of the free signals (primary inputs and
//              register outputs) satisfying the cube, plus the implied full
//              valuation;
//   * Unsat  — no assignment exists;
//   * Abort  — the backtrack limit was exceeded or the cancel token fired.
//
// The search is PODEM-style: decisions are made only on free signals,
// located by backtracing the current justification objective through an
// X-path; conflicts trigger chronological backtracking with both branches
// explored, which makes the search complete.

#include "atpg/implication.hpp"
#include "netlist/netlist.hpp"
#include "util/cancel.hpp"

namespace rfn {

enum class AtpgStatus { Sat, Unsat, Abort };
// The canonical spelling lives in core/status.hpp: to_string(AtpgStatus).

struct AtpgOptions {
  /// Backtrack budget; the engine aborts beyond it (paper: "some resource
  /// limits are exceeded").
  uint64_t max_backtracks = 1u << 20;
  /// The run's stop signal, polled per backtrack and per decision batch; a
  /// cancelled search reports Abort. Flows through every engine built on
  /// this options struct (sequential ATPG, concretization, refinement),
  /// which is how a run's time limit cuts them short.
  const CancelToken* cancel = nullptr;
};

struct CombAtpgResult {
  AtpgStatus status = AtpgStatus::Abort;
  /// Assignment of free signals only (Sat only). Free signals the search
  /// never constrained are omitted and may take any value.
  Cube free_assignment;
  /// Full implied valuation indexed by node id (Sat only).
  std::vector<Tri> valuation;
  uint64_t backtracks = 0;
  uint64_t decisions = 0;
  /// Trail entries tested for justification while locating objectives: the
  /// J-frontier's cost, amortized linear in trail length plus decisions.
  uint64_t frontier_checks = 0;
};

/// Finds an assignment of free signals satisfying all literals of `targets`.
CombAtpgResult justify(const Netlist& n, const Cube& targets,
                       const AtpgOptions& opt = {});
/// The same search over a time-frame view: targets, free_assignment and
/// valuation are indexed by the view's node ids.
CombAtpgResult justify(const FrameView& view, const Cube& targets,
                       const AtpgOptions& opt = {});

}  // namespace rfn
