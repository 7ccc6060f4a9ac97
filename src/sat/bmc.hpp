#pragma once
// SAT-based bounded model checking over one long-lived incremental solver —
// the sat-bmc engine of the Step-2 and Step-3 races.
//
// A SatBmc owns one Solver plus one BmcEncoder for one design and answers
// repeated bounded questions "can `bad` rise within k cycles of the
// abstraction whose included register set is R?" purely through assumption
// flips: enables for R, the per-depth trigger, nothing re-encoded, learned
// clauses shared across depths, register sets, roots, and — via the session
// layer's pool — across the properties of a batch run.
//
// Answer semantics (AtpgStatus vocabulary, like the ATPG engines):
//   Sat    — found a length-`depth` error trace of the abstraction. With R =
//            all registers this is a real error trace of the design; the
//            decoded Trace is consumed unchanged by cert::check_certificate
//            and Step-3 concretization.
//   Unsat  — no trace of length <= max_depth exists. A *bounded* result:
//            conclusive for Step-3 concretization (the abstract trace's
//            length bounds the question) but never a Holds verdict.
//   Abort  — cancelled (lost the race / watchdog).

#include <cstddef>
#include <vector>

#include "atpg/comb_atpg.hpp"  // AtpgStatus
#include "netlist/netlist.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/cancel.hpp"

namespace rfn {

struct SatBmcResult {
  AtpgStatus status = AtpgStatus::Abort;
  /// Sat: the decoded error trace (length = depth).
  Trace trace;
  /// Sat: trace length (the first SAT depth). Unsat: the proven bound.
  size_t depth = 0;
};

/// Single-owner like a BddMgr: no two threads may use the instance at once.
class SatBmc {
 public:
  explicit SatBmc(const Netlist& m);

  /// Iteratively deepens k = 1..max_depth asking "bad at frame k" on the
  /// abstraction containing `included` (sorted original register ids;
  /// registers of bad's COI outside it stay free). Returns at the first SAT
  /// depth, on cancellation, or after proving the whole bound UNSAT. Polls
  /// `cancel` between depths and inside the solver.
  SatBmcResult check(GateId bad, size_t max_depth,
                     const std::vector<GateId>& included,
                     const CancelToken* cancel = nullptr);

  const sat::SolverStats& solver_stats() const { return solver_.stats(); }
  size_t frames() const { return enc_.frames(); }
  /// Byte-exact clause-arena + watch-list footprint of the owned solver
  /// (see Solver::heap_bytes); the session layer reports these per property.
  size_t solver_heap_bytes() const { return solver_.heap_bytes(); }
  size_t solver_heap_bytes_peak() const { return solver_.heap_bytes_peak(); }

 private:
  const Netlist* m_;
  sat::Solver solver_;
  sat::BmcEncoder enc_;
};

}  // namespace rfn
