#pragma once
// Independent certificate checker: discharges an rfn-cert-v1 witness
// against a re-elaborated design using only the netlist layer, the CDCL SAT
// solver and the Sim3 simulator — no BDDs, no model checker, none of the
// engines whose answer the witness is supposed to vouch for. This is the
// trust boundary of the whole verification service: a consumer need only
// trust this checker and what it links, never the CEGAR loop.
//
// For a holds-invariant witness the invariant Inv — a conjunction of
// clauses over the abstraction's registers, every other register and every
// primary input left free (the abstraction's pseudo-input semantics) — is
// checked inductive and safe via three SAT obligations, each of which must
// be UNSAT:
//
//   initiation   init ∧ ¬Inv            (binary-initialized scope registers
//                                        pinned to their reset values)
//   consecution  Inv ∧ T ∧ ¬Inv′        (T = one copy of each scope
//                                        register's next-state cone, cut at
//                                        all register boundaries)
//   safety       Inv ∧ bad              (bad's combinational cone, cut the
//                                        same way)
//
// A fails-trace witness is replayed through Sim3 from load_initial_state(),
// X-init registers taking the first state cube's pins and inputs the trace
// leaves out held at X. Every register a state cube pins must simulate to
// the pinned value (else trace-replay names the cycle, from 1, the register
// and both values), and bad must be a definite 1 at the last cycle. Register
// literals in an inputs cube and non-register ones in a state cube are
// skipped. Sim3's X propagation is conservative (sim/sim3.hpp), so that 1
// holds for every completion of the Xs: the design truly reaches bad.
//
// A refuted obligation comes back by name with a detail (for SAT ones, the
// satisfying assignment over the scope registers), so a bogus witness is a
// diagnosis, not a shrug.

#include <string>

#include "cert/format.hpp"
#include "netlist/netlist.hpp"

namespace rfn::cert {

// Obligation names reported on refutation (stable strings; tests and the
// trace schema match on them).
inline constexpr const char* kObligationFormat = "format";
inline constexpr const char* kObligationDesignHash = "design-hash";
inline constexpr const char* kObligationInitiation = "initiation";
inline constexpr const char* kObligationConsecution = "consecution";
inline constexpr const char* kObligationSafety = "safety";
inline constexpr const char* kObligationTraceReplay = "trace-replay";

struct CheckResult {
  bool ok = false;
  /// Empty when ok; otherwise the failing obligation (one of the
  /// kObligation* constants above).
  std::string obligation;
  /// Human diagnostic: the satisfying assignment over the scope registers
  /// for a refuted SAT obligation, the cycle for a refuted replay.
  std::string detail;
};

/// Checks `cert` against design `m`. Verifies the design fingerprint first
/// (kObligationDesignHash), then the structural fit of the witness to the
/// design (kObligationFormat: property root and scope registers must exist),
/// then discharges the kind-specific obligations described above.
CheckResult check_certificate(const Netlist& m, const Certificate& cert);

}  // namespace rfn::cert
