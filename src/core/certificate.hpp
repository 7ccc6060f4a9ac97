#pragma once
// Certificate construction: turns a concluded verdict into a checkable
// rfn-cert-v1 witness (cert/format.hpp).
//
//   * Holds — the fixpoint on the final abstraction is recomputed from
//     scratch (a fresh BDD manager, no state from the run that produced the
//     verdict) and its complement enumerated as an irredundant cube cover (BddMgr::isop_cover); each cube, negated and
//     mapped from state variables back to original register ids, becomes
//     one clause of the inductive invariant.
//   * Fails — the error trace is embedded verbatim.
//
// The builder also self-checks every witness through the independent SAT
// checker (cert/check.hpp) before handing it out, recording `cert.*`
// metrics, so a verdict whose artifact would not survive an external
// `rfn_check` run is reported as a certification failure right away.

#include <string>
#include <vector>

#include "cert/check.hpp"
#include "cert/format.hpp"
#include "core/rfn.hpp"
#include "netlist/netlist.hpp"

namespace rfn {

/// Cap on invariant clauses during extraction; covers past this size are
/// reported as extraction failures rather than truncated (a truncated cover
/// would not be an invariant at all).
inline constexpr size_t kMaxInvariantClauses = 1u << 14;

struct CertificateBuild {
  bool ok = false;
  std::string detail;  // diagnostic when extraction failed
  cert::Certificate certificate;
};

/// Extracts a holds-invariant witness for `bad` from the abstraction over
/// `included_regs`. Fails (ok = false) when the fixpoint cannot be
/// recomputed under kDefaultNodeBudget or the ISOP cover overflows
/// `max_clauses`.
CertificateBuild build_holds_certificate(const Netlist& m, GateId bad,
                                         const std::string& property_name,
                                         const std::vector<GateId>& included_regs,
                                         size_t max_clauses = kMaxInvariantClauses);

/// Wraps a concrete error trace as a fails-trace witness.
CertificateBuild build_fails_certificate(const Netlist& m, GateId bad,
                                         const std::string& property_name,
                                         const Trace& trace);

/// A built-and-checked certificate for one concluded property: what the CLI
/// emits and what lands in the rfn-trace-v2 `certificate` record.
struct CertificateArtifact {
  /// Extraction produced a witness (false for inconclusive verdicts and
  /// budget/overflow failures; `certificate` is then meaningless).
  bool built = false;
  /// The witness survived the independent checker (implies built).
  bool checked = false;
  /// Failing obligation name when built && !checked (cert/check.hpp).
  std::string obligation;
  std::string detail;
  double seconds = 0.0;
  cert::Certificate certificate;
};

/// Builds the kind matching `verdict` and discharges it through
/// cert::check_certificate. Records cert.* metrics: counters cert.built /
/// cert.build_failed / cert.check_ok / cert.check_failed / cert.clauses,
/// timers cert.build / cert.check. Inconclusive verdicts return an
/// unbuilt artifact with a diagnostic: they carry no certificate.
CertificateArtifact certify_with_witness(const Netlist& m, GateId bad,
                                         const std::string& property_name,
                                         Verdict verdict, const Trace& error_trace,
                                         const std::vector<GateId>& final_registers);

}  // namespace rfn
