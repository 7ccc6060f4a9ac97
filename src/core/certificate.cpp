#include "core/certificate.hpp"

#include <algorithm>

#include "mc/encoder.hpp"
#include "mc/image.hpp"
#include "mc/reach.hpp"
#include "netlist/analysis.hpp"
#include "netlist/subcircuit.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rfn {

namespace {

void fill_design(const Netlist& m, GateId bad, const std::string& property_name,
                 cert::Certificate* c) {
  c->design_hash = design_hash(m);
  c->design_regs = m.num_regs();
  c->design_inputs = m.num_inputs();
  c->design_gates = m.num_gates();
  c->property_name = property_name;
  c->bad = bad;
}

CertificateBuild failed(CertificateBuild res, std::string detail) {
  res.ok = false;
  res.detail = std::move(detail);
  return res;
}

}  // namespace

CertificateBuild build_holds_certificate(const Netlist& m, GateId bad,
                                         const std::string& property_name,
                                         const std::vector<GateId>& included_regs,
                                         size_t max_clauses) {
  CertificateBuild res;
  res.certificate.kind = cert::CertKind::HoldsInvariant;
  fill_design(m, bad, property_name, &res.certificate);

  const Subcircuit sub = extract_abstract_model(TopoIndex(m), {bad}, included_regs);
  const GateId bad_new = sub.to_new(bad);
  if (bad_new == kNullGate)
    return failed(std::move(res), "property signal missing from the abstraction");

  // Recompute the fixpoint on the abstraction, deliberately not reusing any
  // state from the run that produced the verdict.
  BddMgr mgr;
  Encoder enc(mgr, sub.net);
  mgr.set_auto_reorder(true);
  mgr.set_node_budget(kDefaultNodeBudget);
  ImageComputer img(enc);
  if (img.aborted())
    return failed(std::move(res),
                  "resource limit while rebuilding the transition relation");
  const Bdd bad_set = mgr.exists(enc.signal_fn(bad_new), enc.input_vars());
  if (bad_set.is_null())
    return failed(std::move(res), "resource limit while encoding the bad states");
  const ReachResult reach =
      forward_reach(img, enc.initial_states(), mgr.bdd_false());
  if (reach.status != ReachStatus::Proved)
    return failed(std::move(res), "could not recompute the fixpoint within the budget");
  const Bdd inv = reach.reached;
  if (inv.intersects(bad_set))
    return failed(std::move(res), "recomputed invariant intersects the bad states");

  // Scope: the abstraction's registers, by original id, sorted.
  std::vector<GateId>& regs = res.certificate.registers;
  for (const GateId r : sub.net.regs()) regs.push_back(sub.to_old(r));
  std::sort(regs.begin(), regs.end());

  // Clause form: every ISOP cube of ¬Inv, negated, is one clause of Inv.
  const Bdd neg = !inv;
  if (neg.is_null())
    return failed(std::move(res), "resource limit while complementing the invariant");
  std::vector<std::vector<BddLit>> cubes;
  if (!mgr.isop_cover(neg, max_clauses, &cubes))
    return failed(std::move(res),
                  "invariant cube cover exceeds " + std::to_string(max_clauses) +
                      " clauses");
  for (const std::vector<BddLit>& cube : cubes) {
    std::vector<int32_t> clause;
    clause.reserve(cube.size());
    for (const BddLit& lit : cube) {
      if (!enc.is_state_var(lit.var))
        return failed(std::move(res),
                      "reached set depends on a non-state variable");
      const GateId old = sub.to_old(enc.reg_of_var(lit.var));
      const auto it = std::lower_bound(regs.begin(), regs.end(), old);
      const auto idx = static_cast<int32_t>(it - regs.begin()) + 1;
      // A cube literal reg=1 excludes those states, so the clause carries
      // the negated register, and vice versa.
      clause.push_back(lit.positive ? -idx : idx);
    }
    std::sort(clause.begin(), clause.end(), [](int32_t a, int32_t b) {
      return (a < 0 ? -a : a) < (b < 0 ? -b : b);
    });
    res.certificate.clauses.push_back(std::move(clause));
  }
  res.ok = true;
  return res;
}

CertificateBuild build_fails_certificate(const Netlist& m, GateId bad,
                                         const std::string& property_name,
                                         const Trace& trace) {
  CertificateBuild res;
  res.certificate.kind = cert::CertKind::FailsTrace;
  fill_design(m, bad, property_name, &res.certificate);
  if (trace.empty()) return failed(std::move(res), "empty error trace");
  res.certificate.trace = trace;
  res.ok = true;
  return res;
}

CertificateArtifact certify_with_witness(const Netlist& m, GateId bad,
                                         const std::string& property_name,
                                         Verdict verdict, const Trace& error_trace,
                                         const std::vector<GateId>& final_registers) {
  MetricsRegistry& reg = MetricsRegistry::global();
  CertificateArtifact art;
  if (verdict != Verdict::Holds && verdict != Verdict::Fails) {
    art.detail = "inconclusive verdicts carry no certificate";
    return art;
  }

  Stopwatch total;
  {
    Stopwatch build;
    CertificateBuild b =
        verdict == Verdict::Holds
            ? build_holds_certificate(m, bad, property_name, final_registers)
            : build_fails_certificate(m, bad, property_name, error_trace);
    reg.timer("cert.build").record(build.seconds());
    if (!b.ok) {
      reg.counter("cert.build_failed").add();
      art.detail = b.detail;
      art.seconds = total.seconds();
      return art;
    }
    reg.counter("cert.built").add();
    reg.counter("cert.clauses").add(b.certificate.clauses.size());
    art.built = true;
    art.certificate = std::move(b.certificate);
  }

  Stopwatch check;
  const cert::CheckResult c = cert::check_certificate(m, art.certificate);
  reg.timer("cert.check").record(check.seconds());
  reg.counter(c.ok ? "cert.check_ok" : "cert.check_failed").add();
  art.checked = c.ok;
  art.obligation = c.obligation;
  art.detail = c.detail;
  art.seconds = total.seconds();
  return art;
}

}  // namespace rfn
