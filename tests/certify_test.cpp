// Tests for independent verdict certification through the rfn-cert-v1
// witness path (core/certificate.hpp + cert/check.hpp): every verdict kind
// certified or refused, JSON round-trips, the three checker obligations on
// every builtin design, and tampered witnesses refused with the right
// obligation named.

#include "core/certificate.hpp"

#include <gtest/gtest.h>

#include <string>

#include "cert/check.hpp"
#include "cert/format.hpp"
#include "designs/builtin.hpp"
#include "netlist/analysis.hpp"
#include "netlist/builder.hpp"

namespace rfn {
namespace {

// Chain design: r0 <- driver, r_i <- r_{i-1}; watchdog = last register.
Netlist make_chain(size_t len, bool driver_is_input, GateId* bad_out) {
  NetBuilder b;
  std::vector<GateId> regs;
  for (size_t i = 0; i < len; ++i) regs.push_back(b.reg("r" + std::to_string(i)));
  const GateId driver = driver_is_input ? b.input("in") : b.constant(false);
  b.set_next(regs[0], driver);
  for (size_t i = 1; i < len; ++i) b.set_next(regs[i], regs[i - 1]);
  b.output("bad", regs.back());
  Netlist n = b.take();
  *bad_out = n.output("bad");
  return n;
}

/// Builds and checks the witness for `verdict` on `m` (no file I/O).
CertificateArtifact certify(const Netlist& m, GateId bad, Verdict verdict,
                            const Trace& trace,
                            const std::vector<GateId>& final_registers) {
  return certify_with_witness(m, bad, "bad", verdict, trace, final_registers);
}

TEST(Certify, HoldsVerdictIsCertified) {
  GateId bad;
  Netlist m = make_chain(4, false, &bad);
  const RfnResult res = run_property(m, bad, {});
  ASSERT_EQ(res.verdict, Verdict::Holds);
  const CertificateArtifact art =
      certify(m, bad, res.verdict, res.error_trace, res.final_registers);
  EXPECT_TRUE(art.checked) << art.obligation << ": " << art.detail;
  EXPECT_EQ(art.certificate.kind, cert::CertKind::HoldsInvariant);
}

TEST(Certify, FailsVerdictIsCertified) {
  GateId bad;
  Netlist m = make_chain(3, true, &bad);
  const RfnResult res = run_property(m, bad, {});
  ASSERT_EQ(res.verdict, Verdict::Fails);
  const CertificateArtifact art =
      certify(m, bad, res.verdict, res.error_trace, res.final_registers);
  EXPECT_TRUE(art.checked) << art.obligation << ": " << art.detail;
  EXPECT_EQ(art.certificate.kind, cert::CertKind::FailsTrace);
}

TEST(Certify, RejectsBogusTrace) {
  GateId bad;
  Netlist m = make_chain(3, true, &bad);
  // A trace that never raises the input cannot raise bad.
  Trace bogus;
  bogus.steps.resize(4);
  for (auto& step : bogus.steps) step.inputs = {{m.find("in"), false}};
  const CertificateArtifact art = certify(m, bad, Verdict::Fails, bogus, {});
  ASSERT_TRUE(art.built) << art.detail;
  EXPECT_FALSE(art.checked);
  EXPECT_EQ(art.obligation, cert::kObligationTraceReplay);
  EXPECT_FALSE(art.detail.empty());
}

TEST(Certify, RejectsTraceStartingOutsideInit) {
  GateId bad;
  Netlist m = make_chain(2, true, &bad);
  Trace bogus;
  bogus.steps.resize(1);
  bogus.steps[0].state = {{m.find("r1"), true}};  // r1 inits to 0
  const CertificateArtifact art = certify(m, bad, Verdict::Fails, bogus, {});
  ASSERT_TRUE(art.built) << art.detail;
  EXPECT_FALSE(art.checked);
  EXPECT_EQ(art.obligation, cert::kObligationTraceReplay);
}

// --- fails-trace replay contract (cert/check.hpp) ---

TEST(Certify, RejectsTraceLeavingOutTheInputBadNeeds) {
  // bad = r0 <- in: without a value for `in` the replay holds it at X, so
  // bad is X at cycle 2 — the checker must not pick the input itself.
  GateId bad;
  Netlist m = make_chain(1, true, &bad);
  Trace partial;
  partial.steps.resize(2);
  partial.steps[0].state = {{m.find("r0"), false}};
  const CertificateArtifact art = certify(m, bad, Verdict::Fails, partial, {});
  ASSERT_TRUE(art.built) << art.detail;
  EXPECT_FALSE(art.checked);
  EXPECT_EQ(art.obligation, cert::kObligationTraceReplay);
  EXPECT_NE(art.detail.find("does not drive"), std::string::npos) << art.detail;

  partial.steps[0].inputs = {{m.find("in"), true}};
  const CertificateArtifact full = certify(m, bad, Verdict::Fails, partial, {});
  EXPECT_TRUE(full.checked) << full.obligation << ": " << full.detail;
}

TEST(Certify, XInitRegisterTakesTheFirstCyclesPin) {
  // r0 powers up X and feeds r1 (reset 0); bad = r1. The first state cube
  // pins r0 = 1, which the replay adopts as r0's start value.
  NetBuilder b;
  const GateId r0 = b.reg("r0", Tri::X);
  const GateId r1 = b.reg("r1");
  b.set_next(r0, r0);
  b.set_next(r1, r0);
  b.output("bad", r1);
  const Netlist m = b.take();
  const GateId bad = m.output("bad");
  Trace trace;
  trace.steps.resize(2);
  trace.steps[0].state = {{r0, true}, {r1, false}};
  trace.steps[1].state = {{r1, true}};
  const CertificateArtifact art = certify(m, bad, Verdict::Fails, trace, {});
  EXPECT_TRUE(art.checked) << art.obligation << ": " << art.detail;

  // Without the pin r0 stays X, so r1's pin at cycle 2 meets an X.
  trace.steps[0].state = {{r1, false}};
  const CertificateArtifact unpinned = certify(m, bad, Verdict::Fails, trace, {});
  ASSERT_TRUE(unpinned.built) << unpinned.detail;
  EXPECT_FALSE(unpinned.checked);
  EXPECT_EQ(unpinned.obligation, cert::kObligationTraceReplay);
  EXPECT_NE(unpinned.detail.find("cycle 2"), std::string::npos)
      << unpinned.detail;
}

TEST(Certify, RejectsMidTraceStatePinTheDesignContradicts) {
  GateId bad;
  Netlist m = make_chain(3, true, &bad);
  Trace trace;
  trace.steps.resize(4);
  trace.steps[0].inputs = {{m.find("in"), true}};
  trace.steps[2].state = {{m.find("r1"), true}};
  const CertificateArtifact good = certify(m, bad, Verdict::Fails, trace, {});
  EXPECT_TRUE(good.checked) << good.obligation << ": " << good.detail;

  // r1 = 1 at cycle 3 is forced by in = 1 at cycle 1; pinning 0 contradicts.
  trace.steps[2].state = {{m.find("r1"), false}};
  const CertificateArtifact art = certify(m, bad, Verdict::Fails, trace, {});
  ASSERT_TRUE(art.built) << art.detail;
  EXPECT_FALSE(art.checked);
  EXPECT_EQ(art.obligation, cert::kObligationTraceReplay);
  EXPECT_NE(art.detail.find("cycle 3"), std::string::npos) << art.detail;
  EXPECT_NE(art.detail.find("r1"), std::string::npos) << art.detail;
}

TEST(Certify, RejectsNonInvariantAbstraction) {
  // The one-register abstraction of the falsifiable chain cannot certify a
  // Holds verdict: its "fixpoint" includes bad states, so no witness is
  // built from it.
  GateId bad;
  Netlist m = make_chain(3, true, &bad);
  const GateId r2 = m.find("r2");
  const CertificateArtifact art = certify(m, bad, Verdict::Holds, {}, {r2});
  EXPECT_FALSE(art.built);
  EXPECT_FALSE(art.checked);
  EXPECT_NE(art.detail.find("intersects the bad states"), std::string::npos)
      << art.detail;

  // A hand-made witness over the same scope, {¬r2}, holds initially and
  // excludes bad, but r2 takes the free r1 next cycle: the independent
  // checker refutes consecution.
  cert::Certificate c;
  c.kind = cert::CertKind::HoldsInvariant;
  c.design_hash = design_hash(m);
  c.design_regs = m.num_regs();
  c.design_inputs = m.num_inputs();
  c.design_gates = m.num_gates();
  c.property_name = "bad";
  c.bad = bad;
  c.registers = {r2};
  c.clauses = {{-1}};
  const cert::CheckResult chk = cert::check_certificate(m, c);
  EXPECT_FALSE(chk.ok);
  EXPECT_EQ(chk.obligation, cert::kObligationConsecution) << chk.detail;
}

TEST(Certify, UnknownIsNeverCertified) {
  GateId bad;
  Netlist m = make_chain(2, false, &bad);
  for (const Verdict v : {Verdict::Unknown, Verdict::ResourceOut}) {
    const CertificateArtifact art = certify(m, bad, v, {}, m.regs());
    EXPECT_FALSE(art.built);
    EXPECT_FALSE(art.checked);
  }
}

// --- rfn-cert-v1 witness spec ---

// One self-latching register: bad = r is unreachable from r=0 and the
// unique inductive invariant is the single clause {¬r}.
Netlist make_latch(GateId* bad_out) {
  NetBuilder b;
  const GateId r = b.reg("r");
  b.set_next(r, r);
  b.output("bad", r);
  Netlist n = b.take();
  *bad_out = n.output("bad");
  return n;
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "document lacks '" << from << "'";
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(CertSpec, HoldsWitnessRoundTripsThroughJson) {
  GateId bad;
  const Netlist m = make_chain(4, false, &bad);
  const RfnResult res = run_property(m, bad, {});
  ASSERT_EQ(res.verdict, Verdict::Holds);
  const CertificateBuild built =
      build_holds_certificate(m, bad, "bad", res.final_registers);
  ASSERT_TRUE(built.ok) << built.detail;

  cert::Certificate back;
  std::string err;
  ASSERT_TRUE(cert::from_json(cert::to_json(built.certificate), &back, &err))
      << err;
  EXPECT_EQ(back.kind, cert::CertKind::HoldsInvariant);
  EXPECT_EQ(back.design_hash, design_hash(m));
  EXPECT_EQ(back.design_regs, m.num_regs());
  EXPECT_EQ(back.property_name, "bad");
  EXPECT_EQ(back.bad, bad);
  EXPECT_EQ(back.registers, built.certificate.registers);
  EXPECT_EQ(back.clauses, built.certificate.clauses);
  EXPECT_TRUE(back.trace.empty());
}

TEST(CertSpec, FailsWitnessRoundTripsThroughJson) {
  GateId bad;
  const Netlist m = make_chain(3, true, &bad);
  const RfnResult res = run_property(m, bad, {});
  ASSERT_EQ(res.verdict, Verdict::Fails);
  const CertificateBuild built =
      build_fails_certificate(m, bad, "bad", res.error_trace);
  ASSERT_TRUE(built.ok) << built.detail;

  cert::Certificate back;
  std::string err;
  ASSERT_TRUE(cert::from_json(cert::to_json(built.certificate), &back, &err))
      << err;
  EXPECT_EQ(back.kind, cert::CertKind::FailsTrace);
  EXPECT_EQ(back.design_hash, design_hash(m));
  ASSERT_EQ(back.trace.cycles(), res.error_trace.cycles());
  for (size_t i = 0; i < back.trace.cycles(); ++i) {
    const TraceStep& a = back.trace.steps[i];
    const TraceStep& b = res.error_trace.steps[i];
    ASSERT_EQ(a.state.size(), b.state.size()) << "cycle " << i;
    ASSERT_EQ(a.inputs.size(), b.inputs.size()) << "cycle " << i;
    for (size_t j = 0; j < a.state.size(); ++j) {
      EXPECT_EQ(a.state[j].signal, b.state[j].signal);
      EXPECT_EQ(a.state[j].value, b.state[j].value);
    }
  }
  EXPECT_TRUE(cert::check_certificate(m, back).ok);
}

TEST(CertSpec, ParserRejectsTamperedDocuments) {
  GateId bad;
  const Netlist m = make_latch(&bad);
  const CertificateBuild built =
      build_holds_certificate(m, bad, "bad", m.regs());
  ASSERT_TRUE(built.ok) << built.detail;
  const std::string good = cert::to_json(built.certificate);
  cert::Certificate parsed;
  std::string err;
  ASSERT_TRUE(cert::from_json(good, &parsed, &err)) << err;

  // Truncation, a foreign format tag, an unknown kind, and a mangled design
  // fingerprint must all fail the strict parse with a diagnostic.
  for (const std::string& bogus :
       {good.substr(0, good.size() / 2),
        replaced(good, "rfn-cert-v1", "rfn-cert-v0"),
        replaced(good, "holds-invariant", "holds-magic"),
        replaced(good, "\"hash\": \"", "\"hash\": \"zz")}) {
    err.clear();
    EXPECT_FALSE(cert::from_json(bogus, &parsed, &err));
    EXPECT_FALSE(err.empty());
  }

  // Structural validation: unsorted register scope, out-of-range clause
  // literal, empty clause, fails-trace without steps.
  cert::Certificate c = built.certificate;
  c.registers = {3, 1};
  EXPECT_FALSE(cert::from_json(cert::to_json(c), &parsed, &err));
  c = built.certificate;
  c.clauses = {{2}};  // scope has one register -> only ±1 is valid
  EXPECT_FALSE(cert::from_json(cert::to_json(c), &parsed, &err));
  c = built.certificate;
  c.clauses = {{}};
  EXPECT_FALSE(cert::from_json(cert::to_json(c), &parsed, &err));
  c = built.certificate;
  c.kind = cert::CertKind::FailsTrace;
  c.trace = Trace{};
  EXPECT_FALSE(cert::from_json(cert::to_json(c), &parsed, &err));

  // Ids that do not fit a GateId — kNullGate itself, 2^32 (which would wrap
  // to 0) and 1e300 (which would overflow the cast) — on the property root,
  // a scope register and a trace literal. A marker id locates the field.
  const std::string marker = "123456789";
  const GateId marked = 123456789;
  cert::Certificate root = built.certificate;
  root.bad = marked;
  cert::Certificate scope = built.certificate;
  scope.registers = {marked};
  cert::Certificate step = built.certificate;
  step.kind = cert::CertKind::FailsTrace;
  step.trace.steps.resize(1);
  step.trace.steps[0].state = {{marked, true}};
  for (const cert::Certificate& doc : {root, scope, step}) {
    const std::string text = cert::to_json(doc);
    ASSERT_TRUE(cert::from_json(text, &parsed, &err)) << err;
    for (const char* id : {"4294967295", "4294967296", "1e300"}) {
      err.clear();
      EXPECT_FALSE(cert::from_json(replaced(text, marker, id), &parsed, &err))
          << id;
      EXPECT_NE(err.find("32-bit gate id"), std::string::npos) << err;
    }
  }
}

TEST(CertSpec, CheckerNamesTheFailingObligation) {
  GateId bad;
  const Netlist m = make_latch(&bad);
  const CertificateBuild built =
      build_holds_certificate(m, bad, "bad", m.regs());
  ASSERT_TRUE(built.ok) << built.detail;
  ASSERT_EQ(built.certificate.clauses,
            (std::vector<std::vector<int32_t>>{{-1}}));
  EXPECT_TRUE(cert::check_certificate(m, built.certificate).ok);

  // Tampered clause {r}: the reset state r=0 refutes initiation.
  cert::Certificate tampered = built.certificate;
  tampered.clauses = {{1}};
  cert::CheckResult res = cert::check_certificate(m, tampered);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.obligation, cert::kObligationInitiation);
  EXPECT_NE(res.detail.find("r=0"), std::string::npos) << res.detail;

  // Dropping every clause weakens Inv to `true`, which reaches bad: safety.
  cert::Certificate dropped = built.certificate;
  dropped.clauses.clear();
  res = cert::check_certificate(m, dropped);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.obligation, cert::kObligationSafety);

  // A latch whose next state leaves {¬r} (next = 1) refutes consecution:
  // initiation still passes (init r=0), so the checker must blame the
  // induction step, not the base case.
  NetBuilder b;
  const GateId r = b.reg("r");
  b.set_next(r, b.constant(true));
  b.output("bad", b.and_(r, b.not_(r)));
  const Netlist m2 = b.take();
  cert::Certificate drift = built.certificate;
  drift.design_hash = design_hash(m2);
  drift.bad = m2.output("bad");
  drift.registers = m2.regs();
  res = cert::check_certificate(m2, drift);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.obligation, cert::kObligationConsecution);

  // The same witness against a different design: fingerprint mismatch.
  GateId other_bad;
  const Netlist other = make_chain(3, false, &other_bad);
  res = cert::check_certificate(other, built.certificate);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.obligation, cert::kObligationDesignHash);
  EXPECT_NE(res.detail.find(design_hash_hex(other)), std::string::npos);

  // Structural misfit on the right design: a scope id that is no register
  // (one past the design's last gate).
  cert::Certificate misfit = built.certificate;
  misfit.registers = {static_cast<GateId>(m.size())};
  res = cert::check_certificate(m, misfit);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.obligation, cert::kObligationFormat);
}

// End-to-end witness spec per builtin design: verify, build the
// polarity-matching witness, serialize, reparse, and discharge it through
// the independent checker — exactly the rfn_cli --certify + rfn_check path.
void builtin_witness_roundtrip(const char* design, const char* property,
                               Verdict expected) {
  bool ok = false;
  const Netlist m = designs::make_builtin(design, &ok);
  ASSERT_TRUE(ok);
  GateId bad = m.output(property);  // rfn_cli resolution: output, then name
  if (bad == kNullGate) bad = m.find(property);
  ASSERT_NE(bad, kNullGate);
  const RfnResult res = run_property(m, bad, {});
  ASSERT_EQ(res.verdict, expected);

  const CertificateArtifact art = certify_with_witness(
      m, bad, property, res.verdict, res.error_trace, res.final_registers);
  ASSERT_TRUE(art.built) << art.detail;
  EXPECT_TRUE(art.checked) << art.obligation << ": " << art.detail;

  cert::Certificate back;
  std::string err;
  ASSERT_TRUE(cert::from_json(cert::to_json(art.certificate), &back, &err))
      << err;
  const cert::CheckResult chk = cert::check_certificate(m, back);
  EXPECT_TRUE(chk.ok) << chk.obligation << ": " << chk.detail;
}

TEST(CertSpec, FifoHoldsWitness) {
  builtin_witness_roundtrip("fifo", "bad_full_q", Verdict::Holds);
}

TEST(CertSpec, ProcessorHoldsWitness) {
  builtin_witness_roundtrip("processor", "bad_mutex", Verdict::Holds);
}

TEST(CertSpec, IuHoldsWitness) {
  builtin_witness_roundtrip("iu", "bad_dec", Verdict::Holds);
}

TEST(CertSpec, UsbHoldsWitness) {
  builtin_witness_roundtrip("usb", "bad_se1", Verdict::Holds);
}

TEST(CertSpec, IuCoverageFailsWitness) {
  builtin_witness_roundtrip("iu", "iu0", Verdict::Fails);
}

TEST(CertSpec, InconclusiveVerdictsCarryNoWitness) {
  GateId bad;
  const Netlist m = make_latch(&bad);
  const CertificateArtifact art =
      certify_with_witness(m, bad, "bad", Verdict::Unknown, Trace{}, m.regs());
  EXPECT_FALSE(art.built);
  EXPECT_FALSE(art.checked);
}

}  // namespace
}  // namespace rfn
