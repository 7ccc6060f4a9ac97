// Tests for the IC3/PDR engine (src/pdr): unbounded Holds with the
// inductive frame discharged through the independent rfn-cert-v1 checker,
// counterexample traces that replay, pseudo-input abstraction semantics,
// frame/cancellation limits, and the session-level `pdr` racer.

#include "pdr/pdr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cert/check.hpp"
#include "core/certificate.hpp"
#include "core/rfn.hpp"
#include "designs/builtin.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"

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

std::vector<GateId> all_regs(const Netlist& m) {
  std::vector<GateId> regs(m.regs().begin(), m.regs().end());
  std::sort(regs.begin(), regs.end());
  return regs;
}

// Runs PDR with the full register set, expects Holds, and discharges the
// returned frame through the independent certificate checker.
void expect_pdr_proof_certifies(const Netlist& m, GateId bad,
                                const std::string& name) {
  Pdr engine(m, bad, all_regs(m));
  const PdrResult res = engine.run();
  ASSERT_EQ(res.status, PdrStatus::Holds) << name;
  ASSERT_FALSE(res.clauses.empty()) << name;

  PdrInvariantWitness inv;
  inv.present = true;
  inv.registers = res.scope;
  inv.clauses = res.clauses;
  const CertificateBuild build =
      build_holds_certificate_from_invariant(m, bad, name, inv);
  ASSERT_TRUE(build.ok) << build.detail;
  const cert::CheckResult check = cert::check_certificate(m, build.certificate);
  EXPECT_TRUE(check.ok) << check.obligation << ": " << check.detail;
}

TEST(Pdr, ProvesConstantChainAndFrameCertifies) {
  GateId bad;
  Netlist m = make_chain(4, false, &bad);
  expect_pdr_proof_certifies(m, bad, "chain4");
}

TEST(Pdr, ProvesBuiltinFifoAndFrameCertifies) {
  bool ok = false;
  Netlist m = designs::make_builtin("fifo", &ok);
  ASSERT_TRUE(ok);
  const GateId bad = m.find("bad_full_q");
  ASSERT_NE(bad, kNullGate);
  expect_pdr_proof_certifies(m, bad, "fifo.bad_full_q");
}

TEST(Pdr, ProvesBuiltinProcessorAndFrameCertifies) {
  bool ok = false;
  Netlist m = designs::make_builtin("processor", &ok);
  ASSERT_TRUE(ok);
  expect_pdr_proof_certifies(m, m.output("bad_mutex"), "processor.bad_mutex");
}

TEST(Pdr, CexTraceReplaysToBad) {
  GateId bad;
  Netlist m = make_chain(3, true, &bad);
  Pdr engine(m, bad, all_regs(m));
  const PdrResult res = engine.run();
  ASSERT_EQ(res.status, PdrStatus::Cex);
  ASSERT_FALSE(res.trace.steps.empty());
  // The trace is in original-design ids: plain 3-valued replay must raise
  // bad at the final cycle, and the independent checker accepts it as a
  // fails-trace witness.
  EXPECT_EQ(simulate_trace(m, res.trace, bad), Tri::T);
  const CertificateArtifact art =
      certify_with_witness(m, bad, "bad", Verdict::Fails, res.trace, {});
  EXPECT_TRUE(art.checked) << art.obligation << ": " << art.detail;
}

TEST(Pdr, PseudoInputAbstractionFindsSpuriousCex) {
  // Restricting the chain to its last register turns r2 into a free
  // pseudo-input, so the (spurious) abstract counterexample is one step.
  GateId bad;
  Netlist m = make_chain(4, false, &bad);
  const std::vector<GateId> regs = all_regs(m);
  Pdr engine(m, bad, {regs.back()});
  const PdrResult res = engine.run();
  EXPECT_EQ(res.status, PdrStatus::Cex);
}

TEST(Pdr, ClosedConeAbstractionProofCertifiesOnFullDesign) {
  // bad watches r0 whose cone is closed under {r0}: the one-register
  // abstraction proves it, and the invariant over that sub-scope must pass
  // the checker against the FULL design (pseudo-input obligations).
  NetBuilder b;
  const GateId r0 = b.reg("r0");
  const GateId r1 = b.reg("r1");
  b.set_next(r0, b.constant(false));
  b.set_next(r1, b.input("in"));
  b.output("bad", r0);
  Netlist m = b.take();
  const GateId bad = m.output("bad");

  Pdr engine(m, bad, {r0});
  const PdrResult res = engine.run();
  ASSERT_EQ(res.status, PdrStatus::Holds);
  EXPECT_EQ(res.scope, std::vector<GateId>{r0});

  PdrInvariantWitness inv;
  inv.present = true;
  inv.registers = res.scope;
  inv.clauses = res.clauses;
  const CertificateBuild build =
      build_holds_certificate_from_invariant(m, bad, "bad", inv);
  ASSERT_TRUE(build.ok) << build.detail;
  const cert::CheckResult check = cert::check_certificate(m, build.certificate);
  EXPECT_TRUE(check.ok) << check.obligation << ": " << check.detail;
}

TEST(Pdr, FrameLimitReportedWhenBoundTooTight) {
  bool ok = false;
  Netlist m = designs::make_builtin("fifo", &ok);
  ASSERT_TRUE(ok);
  const GateId bad = m.find("bad_full_q");
  Pdr engine(m, bad, all_regs(m));
  PdrOptions opt;
  opt.max_frames = 1;
  const PdrResult res = engine.run(opt);
  EXPECT_EQ(res.status, PdrStatus::FrameLimit);
}

TEST(Pdr, CancelledTokenStopsTheRun) {
  bool ok = false;
  Netlist m = designs::make_builtin("processor", &ok);
  ASSERT_TRUE(ok);
  CancelToken token;
  token.cancel();
  Pdr engine(m, m.output("bad_mutex"), all_regs(m));
  const PdrResult res = engine.run({}, &token);
  EXPECT_EQ(res.status, PdrStatus::Cancelled);
}

TEST(Pdr, SessionPdrOnlyProvesWithInvariantWitness) {
  GateId bad;
  Netlist m = make_chain(4, false, &bad);
  RfnOptions opt;
  opt.engines = {"pdr"};
  const RfnResult res = run_property(m, bad, opt);
  ASSERT_EQ(res.verdict, Verdict::Holds);
  ASSERT_TRUE(res.pdr_invariant.present);
  const CertificateArtifact art = certify_with_witness(
      m, bad, "bad", res.verdict, res.error_trace, res.final_registers, {},
      &res.pdr_invariant);
  EXPECT_TRUE(art.built) << art.detail;
  EXPECT_TRUE(art.checked) << art.obligation << ": " << art.detail;
}

TEST(Pdr, SessionPdrOnlyFindsConcreteCex) {
  GateId bad;
  Netlist m = make_chain(3, true, &bad);
  RfnOptions opt;
  opt.engines = {"pdr"};
  const RfnResult res = run_property(m, bad, opt);
  ASSERT_EQ(res.verdict, Verdict::Fails);
  const CertificateArtifact art = certify_with_witness(
      m, bad, "bad", res.verdict, res.error_trace, res.final_registers);
  EXPECT_TRUE(art.checked) << art.obligation << ": " << art.detail;
}

}  // namespace
}  // namespace rfn
