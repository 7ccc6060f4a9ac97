// Tests for the IC3/PDR engine (src/pdr): unbounded Holds with the
// inductive frame discharged through the independent rfn-cert-v1 checker,
// counterexample traces that replay, pseudo-input abstraction semantics,
// frame/cancellation limits, the session-level `pdr` racer, and the
// proof-based shrink step it unlocks in core/refine.

#include "pdr/pdr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cert/check.hpp"
#include "core/certificate.hpp"
#include "core/refine.hpp"
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

TEST(Refine, ShrinkDropsNonCoreAndMarksSticky) {
  std::vector<GateId> included = {1, 3, 5, 7};
  std::vector<bool> sticky(10, false);
  sticky[1] = true;  // initial-abstraction register: never droppable
  const std::vector<GateId> core = {5};
  EXPECT_EQ(shrink_abstraction(&included, core, &sticky), 2u);
  EXPECT_EQ(included, (std::vector<GateId>{1, 5}));
  // Dropped registers became sticky so a later re-add can never re-drop.
  EXPECT_TRUE(sticky[3]);
  EXPECT_TRUE(sticky[7]);
  EXPECT_FALSE(sticky[5]);

  included = {1, 3, 5};  // refinement re-added 3
  EXPECT_EQ(shrink_abstraction(&included, {}, &sticky), 1u);
  EXPECT_EQ(included, (std::vector<GateId>{1, 3}));  // 3 survived via sticky
}

TEST(Refine, ProofShrinkDropsRegistersOnProcessor) {
  // The acceptance run: the processor mutex property refines through a
  // dozen-plus iterations, and with proof_shrink the bounded-UNSAT cores
  // demonstrably drop registers the proofs never touched — with the same
  // final verdict. workers = 0 keeps the race order (and so the exact
  // shrink count) deterministic.
  bool ok = false;
  Netlist m = designs::make_builtin("processor", &ok);
  ASSERT_TRUE(ok);
  const GateId bad = m.output("bad_mutex");
  RfnOptions opt;
  opt.engines = {"bdd", "sat"};
  opt.portfolio_workers = 0;
  opt.proof_shrink = true;
  const RfnResult res = run_property(m, bad, opt);
  EXPECT_EQ(res.verdict, Verdict::Holds);
  size_t total_shrunk = 0;
  for (const RfnIteration& it : res.per_iteration)
    total_shrunk += it.shrunk_registers;
  EXPECT_GE(total_shrunk, 1u)
      << "proof shrink never dropped a register on the processor CEGAR run";
}

TEST(Refine, ProofShrinkNeverFlipsVerdicts) {
  // The property-tested invariant: grow/shrink and grow-only agree on every
  // verdict. Exercised on designs that refine (input-driven chains fail,
  // constant chains hold) plus a builtin with a non-trivial CEGAR loop.
  struct Case {
    Netlist m;
    GateId bad;
  };
  std::vector<Case> cases;
  {
    GateId bad;
    Netlist m = make_chain(5, false, &bad);
    cases.push_back({std::move(m), bad});
  }
  {
    GateId bad;
    Netlist m = make_chain(4, true, &bad);
    cases.push_back({std::move(m), bad});
  }
  {
    bool ok = false;
    Netlist m = designs::make_builtin("processor", &ok);
    ASSERT_TRUE(ok);
    const GateId bad = m.output("bad_mutex");
    cases.push_back({std::move(m), bad});
  }
  for (auto& c : cases) {
    RfnOptions grow_only;
    RfnOptions grow_shrink;
    grow_shrink.proof_shrink = true;
    const RfnResult ra = run_property(c.m, c.bad, grow_only);
    const RfnResult rb = run_property(c.m, c.bad, grow_shrink);
    EXPECT_EQ(ra.verdict, rb.verdict);
  }
}

}  // namespace
}  // namespace rfn
