// SAT subsystem tests: the CDCL solver's incremental-assumption contract,
// the BMC encoder's enable/trigger semantics on hand-built netlists, and the
// engine's integration contract with the CEGAR loop —
//
//   * solver: models, UNSAT assumption cores (final_conflict), incremental
//     re-solving after new clauses/variables, level-0 inconsistency (ok()),
//     cooperative cancellation that leaves the instance usable;
//   * BMC: exact shortest-trace depths on a counter, pseudo-input semantics
//     of excluded registers (abstraction by assumption flips), bounded
//     UNSAT, trace replay and certification, one instance reused across
//     depths, register sets and roots;
//   * loop: Step-3 concretization by SAT BMC and by guided ATPG reaches
//     the same verdict on random designs, and RfnOptions::validate rejects
//     unknown engine names.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/certificate.hpp"
#include "core/rfn.hpp"
#include "netlist/builder.hpp"
#include "sat/bmc.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "sim/sim3.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

#include "random_netlist.hpp"

namespace rfn {
namespace {

using sat::Lit;
using sat::Solver;

TEST(SatSolver, SatisfiableModel) {
  Solver s;
  const Lit a = Lit::make(s.new_var());
  const Lit b = Lit::make(s.new_var());
  ASSERT_TRUE(s.add_clause({a}));
  ASSERT_TRUE(s.add_clause({~a, b}));
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_EQ(s.lit_value(a), sat::LBool::True);
  EXPECT_EQ(s.lit_value(b), sat::LBool::True);
}

TEST(SatSolver, AssumptionCoreNamesOnlyUsedAssumptions) {
  Solver s;
  const Lit a = Lit::make(s.new_var());
  const Lit b = Lit::make(s.new_var());
  const Lit c = Lit::make(s.new_var());
  // a and b are jointly contradictory; c is irrelevant.
  ASSERT_TRUE(s.add_clause({~a, ~b}));
  ASSERT_EQ(s.solve({a, b, c}), Solver::Result::Unsat);
  std::vector<Lit> core = s.final_conflict();
  EXPECT_EQ(core.size(), 2u);
  EXPECT_NE(std::find(core.begin(), core.end(), a), core.end());
  EXPECT_NE(std::find(core.begin(), core.end(), b), core.end());
  EXPECT_EQ(std::find(core.begin(), core.end(), c), core.end());
  // The formula without the assumptions is still satisfiable: incremental
  // re-solve must succeed on the same instance.
  ASSERT_EQ(s.solve({a, c}), Solver::Result::Sat);
  EXPECT_EQ(s.lit_value(b), sat::LBool::False);
}

TEST(SatSolver, IncrementalClausesAndVariables) {
  Solver s;
  std::vector<Lit> chain;
  for (int i = 0; i < 8; ++i) chain.push_back(Lit::make(s.new_var()));
  for (size_t i = 0; i + 1 < chain.size(); ++i)
    ASSERT_TRUE(s.add_clause({~chain[i], chain[i + 1]}));  // chain[i] -> chain[i+1]
  ASSERT_EQ(s.solve({chain.front()}), Solver::Result::Sat);
  for (const Lit l : chain) EXPECT_EQ(s.lit_value(l), sat::LBool::True);

  // Close the contradiction after the first solve; the head assumption is
  // now refutable and the core is exactly that assumption.
  ASSERT_TRUE(s.add_clause({~chain.back()}));
  ASSERT_EQ(s.solve({chain.front()}), Solver::Result::Unsat);
  ASSERT_EQ(s.final_conflict().size(), 1u);
  EXPECT_EQ(s.final_conflict().front(), chain.front());

  // Fresh variables after solves keep working.
  const Lit d = Lit::make(s.new_var());
  ASSERT_TRUE(s.add_clause({d}));
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_EQ(s.lit_value(d), sat::LBool::True);
}

TEST(SatSolver, LevelZeroConflictTurnsOkFalse) {
  Solver s;
  const Lit a = Lit::make(s.new_var());
  ASSERT_TRUE(s.add_clause({a}));
  EXPECT_FALSE(s.add_clause({~a}));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.solve(), Solver::Result::Unsat);
  EXPECT_TRUE(s.final_conflict().empty());
}

TEST(SatSolver, CancellationLeavesInstanceUsable) {
  // A pre-cancelled token must yield Undef without corrupting state; the
  // same instance then answers the query once the pressure is lifted.
  Solver s;
  std::vector<Lit> pigeons;
  // Pigeonhole instance (7 pigeons, 6 holes): resolution-hard enough that
  // the solver cannot answer before its first cancellation poll (every 256
  // search steps).
  const int np = 7, nh = 6;
  std::vector<std::vector<Lit>> p(np, std::vector<Lit>(nh));
  for (int i = 0; i < np; ++i)
    for (int j = 0; j < nh; ++j) p[i][j] = Lit::make(s.new_var());
  for (int i = 0; i < np; ++i) {
    std::vector<Lit> at_least = p[i];
    ASSERT_TRUE(s.add_clause(std::move(at_least)));
  }
  for (int j = 0; j < nh; ++j)
    for (int i = 0; i < np; ++i)
      for (int k = i + 1; k < np; ++k) ASSERT_TRUE(s.add_clause({~p[i][j], ~p[k][j]}));

  CancelToken cancelled;
  cancelled.cancel();
  EXPECT_EQ(s.solve({}, &cancelled), Solver::Result::Undef);
  EXPECT_TRUE(s.ok());

  CancelToken open;
  EXPECT_EQ(s.solve({}, &open), Solver::Result::Unsat);
}

/// 2-bit binary counter starting at 0; "bad" is the all-ones state, first
/// reached at cycle 4 (state after 3 steps). b1's next-state depends on b0,
/// so freeing b0 (excluding it from the abstraction) shortens the trace.
Netlist counter2() {
  NetBuilder b;
  const GateId b0 = b.reg("b0", Tri::F);
  const GateId b1 = b.reg("b1", Tri::F);
  b.set_next(b0, b.not_(b0));
  b.set_next(b1, b.xor_(b1, b0));
  b.output("bad", b.and_(b0, b1));
  return b.take();
}

TEST(SatBmcTest, CounterDepthsMatchStateDistance) {
  const Netlist m = counter2();
  const GateId bad = m.output("bad");
  SatBmc bmc(m);
  const std::vector<GateId> all = m.regs();

  // Full abstraction: 11 is the 4th counter state (frames are 1-based).
  const SatBmcResult full = bmc.check(bad, 8, all);
  ASSERT_EQ(full.status, AtpgStatus::Sat);
  EXPECT_EQ(full.depth, 4u);
  EXPECT_EQ(full.trace.cycles(), 4u);
  EXPECT_EQ(simulate_trace(m, full.trace, bad), Tri::T);
  EXPECT_TRUE(certify_with_witness(m, bad, "bad", Verdict::Fails, full.trace, {})
                  .checked);

  // b1 free: bad needs only b0 = 1 with b1 chosen 1, reachable at cycle 2.
  std::vector<GateId> only_b0 = {all[0]};
  const SatBmcResult abs = bmc.check(bad, 8, only_b0);
  ASSERT_EQ(abs.status, AtpgStatus::Sat);
  EXPECT_EQ(abs.depth, 2u);

  // Both free: cycle 1.
  const SatBmcResult free_all = bmc.check(bad, 8, {});
  ASSERT_EQ(free_all.status, AtpgStatus::Sat);
  EXPECT_EQ(free_all.depth, 1u);
}

TEST(SatBmcTest, BoundedUnsatThenDeeperSat) {
  const Netlist m = counter2();
  const GateId bad = m.output("bad");
  SatBmc bmc(m);
  const std::vector<GateId> all = m.regs();

  // No trace of length <= 3 exists with both registers constrained.
  const SatBmcResult r = bmc.check(bad, 3, all);
  ASSERT_EQ(r.status, AtpgStatus::Unsat);
  EXPECT_EQ(r.depth, 3u);

  // Same instance, deeper bound: the learned clauses stay valid and the
  // answer flips to Sat at the true distance.
  const SatBmcResult deeper = bmc.check(bad, 4, all);
  ASSERT_EQ(deeper.status, AtpgStatus::Sat);
  EXPECT_EQ(deeper.depth, 4u);
}

TEST(SatBmcTest, CancelledCheckAborts) {
  const Netlist m = counter2();
  SatBmc bmc(m);
  CancelToken cancelled;
  cancelled.cancel();
  const SatBmcResult r = bmc.check(m.output("bad"), 8, m.regs(), &cancelled);
  EXPECT_EQ(r.status, AtpgStatus::Abort);
  // The instance survives cancellation and answers the next call.
  const SatBmcResult again = bmc.check(m.output("bad"), 8, m.regs());
  EXPECT_EQ(again.status, AtpgStatus::Sat);
  EXPECT_EQ(again.depth, 4u);
}

TEST(SatBmcTest, OneInstanceServesMultipleRoots) {
  // Two properties of one design answered by one instance: adding the
  // second root back-fills its cone into the frames the first root built.
  NetBuilder b;
  const GateId b0 = b.reg("b0", Tri::F);
  const GateId b1 = b.reg("b1", Tri::F);
  b.set_next(b0, b.not_(b0));
  b.set_next(b1, b.xor_(b1, b0));
  const GateId bad_both = b.and_(b0, b1);
  b.output("bad_both", bad_both);
  const GateId bad_b1 = b.and_(b1, b.not_(b0));
  b.output("bad_b1", bad_b1);
  const Netlist m = b.take();

  SatBmc bmc(m);
  const SatBmcResult r1 = bmc.check(m.output("bad_both"), 8, m.regs());
  ASSERT_EQ(r1.status, AtpgStatus::Sat);
  EXPECT_EQ(r1.depth, 4u);
  // 10 is the 3rd counter state.
  const SatBmcResult r2 = bmc.check(m.output("bad_b1"), 8, m.regs());
  ASSERT_EQ(r2.status, AtpgStatus::Sat);
  EXPECT_EQ(r2.depth, 3u);
  EXPECT_EQ(simulate_trace(m, r2.trace, m.output("bad_b1")), Tri::T);
}

TEST(SatLoop, SatAndAtpgConcretizationAgreeOnVerdicts) {
  // With the race lineup pinned to bdd+sat, Step 3 is decided by SAT BMC;
  // with bdd+atpg, by guided ATPG. Both are sound, so the verdicts agree.
  Rng rng(20260805);
  for (int round = 0; round < 12; ++round) {
    const Netlist m =
        random_netlist(rng, 1 + rng.below(3), 4 + rng.below(3),
                       12 + static_cast<int>(rng.below(10)));
    const GateId bad = m.output("bad");
    Verdict verdicts[2];
    for (const bool sat : {false, true}) {
      RfnOptions opt;
      opt.engines = {"bdd", sat ? "sat" : "atpg"};
      verdicts[sat ? 1 : 0] = run_property(m, bad, opt).verdict;
    }
    EXPECT_EQ(verdicts[0], verdicts[1]) << "sat and atpg disagree (round "
                                        << round << ")";
    EXPECT_NE(verdicts[0], Verdict::Unknown) << "round " << round;
  }
}

TEST(SatOptions, ValidateRejectsUnknownEngines) {
  RfnOptions opt;
  opt.engines = {"bdd", "sat"};
  EXPECT_TRUE(opt.validate().empty());

  opt.engines = {"bdd", "bogus"};
  const std::vector<std::string> msgs = opt.validate();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_NE(msgs.front().find("unknown engine \"bogus\""), std::string::npos);
  // The rejection must spell out the whole valid engine set so a typo is
  // self-correcting from the message alone.
  for (const char* engine : {"bdd", "atpg", "sat", "pdr"})
    EXPECT_NE(msgs.front().find(engine), std::string::npos)
        << "message does not name engine \"" << engine
        << "\": " << msgs.front();

  // "sim" is not an engine name.
  opt.engines = {"bdd", "sim"};
  const std::vector<std::string> sim = opt.validate();
  ASSERT_EQ(sim.size(), 1u);
  EXPECT_NE(sim.front().find("unknown engine \"sim\""), std::string::npos);

  // A list with no Step-2 engine could only end Unknown: refused, naming
  // the engines that can run Step 2.
  opt.engines = {"atpg"};
  const std::vector<std::string> empty_step2 = opt.validate();
  ASSERT_EQ(empty_step2.size(), 1u);
  EXPECT_NE(empty_step2.front().find("Step 2"), std::string::npos);
  EXPECT_NE(empty_step2.front().find("bdd,sat,pdr"), std::string::npos)
      << empty_step2.front();
  for (const char* step2 : {"bdd", "sat", "pdr"}) {
    opt.engines = {"atpg", step2};
    EXPECT_TRUE(opt.validate().empty()) << step2;
  }
}

TEST(SatOptions, EngineEnabledDefaultsToAll) {
  RfnOptions opt;
  EXPECT_TRUE(opt.engine_enabled("bdd"));
  EXPECT_TRUE(opt.engine_enabled("sat"));
  opt.engines = {"sat"};
  EXPECT_TRUE(opt.engine_enabled("sat"));
  EXPECT_FALSE(opt.engine_enabled("bdd"));
}

}  // namespace
}  // namespace rfn
