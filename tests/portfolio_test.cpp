// Portfolio race tests: the race rule (lineup order, first conclusive job
// wins, the jobs behind it are skipped), job budgets and the parent token,
// race metrics, and per-engine cancellation hooks.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "atpg/seq_atpg.hpp"
#include "core/hybrid_trace.hpp"
#include "core/portfolio.hpp"
#include "core/rfn.hpp"
#include "designs/builtin.hpp"
#include "designs/fifo.hpp"
#include "mc/image.hpp"
#include "mc/reach.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rfn {
namespace {

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

/// Mod-8 counter with no inputs: state runs 000 -> 111 in 7 steps, and
/// `bad` = r0 & r1 & r2 first rises at cycle 8. The property fails.
Netlist make_counter_fail() {
  NetBuilder b;
  const GateId r0 = b.reg("r0", Tri::F);
  const GateId r1 = b.reg("r1", Tri::F);
  const GateId r2 = b.reg("r2", Tri::F);
  b.set_next(r0, b.not_(r0));
  b.set_next(r1, b.xor_(r1, r0));
  b.set_next(r2, b.xor_(r2, b.and_(r1, r0)));
  b.output("bad", b.and_(r2, b.and_(r1, r0)));
  return b.take();
}

/// Mod-3 counter: states cycle 00 -> 10 -> 01; state 11 is unreachable, so
/// `bad` = r0 & r1 never rises. The property holds.
Netlist make_counter_safe() {
  NetBuilder b;
  const GateId r0 = b.reg("r0", Tri::F);
  const GateId r1 = b.reg("r1", Tri::F);
  b.set_next(r0, b.and_(b.not_(r0), b.not_(r1)));
  b.set_next(r1, r0);
  b.output("bad", b.and_(r0, r1));
  return b.take();
}

/// A job that polls its token every millisecond for up to `ms` and returns
/// `verdict`, or false as soon as it sees the token raised (setting
/// `*saw_cancel`).
PortfolioJob polling_job(const char* name, int ms, bool verdict,
                         bool* saw_cancel) {
  return {name, -1.0, [=](const CancelToken& token) {
            for (int i = 0; i < ms; ++i) {
              if (token.cancelled()) {
                *saw_cancel = true;
                return false;
              }
              sleep_ms(1);
            }
            return verdict;
          }};
}

TEST(Portfolio, FastConclusiveJobCancelsSlowJob) {
  bool slow_ran = false;
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"fast", -1.0, [&](const CancelToken&) {
                    sleep_ms(10);
                    return true;
                  }});
  // Would run ~5 s; the verdict ahead of it means it never starts.
  jobs.push_back({"slow", -1.0, [&](const CancelToken&) {
                    slow_ran = true;
                    sleep_ms(5000);
                    return false;
                  }});
  const RaceResult r = race(jobs);
  EXPECT_TRUE(r.conclusive);
  EXPECT_EQ(r.winner, 0u);
  EXPECT_EQ(r.winner_name, "fast");
  EXPECT_LT(r.seconds, 1.0);
  EXPECT_EQ(r.cancelled, 1u);
  EXPECT_EQ(r.launched, 1u);
  EXPECT_FALSE(slow_ran);
}

TEST(Portfolio, ConclusiveJobWaitsForRunningJobAhead) {
  bool ahead_saw_cancel = false;
  bool ahead_done = false;
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"ahead", -1.0, [&](const CancelToken& token) {
                    sleep_ms(50);
                    ahead_saw_cancel = token.cancelled();
                    ahead_done = true;
                    return false;
                  }});
  jobs.push_back({"behind", -1.0, [](const CancelToken&) { return true; }});
  const RaceResult r = race(jobs);
  EXPECT_TRUE(ahead_done);
  EXPECT_FALSE(ahead_saw_cancel);
  EXPECT_EQ(r.winner, 1u);
  EXPECT_GE(r.seconds, 0.05);
  EXPECT_EQ(r.launched, 2u);
  EXPECT_EQ(r.cancelled, 0u);
}

TEST(Portfolio, EarlierConclusiveJobBeatsLaterOneThatFinishedFirst) {
  // The later job would answer first if both ran at once; in lineup order
  // it is never computed.
  bool saw_cancel = false;
  std::vector<PortfolioJob> jobs;
  jobs.push_back(polling_job("slow-verdict", 50, true, &saw_cancel));
  jobs.push_back({"fast-verdict", -1.0,
                  [](const CancelToken&) { return true; }});
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const RaceResult r = race(jobs);
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
  EXPECT_FALSE(saw_cancel);
  EXPECT_EQ(r.winner, 0u);
  EXPECT_EQ(r.winner_name, "slow-verdict");
  EXPECT_EQ(r.cancelled, 1u);
  EXPECT_EQ(d.value("portfolio.wins.fast-verdict"), 0.0);
  EXPECT_EQ(d.value("engine.cpu.fast-verdict.count"), 0.0);
}

TEST(Portfolio, WinnerNeverCancelsJobsAhead) {
  bool ahead_saw_cancel = false;
  bool behind_saw_cancel = false;
  std::vector<PortfolioJob> jobs;
  jobs.push_back(polling_job("ahead", 50, false, &ahead_saw_cancel));
  jobs.push_back({"winner", -1.0, [](const CancelToken&) { return true; }});
  jobs.push_back(polling_job("behind", 5000, false, &behind_saw_cancel));
  const RaceResult r = race(jobs);
  EXPECT_FALSE(ahead_saw_cancel);
  EXPECT_EQ(r.winner, 1u);
  EXPECT_LT(r.seconds, 1.0);
  EXPECT_EQ(r.cancelled, 1u);
}

TEST(Portfolio, SequentialDegradationRunsInPriorityOrder) {
  std::vector<int> order;
  auto recording_job = [&](int id, bool conclusive) {
    return PortfolioJob{"job" + std::to_string(id), -1.0,
                        [&order, id, conclusive](const CancelToken&) {
                          order.push_back(id);
                          return conclusive;
                        }};
  };
  std::vector<PortfolioJob> jobs;
  jobs.push_back(recording_job(0, false));  // inconclusive, runs first
  jobs.push_back(recording_job(1, true));   // wins
  jobs.push_back(recording_job(2, true));   // behind the winner: skipped
  const RaceResult r = race(jobs);
  EXPECT_TRUE(r.conclusive);
  EXPECT_EQ(r.winner, 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(r.launched, 2u);
  EXPECT_EQ(r.cancelled, 1u);
}

// A job whose own budget expires is inconclusive, not cancelled: the race
// moves on to the next job in the lineup.
TEST(Portfolio, JobBudgetExpiresWithoutWinner) {
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"budgeted", 0.05, [&](const CancelToken& token) {
                    for (int i = 0; i < 5000; ++i) {
                      if (token.cancelled()) return false;  // budget expired
                      sleep_ms(1);
                    }
                    ADD_FAILURE() << "budget never expired";
                    return false;
                  }});
  bool next_ran = false;
  jobs.push_back({"next", -1.0, [&](const CancelToken& token) {
                    next_ran = true;
                    EXPECT_FALSE(token.cancelled());
                    return false;
                  }});
  const Stopwatch watch;
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const RaceResult r = race(jobs);
  EXPECT_FALSE(r.conclusive);
  EXPECT_LT(watch.seconds(), 2.0);
  EXPECT_TRUE(next_ran);
  EXPECT_EQ(r.launched, 2u);
  EXPECT_EQ(r.cancelled, 0u);
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
  EXPECT_EQ(d.value("portfolio.jobs_inconclusive"), 2.0);
  EXPECT_EQ(d.value("portfolio.jobs_cancelled"), 0.0);
}

TEST(Portfolio, CancelledParentTokenSkipsAllJobs) {
  CancelToken parent;
  parent.cancel();
  int ran = 0;
  std::vector<PortfolioJob> jobs;
  for (int i = 0; i < 3; ++i)
    jobs.push_back({"j" + std::to_string(i), -1.0, [&](const CancelToken&) {
                      ++ran;
                      return true;
                    }});
  const RaceResult r = race(jobs, &parent);
  EXPECT_FALSE(r.conclusive);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(r.launched, 0u);
  EXPECT_EQ(r.cancelled, 3u);
}

// Raised while a job runs, the parent token reaches it through the job's own
// token: the job counts as cancelled and the jobs behind it are skipped.
TEST(Portfolio, ParentCancelledMidRaceCutsRunningJob) {
  CancelToken parent;
  bool saw_cancel = false;
  bool behind_ran = false;
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"running", -1.0, [&](const CancelToken& token) {
                    parent.cancel();
                    saw_cancel = token.cancelled();
                    return false;
                  }});
  jobs.push_back({"behind", -1.0, [&](const CancelToken&) {
                    behind_ran = true;
                    return true;
                  }});
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const RaceResult r = race(jobs, &parent);
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
  EXPECT_FALSE(r.conclusive);
  EXPECT_TRUE(saw_cancel);
  EXPECT_FALSE(behind_ran);
  EXPECT_EQ(r.launched, 1u);
  EXPECT_EQ(r.cancelled, 2u);
  EXPECT_EQ(d.value("portfolio.jobs_inconclusive"), 0.0);
}

TEST(Portfolio, StatsAccumulateAcrossRaces) {
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"alpha", -1.0, [](const CancelToken&) { return true; }});
  jobs.push_back({"beta", -1.0, [](const CancelToken&) { return true; }});
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  race(jobs);
  race(jobs);
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
  EXPECT_EQ(d.value("portfolio.races"), 2.0);
  EXPECT_EQ(d.value("portfolio.jobs_launched"), 2.0);   // alpha wins;
  EXPECT_EQ(d.value("portfolio.jobs_cancelled"), 2.0);  // beta never starts
  EXPECT_EQ(d.value("portfolio.wins.alpha"), 2.0);
  EXPECT_EQ(d.value("portfolio.wins.beta"), 0.0);
  EXPECT_GE(d.value("portfolio.race.seconds"), 0.0);
}

TEST(Portfolio, EngineCancellationHooks) {
  const Netlist m = make_counter_fail();
  const GateId bad = m.output("bad");
  CancelToken tok;
  tok.cancel();

  BddMgr mgr;
  Encoder enc(mgr, m);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.exists(enc.signal_fn(bad), enc.input_vars());

  // BDD reachability: a cancelled fixpoint reports ResourceOut.
  ReachOptions ro;
  ro.cancel = &tok;
  EXPECT_EQ(forward_reach(img, enc.initial_states(), bad_set, ro).status,
            ReachStatus::ResourceOut);

  // Sequential ATPG: a cancelled search reports Abort.
  AtpgOptions ao;
  ao.cancel = &tok;
  EXPECT_EQ(reach_target(m, 8, bad, true, {}, ao).status, AtpgStatus::Abort);

  // Hybrid trace engine: a cancelled walk yields no trace.
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_EQ(reach.status, ReachStatus::BadReachable);
  HybridTraceOptions ho;
  ho.cancel = &tok;
  EXPECT_TRUE(hybrid_error_trace(enc, m, reach, bad_set, ho).empty());

  // 3-valued simulation: a cancelled eval() reports stopped(), and a
  // cancelled trace replay answers X.
  Sim3 sim(m);
  sim.set_should_stop(&tok);
  sim.load_initial_state();
  sim.eval();
  EXPECT_TRUE(sim.stopped());
  const SeqAtpgResult found = reach_target(m, 8, bad, true);
  ASSERT_EQ(found.status, AtpgStatus::Sat);
  EXPECT_EQ(simulate_trace(m, found.trace, bad, &tok), Tri::X);
}

// Race real engines against each other: the formal engine leads the lineup
// and concludes on both designs, so it decides and seq-atpg never runs.
TEST(Portfolio, EngineRaceVerdictsAgree) {
  for (const bool fails : {true, false}) {
    const Netlist m = fails ? make_counter_fail() : make_counter_safe();
    const GateId bad = m.output("bad");
    BddMgr mgr;
    Encoder enc(mgr, m);
    ImageComputer img(enc);
    const Bdd bad_set = mgr.exists(enc.signal_fn(bad), enc.input_vars());
    ReachResult reach;
    bool atpg_ran = false;
    std::vector<PortfolioJob> jobs;
    jobs.push_back({"bdd-reach", -1.0, [&](const CancelToken& token) {
                      ReachOptions ro;
                      ro.cancel = &token;
                      reach = forward_reach(img, enc.initial_states(), bad_set, ro);
                      return reach.status != ReachStatus::ResourceOut;
                    }});
    jobs.push_back({"seq-atpg", -1.0, [&](const CancelToken& token) {
                      atpg_ran = true;
                      AtpgOptions ao;
                      ao.cancel = &token;
                      return reach_target(m, 10, bad, true, {}, ao).status ==
                             AtpgStatus::Sat;
                    }});
    const RaceResult r = race(jobs);
    ASSERT_TRUE(r.conclusive) << "fails=" << fails;
    EXPECT_EQ(r.winner_name, "bdd-reach");
    EXPECT_EQ(reach.status,
              fails ? ReachStatus::BadReachable : ReachStatus::Proved);
    EXPECT_FALSE(atpg_ran);
  }
}

// The full lineup reaches the verdicts, iterations and abstractions of the
// paper's own engines alone (BDD reachability, guided ATPG): on these
// designs they win every race, so the later engines never decide.
TEST(Portfolio, RfnPortfolioAgreesWithSequential) {
  struct Case {
    Netlist netlist;
    GateId bad;
    Verdict expect;
  };
  std::vector<Case> cases;
  {
    Netlist m = make_counter_fail();
    const GateId bad = m.output("bad");
    cases.push_back({std::move(m), bad, Verdict::Fails});
  }
  {
    Netlist m = make_counter_safe();
    const GateId bad = m.output("bad");
    cases.push_back({std::move(m), bad, Verdict::Holds});
  }
  {
    designs::FifoDesign fifo = designs::make_fifo({.addr_bits = 2, .data_bits = 2});
    const GateId bad = fifo.bad_push_full;
    cases.push_back({std::move(fifo.netlist), bad, Verdict::Holds});
  }
  using Engines = std::vector<std::string>;
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    std::vector<RfnResult> results;
    for (const Engines& engines : {Engines{}, Engines{"bdd", "atpg"}}) {
      RfnOptions opt;
      opt.engines = engines;
      const MetricsSnapshot before = MetricsRegistry::global().snapshot();
      results.push_back(run_property(c.netlist, c.bad, opt));
      const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
      EXPECT_GE(d.value("portfolio.races"), 1.0) << "case " << ci;
    }
    for (const RfnResult& r : results) {
      EXPECT_EQ(r.verdict, c.expect) << "case " << ci << " note: " << r.note;
      if (r.verdict == Verdict::Fails)
        EXPECT_EQ(simulate_trace(c.netlist, r.error_trace, c.bad), Tri::T)
            << "case " << ci;
    }
    EXPECT_EQ(results[0].verdict, results[1].verdict) << "case " << ci;
    EXPECT_EQ(results[0].iterations, results[1].iterations) << "case " << ci;
    EXPECT_EQ(results[0].final_registers, results[1].final_registers)
        << "case " << ci;
  }
}

// The RFN races field bdd-reach / sat-bmc / pdr in Step 2 and guided-atpg /
// sat-bmc / pdr in Step 3, nothing else: every race winner is in its
// lineup, and no engine outside it burns CPU or wins.
TEST(Portfolio, RunRacesOnlyTheLineup) {
  bool ok = false;
  const Netlist m = designs::make_builtin("processor", &ok);
  ASSERT_TRUE(ok);
  const std::vector<std::string> step2 = {"bdd-reach", "sat-bmc", "pdr"};
  const std::vector<std::string> step3 = {"", "guided-atpg", "sat-bmc", "pdr"};
  const auto in = [](const std::vector<std::string>& lineup,
                     const std::string& winner) {
    return std::find(lineup.begin(), lineup.end(), winner) != lineup.end();
  };
  using Engines = std::vector<std::string>;
  for (const Engines& engines : {Engines{}, Engines{"bdd", "sat", "pdr"}}) {
    SCOPED_TRACE(engines.empty() ? "default lineup" : "bdd,sat,pdr");
    RfnOptions opt;
    opt.engines = engines;
    opt.time_limit_s = 120.0;
    MetricsRegistry::global().reset();
    const RfnResult res = run_property(m, m.output("bad_mutex"), opt);
    EXPECT_EQ(res.verdict, Verdict::Holds) << res.note;

    const MetricsSnapshot s = MetricsRegistry::global().snapshot();
    EXPECT_GT(s.value("engine.cpu.bdd-reach.count"), 0.0);
    for (const std::string job : {"rand-sim", "seq-atpg"}) {
      EXPECT_EQ(s.value("engine.cpu." + job + ".count"), 0.0) << job;
      EXPECT_EQ(s.value("portfolio.wins." + job), 0.0) << job;
    }
    // An iteration that ends in Step 2 has no Step-3 winner.
    ASSERT_FALSE(res.per_iteration.empty());
    for (size_t i = 0; i < res.per_iteration.size(); ++i) {
      const RfnIteration& it = res.per_iteration[i];
      EXPECT_TRUE(in(step2, it.abstract_engine))
          << "iteration " << i << " abstract winner " << it.abstract_engine;
      EXPECT_TRUE(in(step3, it.concretize_engine))
          << "iteration " << i << " concretize winner " << it.concretize_engine;
    }
  }
}

}  // namespace
}  // namespace rfn
