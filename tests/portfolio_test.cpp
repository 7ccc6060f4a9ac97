// Portfolio scheduler tests: the race rule (the first conclusive job in
// lineup order wins at every worker count), cancellation latency,
// sequential degradation, per-engine cancellation hooks, and the
// one-BddMgr-per-worker ownership rule (exercised under TSan via
// -DRFN_SANITIZE=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
                         std::atomic<bool>* saw_cancel) {
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
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}}) {
    Portfolio p(workers);
    std::atomic<bool> slow_saw_cancel{false};
    std::vector<PortfolioJob> jobs;
    jobs.push_back({"fast", -1.0, [&](const CancelToken&) {
                      sleep_ms(10);
                      return true;
                    }});
    // Would run ~5 s; must be cut short by the winner ahead of it well
    // within its 1 ms polling granularity.
    jobs.push_back(polling_job("slow", 5000, false, &slow_saw_cancel));
    const RaceResult r = p.race(jobs);
    EXPECT_TRUE(r.conclusive) << "workers=" << workers;
    EXPECT_EQ(r.winner, 0u) << "workers=" << workers;
    EXPECT_EQ(r.winner_name, "fast") << "workers=" << workers;
    // Cancellation latency: the race ends when the slow job notices the
    // token, which is bounded by its poll period, not by its 5 s natural
    // runtime. Sequentially the slow job never starts.
    EXPECT_LT(r.seconds, 1.0) << "workers=" << workers;
    EXPECT_EQ(r.cancelled, 1u) << "workers=" << workers;
    EXPECT_EQ(r.launched, workers < 2 ? 1u : 2u) << "workers=" << workers;
    EXPECT_EQ(slow_saw_cancel.load(), workers >= 2) << "workers=" << workers;
  }
}

TEST(Portfolio, ConclusiveJobWaitsForRunningJobAhead) {
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}}) {
    Portfolio p(workers);
    std::atomic<bool> ahead_saw_cancel{false};
    std::atomic<bool> ahead_done{false};
    std::vector<PortfolioJob> jobs;
    jobs.push_back({"ahead", -1.0, [&](const CancelToken& token) {
                      sleep_ms(50);
                      ahead_saw_cancel = token.cancelled();
                      ahead_done = true;
                      return false;
                    }});
    jobs.push_back({"behind", -1.0, [](const CancelToken&) { return true; }});
    const RaceResult r = p.race(jobs);
    EXPECT_TRUE(ahead_done.load()) << "workers=" << workers;
    EXPECT_FALSE(ahead_saw_cancel.load()) << "workers=" << workers;
    EXPECT_EQ(r.winner, 1u) << "workers=" << workers;
    EXPECT_GE(r.seconds, 0.05) << "workers=" << workers;
    EXPECT_EQ(r.launched, 2u) << "workers=" << workers;
    EXPECT_EQ(r.cancelled, 0u) << "workers=" << workers;
  }
}

TEST(Portfolio, EarlierConclusiveJobBeatsLaterOneThatFinishedFirst) {
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}}) {
    Portfolio p(workers);
    std::atomic<bool> saw_cancel{false};
    std::vector<PortfolioJob> jobs;
    jobs.push_back(polling_job("slow-verdict", 50, true, &saw_cancel));
    jobs.push_back({"fast-verdict", -1.0,
                    [](const CancelToken&) { return true; }});
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    const RaceResult r = p.race(jobs);
    const MetricsSnapshot d =
        MetricsRegistry::global().snapshot().delta(before);
    EXPECT_FALSE(saw_cancel.load()) << "workers=" << workers;
    EXPECT_EQ(r.winner, 0u) << "workers=" << workers;
    EXPECT_EQ(r.winner_name, "slow-verdict") << "workers=" << workers;
    // Threaded, the later verdict arrives first and is discarded;
    // sequentially it is never computed.
    EXPECT_EQ(r.cancelled, 1u) << "workers=" << workers;
    EXPECT_EQ(d.value("portfolio.wins.fast-verdict"), 0.0)
        << "workers=" << workers;
  }
}

TEST(Portfolio, WinnerNeverCancelsJobsAhead) {
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}}) {
    Portfolio p(workers);
    std::atomic<bool> ahead_saw_cancel{false};
    std::atomic<bool> behind_saw_cancel{false};
    std::vector<PortfolioJob> jobs;
    jobs.push_back(polling_job("ahead", 50, false, &ahead_saw_cancel));
    jobs.push_back({"winner", -1.0, [](const CancelToken&) { return true; }});
    jobs.push_back(polling_job("behind", 5000, false, &behind_saw_cancel));
    const RaceResult r = p.race(jobs);
    EXPECT_FALSE(ahead_saw_cancel.load()) << "workers=" << workers;
    EXPECT_EQ(r.winner, 1u) << "workers=" << workers;
    EXPECT_LT(r.seconds, 1.0) << "workers=" << workers;
    EXPECT_EQ(r.cancelled, 1u) << "workers=" << workers;
  }
}

TEST(Portfolio, SequentialDegradationRunsInPriorityOrder) {
  for (const size_t workers : {size_t{0}, size_t{1}}) {
    Portfolio p(workers);
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
    const RaceResult r = p.race(jobs);
    EXPECT_TRUE(r.conclusive) << "workers=" << workers;
    EXPECT_EQ(r.winner, 1u) << "workers=" << workers;
    EXPECT_EQ(order, (std::vector<int>{0, 1})) << "workers=" << workers;
    EXPECT_EQ(r.launched, 2u) << "workers=" << workers;
    EXPECT_EQ(r.cancelled, 1u) << "workers=" << workers;
  }
}

TEST(Portfolio, JobBudgetExpiresWithoutWinner) {
  Portfolio p(2);
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"budgeted", 0.05, [&](const CancelToken& token) {
                    for (int i = 0; i < 5000; ++i) {
                      if (token.cancelled()) return false;  // budget expired
                      sleep_ms(1);
                    }
                    ADD_FAILURE() << "budget never expired";
                    return false;
                  }});
  const Stopwatch watch;
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const RaceResult r = p.race(jobs);
  EXPECT_FALSE(r.conclusive);
  EXPECT_LT(watch.seconds(), 2.0);
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
  EXPECT_EQ(d.value("portfolio.jobs_inconclusive"), 1.0);
}

TEST(Portfolio, CancelledParentTokenSkipsAllJobs) {
  Portfolio p(2);
  CancelToken parent;
  parent.cancel();
  std::atomic<int> ran{0};
  std::vector<PortfolioJob> jobs;
  for (int i = 0; i < 3; ++i)
    jobs.push_back({"j" + std::to_string(i), -1.0, [&](const CancelToken&) {
                      ++ran;
                      return true;
                    }});
  const RaceResult r = p.race(jobs, &parent);
  EXPECT_FALSE(r.conclusive);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(r.launched, 0u);
  EXPECT_EQ(r.cancelled, 3u);
}

TEST(Portfolio, StatsAccumulateAcrossRaces) {
  Portfolio p(0);
  std::vector<PortfolioJob> jobs;
  jobs.push_back({"alpha", -1.0, [](const CancelToken&) { return true; }});
  jobs.push_back({"beta", -1.0, [](const CancelToken&) { return true; }});
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  p.race(jobs);
  p.race(jobs);
  const MetricsSnapshot d = MetricsRegistry::global().snapshot().delta(before);
  EXPECT_EQ(d.value("portfolio.races"), 2.0);
  EXPECT_EQ(d.value("portfolio.jobs_launched"), 2.0);  // alpha wins inline;
  EXPECT_EQ(d.value("portfolio.jobs_cancelled"), 2.0);  // beta never starts
  EXPECT_EQ(d.value("portfolio.wins.alpha"), 2.0);
  EXPECT_EQ(d.value("portfolio.wins.beta"), 0.0);
  EXPECT_GE(d.value("portfolio.race.seconds"), 0.0);
}

// The ownership rule from DESIGN.md: every concurrent job owns its BddMgr
// outright. Eight reachability jobs over one shared (immutable) netlist on
// four workers; under -DRFN_SANITIZE=thread this test is the lock-in that
// per-worker managers plus read-only netlist sharing are race-free.
TEST(Portfolio, PerWorkerBddMgrOwnership) {
  const Netlist m = make_counter_fail();
  Portfolio p(4);
  std::vector<ReachStatus> status(8, ReachStatus::ResourceOut);
  std::vector<PortfolioJob> jobs;
  for (size_t i = 0; i < status.size(); ++i)
    jobs.push_back({"bdd" + std::to_string(i), -1.0,
                    [&m, &status, i](const CancelToken&) {
                      BddMgr mgr;  // owned by this job alone
                      Encoder enc(mgr, m);
                      ImageComputer img(enc);
                      const Bdd bad =
                          mgr.exists(enc.signal_fn(m.output("bad")), enc.input_vars());
                      status[i] =
                          forward_reach(img, enc.initial_states(), bad).status;
                      return false;  // inconclusive: every job runs fully
                    }});
  const RaceResult r = p.race(jobs);
  EXPECT_FALSE(r.conclusive);
  EXPECT_EQ(r.launched, jobs.size());
  for (size_t i = 0; i < status.size(); ++i)
    EXPECT_EQ(status[i], ReachStatus::BadReachable) << "job " << i;
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

// Race real engines against each other: every engine is sound, so the
// winner's verdict and any loser's finished result match the ground truth.
TEST(Portfolio, EngineRaceVerdictsAgree) {
  for (const bool fails : {true, false}) {
    const Netlist m = fails ? make_counter_fail() : make_counter_safe();
    const GateId bad = m.output("bad");
    for (const size_t workers : {size_t{0}, size_t{2}}) {
      Portfolio p(workers);
      BddMgr mgr;
      Encoder enc(mgr, m);
      ImageComputer img(enc);
      const Bdd bad_set = mgr.exists(enc.signal_fn(bad), enc.input_vars());
      ReachResult reach;
      SeqAtpgResult atpg;
      std::vector<PortfolioJob> jobs;
      jobs.push_back({"bdd-reach", -1.0, [&](const CancelToken& token) {
                        ReachOptions ro;
                        ro.cancel = &token;
                        reach = forward_reach(img, enc.initial_states(), bad_set, ro);
                        return reach.status != ReachStatus::ResourceOut;
                      }});
      jobs.push_back({"seq-atpg", -1.0, [&](const CancelToken& token) {
                        AtpgOptions ao;
                        ao.cancel = &token;
                        for (size_t k = 1; k <= 10; ++k) {
                          if (token.cancelled()) return false;
                          SeqAtpgResult r = reach_target(m, k, bad, true, {}, ao);
                          if (r.status == AtpgStatus::Sat) {
                            atpg = std::move(r);
                            return true;
                          }
                        }
                        return false;
                      }});
      const RaceResult r = p.race(jobs);
      ASSERT_TRUE(r.conclusive) << "fails=" << fails << " workers=" << workers;
      // The formal engine leads the lineup and concludes on both designs, so
      // it wins at every worker count.
      EXPECT_EQ(r.winner_name, "bdd-reach") << "workers=" << workers;
      EXPECT_EQ(reach.status,
                fails ? ReachStatus::BadReachable : ReachStatus::Proved);
      // A threaded seq-atpg that found a trace before its cancellation
      // found a real one.
      if (!atpg.trace.empty()) {
        EXPECT_TRUE(fails);
        EXPECT_EQ(simulate_trace(m, atpg.trace, bad), Tri::T);
      }
    }
  }
}

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
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    std::vector<RfnResult> results;
    for (const size_t workers : {size_t{0}, size_t{2}}) {
      RfnOptions opt;
      opt.portfolio_workers = workers;
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
// sat-bmc / pdr in Step 3, nothing else. With workers every job of a race
// launches, so a job outside the lineup would leave a CPU timer behind even
// if it never won. A race returns what the sequential order returns, so the
// threaded run must also walk the same abstractions as the inline one.
TEST(Portfolio, ThreadedRunRacesOnlyTheLineup) {
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
    const RfnResult inline_res = run_property(m, m.output("bad_mutex"), opt);
    MetricsRegistry::global().reset();
    opt.portfolio_workers = 4;
    const RfnResult res = run_property(m, m.output("bad_mutex"), opt);
    EXPECT_EQ(res.verdict, Verdict::Holds) << res.note;
    EXPECT_EQ(res.verdict, inline_res.verdict);
    EXPECT_EQ(res.iterations, inline_res.iterations);
    EXPECT_EQ(res.final_registers, inline_res.final_registers);

    const MetricsSnapshot s = MetricsRegistry::global().snapshot();
    EXPECT_GT(s.value("engine.cpu.bdd-reach.count"), 0.0);
    for (const std::string job : {"rand-sim", "seq-atpg"}) {
      EXPECT_EQ(s.value("engine.cpu." + job + ".count"), 0.0) << job;
      EXPECT_EQ(s.value("portfolio.wins." + job), 0.0) << job;
    }
    // An iteration that ends in Step 2 has no Step-3 winner. Every race has
    // the winner it has inline.
    ASSERT_FALSE(res.per_iteration.empty());
    ASSERT_EQ(res.per_iteration.size(), inline_res.per_iteration.size());
    for (size_t i = 0; i < res.per_iteration.size(); ++i) {
      const RfnIteration& it = res.per_iteration[i];
      EXPECT_TRUE(in(step2, it.abstract_engine))
          << "iteration " << i << " abstract winner " << it.abstract_engine;
      EXPECT_TRUE(in(step3, it.concretize_engine))
          << "iteration " << i << " concretize winner " << it.concretize_engine;
      EXPECT_EQ(it.abstract_engine, inline_res.per_iteration[i].abstract_engine)
          << "iteration " << i;
      EXPECT_EQ(it.concretize_engine,
                inline_res.per_iteration[i].concretize_engine)
          << "iteration " << i;
    }
  }
}

}  // namespace
}  // namespace rfn
