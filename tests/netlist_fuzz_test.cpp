// Deterministic cross-engine fuzzing: ~200 seeded random netlists, each
// checked for agreement between every engine —
//
//   * BDD forward reachability (ground truth, onion rings);
//   * sequential ATPG by iterative deepening: first Sat depth must equal
//     the first bad ring index + 1, and Proved designs are Unsat at every
//     depth within the diameter;
//   * 64-way random simulation: every visited state lies in the BDD
//     fixpoint, hits imply BadReachable at a consistent depth;
//   * the BFS coverage baseline: with the full register set its
//     unreachable-state count matches exhaustive enumeration of the BDD
//     fixpoint;
//   * the full RFN loop: the ground-truth verdict, a replaying error trace,
//     and a certificate the independent checker accepts.
//
// Disagreements dump the failing netlist (BLIF + generator seed) into
// RFN_FUZZ_DUMP_DIR for offline triage.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "aiger/aiger.hpp"
#include "atpg/seq_atpg.hpp"
#include "cert/check.hpp"
#include "cert/format.hpp"
#include "core/bfs_baseline.hpp"
#include "core/certificate.hpp"
#include "core/rfn.hpp"
#include "mc/image.hpp"
#include "mc/reach.hpp"
#include "netlist/analysis.hpp"
#include "netlist/blif.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"
#include "sim/sim64.hpp"
#include "util/rng.hpp"

#include "random_netlist.hpp"

#ifndef RFN_FUZZ_DUMP_DIR
#define RFN_FUZZ_DUMP_DIR "."
#endif

namespace rfn {
namespace {

constexpr size_t kRoundsPerSeed = 25;  // x 8 seed instances = 200 netlists

void dump_failure(const Netlist& m, uint64_t seed, size_t round) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(RFN_FUZZ_DUMP_DIR, ec);
  const std::string path = std::string(RFN_FUZZ_DUMP_DIR) + "/fuzz_seed_" +
                           std::to_string(seed) + "_round_" +
                           std::to_string(round) + ".blif";
  std::ofstream out(path);
  out << "# netlist_fuzz_test seed=" << seed << " round=" << round << "\n"
      << write_blif(m, "fuzz");
  ADD_FAILURE() << "cross-engine disagreement; netlist dumped to " << path;
}

void dump_failure_aiger(const Netlist& m, uint64_t seed, size_t round) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(RFN_FUZZ_DUMP_DIR, ec);
  const std::string path = std::string(RFN_FUZZ_DUMP_DIR) + "/fuzz_seed_" +
                           std::to_string(seed) + "_round_" +
                           std::to_string(round) + ".aag";
  std::ofstream out(path);
  out << aiger::write_aiger(m, false) << "c\nnetlist_fuzz_test seed=" << seed
      << " round=" << round << "\n";
  ADD_FAILURE() << "AIGER round-trip mismatch; netlist dumped to " << path;
}

/// AIGER round-trip: write -> read normalizes the netlist into and-inverter
/// form; one more write -> read must then be a fixpoint of design_hash, both
/// encodings must elaborate identically, and the normalized design must keep
/// the same BDD reachability verdict as the original.
void check_aiger_roundtrip(const Netlist& m, uint64_t seed, size_t round) {
  std::string error;
  aiger::AigerDesign d2, d2bin, d3;
  ASSERT_TRUE(aiger::read_aiger(aiger::write_aiger(m, false), &d2, &error))
      << "seed " << seed << " round " << round << ": " << error;
  ASSERT_TRUE(aiger::read_aiger(aiger::write_aiger(m, true), &d2bin, &error))
      << "seed " << seed << " round " << round << ": " << error;
  EXPECT_EQ(design_hash(d2.netlist), design_hash(d2bin.netlist))
      << "ASCII and binary encodings elaborate differently";
  ASSERT_TRUE(
      aiger::read_aiger(aiger::write_aiger(d2.netlist, false), &d3, &error))
      << error;
  EXPECT_EQ(design_hash(d2.netlist), design_hash(d3.netlist))
      << "write -> read is not idempotent on the design hash";

  // Verdict agreement: the decomposed and-inverter form must reach bad at
  // exactly the same depth (or prove it unreachable) as the source netlist.
  auto reach_of = [](const Netlist& n) {
    const GateId bad = n.output("bad");
    EXPECT_NE(bad, kNullGate);
    BddMgr mgr;
    Encoder enc(mgr, n);
    ImageComputer img(enc);
    const Bdd bad_set = mgr.exists(enc.signal_fn(bad), enc.input_vars());
    const ReachResult r = forward_reach(img, enc.initial_states(), bad_set);
    EXPECT_NE(r.status, ReachStatus::ResourceOut);
    return std::make_pair(r.status, r.steps);
  };
  const auto [st1, steps1] = reach_of(m);
  const auto [st2, steps2] = reach_of(d2.netlist);
  EXPECT_EQ(st1, st2) << "round-tripped design changed verdict";
  if (st1 == ReachStatus::BadReachable && st2 == ReachStatus::BadReachable)
    EXPECT_EQ(steps1, steps2) << "round-tripped design changed trace depth";
}

void check_engines_agree(const Netlist& m, uint64_t seed, size_t round) {
  const GateId bad = m.output("bad");
  ASSERT_NE(bad, kNullGate);

  // Ground truth: exact forward reachability with onion rings, stopping at
  // the first bad ring, plus the complete fixpoint for containment checks.
  BddMgr mgr;
  Encoder enc(mgr, m);
  ImageComputer img(enc);
  const Bdd bad_set = mgr.exists(enc.signal_fn(bad), enc.input_vars());
  ASSERT_FALSE(bad_set.is_null());
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set);
  ASSERT_NE(reach.status, ReachStatus::ResourceOut);
  const ReachResult full =
      forward_reach(img, enc.initial_states(), mgr.bdd_false());
  ASSERT_EQ(full.status, ReachStatus::Proved);
  EXPECT_TRUE(reach.reached.diff(full.reached).is_false())
      << "early-stopped fixpoint escaped the full one";

  // Sequential ATPG by iterative deepening: the shortest trace raising bad
  // at cycle k exists iff the ring first hit has index k-1, so the first
  // Sat depth is pinned exactly; Proved designs are Unsat at every depth
  // within the diameter + 1.
  size_t atpg_first_sat = 0;  // 0 = no Sat found
  for (size_t k = 1; k <= full.rings.size() + 1; ++k) {
    const SeqAtpgResult r = reach_target(TopoIndex(m), k, bad, true);
    ASSERT_NE(r.status, AtpgStatus::Abort) << "depth " << k;
    if (r.status == AtpgStatus::Sat) {
      atpg_first_sat = k;
      EXPECT_EQ(r.trace.cycles(), k);
      EXPECT_EQ(simulate_trace(m, r.trace, bad), Tri::T)
          << "ATPG trace at depth " << k << " does not replay";
      break;
    }
  }
  if (reach.status == ReachStatus::BadReachable)
    EXPECT_EQ(atpg_first_sat, reach.steps + 1)
        << "ATPG minimal depth disagrees with the first bad ring";
  else
    EXPECT_EQ(atpg_first_sat, 0u)
        << "ATPG found a trace on a design the BDD engine proved safe";

  // Random simulation: every visited state must lie inside the fixpoint,
  // and a bad hit at cycle c implies a trace of c+1 cycles, which the BDD
  // side caps from below by its first bad ring.
  {
    Sim64 sim(m);
    Rng srng(seed * 0x9E3779B97F4A7C15ull + round);
    sim.load_initial_state(srng);
    std::vector<bool> assign(mgr.num_vars(), false);
    bool hit = false;
    for (size_t c = 0; c < 24 && !hit; ++c) {
      for (const int lane : {0, 63}) {
        for (GateId r : m.regs())
          assign[enc.state_var(r)] = sim.value_bit(r, lane);
        EXPECT_TRUE(mgr.eval(full.reached, assign))
            << "simulation visited a state outside the BDD fixpoint (cycle "
            << c << " lane " << lane << ")";
      }
      sim.randomize_inputs(srng);
      sim.eval();
      if (sim.value(bad) != 0) {
        hit = true;
        EXPECT_EQ(reach.status, ReachStatus::BadReachable)
            << "simulation raised bad on a design the BDD engine proved safe";
        EXPECT_GE(c, reach.steps)
            << "simulation hit bad before the first bad ring";
      }
      sim.step();
    }
  }

  // BFS coverage baseline with the full register set degenerates to exact
  // reachable-state counting; cross-check against exhaustive enumeration of
  // the fixpoint (the state spaces here are tiny).
  {
    BfsBaselineOptions bopt;
    bopt.num_registers = m.regs().size();
    const BfsBaselineResult bfs = bfs_coverage_analysis(m, m.regs(), bopt);
    ASSERT_EQ(bfs.reach_status, ReachStatus::Proved);
    const size_t total = size_t{1} << m.regs().size();
    size_t reachable = 0;
    std::vector<bool> assign(mgr.num_vars(), false);
    for (size_t s = 0; s < total; ++s) {
      for (size_t i = 0; i < m.regs().size(); ++i)
        assign[enc.state_var(m.regs()[i])] = (s >> i) & 1;
      if (mgr.eval(full.reached, assign)) ++reachable;
    }
    EXPECT_EQ(bfs.total_states, total);
    EXPECT_EQ(bfs.unreachable, total - reachable)
        << "BFS baseline unreachable count disagrees with BDD enumeration";
  }

  // Full RFN loop: the acceptance criterion. Expensive relative to the
  // checks above, so sample every 8th netlist.
  if (round % 8 == 0) {
    const Verdict expect = reach.status == ReachStatus::BadReachable
                               ? Verdict::Fails
                               : Verdict::Holds;
    const RfnResult res = run_property(m, bad, RfnOptions{});
    EXPECT_EQ(res.verdict, expect)
        << "RFN disagrees with the BDD ground truth; note: " << res.note;
    if (res.verdict == Verdict::Fails) {
      EXPECT_EQ(simulate_trace(m, res.error_trace, bad), Tri::T)
          << "RFN error trace does not replay";
    }
    if (res.verdict != expect) return;

    // Certificate round trip on the concluded verdict: extraction,
    // serialize + reparse, and the independent SAT checker must accept
    // the witness the verdict earned...
    const CertificateBuild built =
        res.verdict == Verdict::Holds
            ? build_holds_certificate(m, bad, "bad", res.final_registers)
            : build_fails_certificate(m, bad, "bad", res.error_trace);
    ASSERT_TRUE(built.ok) << built.detail;
    cert::Certificate back;
    std::string cert_err;
    ASSERT_TRUE(
        cert::from_json(cert::to_json(built.certificate), &back, &cert_err))
        << cert_err;
    const cert::CheckResult chk = cert::check_certificate(m, back);
    EXPECT_TRUE(chk.ok) << "verdict " << to_string(res.verdict)
                        << ": obligation " << chk.obligation << ": "
                        << chk.detail;

    // ...and a deliberately mutated invariant must be refused. Weakening
    // Inv to `true` on a design whose bad is truly reachable leaves the
    // safety obligation nothing to stand on.
    if (res.verdict == Verdict::Fails) {
      cert::Certificate mutated;
      mutated.kind = cert::CertKind::HoldsInvariant;
      mutated.design_hash = design_hash(m);
      mutated.design_regs = m.num_regs();
      mutated.property_name = "bad";
      mutated.bad = bad;
      mutated.registers = m.regs();
      const cert::CheckResult rej = cert::check_certificate(m, mutated);
      EXPECT_FALSE(rej.ok)
          << "checker accepted a holds witness for a violated property";
      EXPECT_EQ(rej.obligation, cert::kObligationSafety);
    }
  }
}

class CrossEngineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossEngineFuzz, EnginesAgreeOnRandomNetlists) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  for (size_t round = 0; round < kRoundsPerSeed; ++round) {
    const size_t nins = 1 + rng.below(3);
    const size_t nregs = 3 + rng.below(3);
    const int gates = 10 + static_cast<int>(rng.below(11));
    const Netlist m = random_netlist(rng, nins, nregs, gates);
    const bool failed_before = ::testing::Test::HasFailure();
    check_engines_agree(m, seed, round);
    if (!failed_before && ::testing::Test::HasFailure())
      dump_failure(m, seed, round);
    const bool failed_before_aiger = ::testing::Test::HasFailure();
    check_aiger_roundtrip(m, seed, round);
    if (!failed_before_aiger && ::testing::Test::HasFailure())
      dump_failure_aiger(m, seed, round);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineFuzz,
                         ::testing::Values(2, 3, 5, 7, 11, 13, 17, 19));

}  // namespace
}  // namespace rfn
