// Tests for time-frame expansion and sequential ATPG.

#include "atpg/seq_atpg.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "atpg/implication.hpp"
#include "atpg/unroll.hpp"
#include "designs/builtin.hpp"
#include "designs/processor.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"
#include "util/rng.hpp"

#include "atpg_pins.hpp"
#include "random_netlist.hpp"

namespace rfn {
namespace {

// Validates a Sat trace by 3-valued replay: drive the recorded inputs from
// the initial state and check `signal` reaches `value` at the final cycle.
void check_trace(const Netlist& n, const Trace& t, GateId signal, bool value) {
  Sim3 sim(n);
  sim.load_initial_state();
  for (size_t cycle = 0; cycle < t.steps.size(); ++cycle) {
    sim.clear_inputs();
    // X-init registers at cycle 1 take the trace's chosen values.
    if (cycle == 0)
      for (const Literal& lit : t.steps[0].state)
        sim.set(lit.signal, tri_of(lit.value));
    sim.set_cube(t.steps[cycle].inputs);
    sim.eval();
    if (cycle + 1 < t.steps.size()) sim.step();
  }
  EXPECT_EQ(sim.value(signal), tri_of(value));
}

TEST(Unroll, CounterAliasesAndInitConstants) {
  NetBuilder b;
  const Word cnt = b.reg_word("cnt", 3, 0);
  b.set_next_word(cnt, b.inc_word(cnt));
  const GateId at5 = b.eq_const(cnt, 5);
  b.output("at5", at5);
  Netlist n = b.take();

  std::vector<std::vector<GateId>> needed(6);
  needed[5] = {at5};
  const Unrolled u = unroll_cone(n, 6, needed);
  // Frame-1 registers are constants (binary init).
  for (size_t i = 0; i < 3; ++i) {
    const GateId g = u.at(1, cnt[i]);
    ASSERT_NE(g, kNullGate);
    EXPECT_EQ(u.net.type(g), GateType::Const0);
  }
  // The target signal exists in the last frame.
  EXPECT_NE(u.at(6, at5), kNullGate);
}

TEST(Unroll, ConeRestrictionSkipsUnneededFrames) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r");
  b.set_next(r, in);
  const GateId other = b.reg("other");
  b.set_next(other, b.not_(other));
  Netlist n = b.take();
  std::vector<std::vector<GateId>> needed(3);
  needed[2] = {r};
  const Unrolled u = unroll_cone(n, 3, needed);
  // `other` is never needed.
  for (size_t f = 1; f <= 3; ++f) EXPECT_EQ(u.at(f, other), kNullGate);
  // r needed at frame 3 -> in needed at frame 2 only.
  EXPECT_EQ(u.at(3, in), kNullGate);
  EXPECT_NE(u.at(2, in), kNullGate);
}

TEST(SeqAtpg, CounterReachesFive) {
  NetBuilder b;
  const Word cnt = b.reg_word("cnt", 3, 0);
  b.set_next_word(cnt, b.inc_word(cnt));
  const GateId at5 = b.eq_const(cnt, 5);
  Netlist n = b.take();

  // Counter hits 5 at cycle 6 (value 0 at cycle 1) and at no earlier cycle.
  const SeqAtpgResult hit = reach_target(n, 6, at5, true);
  ASSERT_EQ(hit.status, AtpgStatus::Sat);
  check_trace(n, hit.trace, at5, true);

  const SeqAtpgResult miss = reach_target(n, 4, at5, true);
  EXPECT_EQ(miss.status, AtpgStatus::Unsat);
}

TEST(SeqAtpg, InputDrivenReachability) {
  // r latches the input; target r=1 at cycle 3 requires in=1 at cycle 2.
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r", Tri::F);
  b.set_next(r, in);
  Netlist n = b.take();
  const SeqAtpgResult res = reach_target(n, 3, r, true);
  ASSERT_EQ(res.status, AtpgStatus::Sat);
  check_trace(n, res.trace, r, true);
  EXPECT_EQ(cube_lookup(res.trace.steps[1].inputs, in), Tri::T);
}

TEST(SeqAtpg, InitialValueConflictIsUnsat) {
  NetBuilder b;
  const GateId r = b.reg("r", Tri::F);
  b.set_next(r, r);
  Netlist n = b.take();
  // r stuck at 0: asking for r=1 at any cycle is Unsat.
  EXPECT_EQ(reach_target(n, 1, r, true).status, AtpgStatus::Unsat);
  EXPECT_EQ(reach_target(n, 4, r, true).status, AtpgStatus::Unsat);
}

TEST(SeqAtpg, XInitRegistersAreFree) {
  NetBuilder b;
  const GateId r = b.reg("r", Tri::X);
  b.set_next(r, r);
  Netlist n = b.take();
  const SeqAtpgResult res = reach_target(n, 2, r, true);
  ASSERT_EQ(res.status, AtpgStatus::Sat);
  // The trace must pin the initial value of r to 1.
  EXPECT_EQ(cube_lookup(res.trace.steps[0].state, r), Tri::T);
}

TEST(SeqAtpg, ConstraintCubesGuideAndRestrict) {
  // Two free inputs; target xor at cycle 2; constrain in0=0 at cycle 1... the
  // constraint forces the solution through in1.
  NetBuilder b;
  const GateId in0 = b.input("in0");
  const GateId in1 = b.input("in1");
  const GateId r = b.reg("r", Tri::F);
  b.set_next(r, b.or_(in0, in1));
  Netlist n = b.take();

  std::vector<Cube> cubes(2);
  cubes[0] = {{in0, false}};
  cubes[1] = {{r, true}};
  const SeqAtpgResult res = solve_cycle_cubes(n, cubes);
  ASSERT_EQ(res.status, AtpgStatus::Sat);
  EXPECT_EQ(cube_lookup(res.trace.steps[0].inputs, in0), Tri::F);
  EXPECT_EQ(cube_lookup(res.trace.steps[0].inputs, in1), Tri::T);

  // Contradictory guidance: also force in1=0 -> Unsat.
  cubes[0] = {{in0, false}, {in1, false}};
  EXPECT_EQ(solve_cycle_cubes(n, cubes).status, AtpgStatus::Unsat);
}

TEST(SeqAtpg, CrossCycleAliasConflict) {
  // r at cycle 2 aliases in at cycle 1; demanding r=1 @2 and in=0 @1 must be
  // Unsat via flat-net conflict.
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r", Tri::F);
  b.set_next(r, in);
  Netlist n = b.take();
  std::vector<Cube> cubes(2);
  cubes[0] = {{in, false}};
  cubes[1] = {{r, true}};
  EXPECT_EQ(solve_cycle_cubes(n, cubes).status, AtpgStatus::Unsat);
}

// Gated counter used by the depth tests: increments only while en=1.
Netlist make_gated_counter(size_t bits, uint64_t target_value, GateId* en_out,
                           GateId* hit_out) {
  NetBuilder b;
  const GateId en = b.input("en");
  const Word cnt = b.reg_word("cnt", bits, 0);
  b.set_next_word(cnt, b.mux_word(en, cnt, b.inc_word(cnt)));
  const GateId hit = b.eq_const(cnt, target_value);
  Netlist n = b.take();
  *en_out = n.find("en");
  *hit_out = hit;
  return n;
}

TEST(SeqAtpg, ModerateDepthGatedCounter) {
  // Reaching 12 needs 13 cycles with enable high throughout.
  GateId en, hit;
  Netlist n = make_gated_counter(4, 12, &en, &hit);
  const SeqAtpgResult res = reach_target(n, 13, hit, true);
  ASSERT_EQ(res.status, AtpgStatus::Sat);
  check_trace(n, res.trace, hit, true);
  for (size_t c = 0; c + 1 < res.trace.steps.size(); ++c)
    EXPECT_EQ(cube_lookup(res.trace.steps[c].inputs, en), Tri::T) << "cycle " << c;
  EXPECT_EQ(reach_target(n, 12, hit, true).status, AtpgStatus::Unsat);
}

TEST(SeqAtpg, GuidanceEnablesDeepSearch) {
  // The paper's Step 3 rationale: unguided sequential ATPG drowns on deep
  // targets, while cycle-by-cycle constraint cubes make the same search
  // trivial ("sequential ATPG with guidance can search for an order of
  // magnitude more cycles").
  GateId en, hit;
  Netlist n = make_gated_counter(6, 40, &en, &hit);
  const size_t depth = 41;

  AtpgOptions tight;
  tight.max_backtracks = 2000;
  const SeqAtpgResult unguided = reach_target(n, depth, hit, true, {}, tight);
  EXPECT_EQ(unguided.status, AtpgStatus::Abort);

  // Guidance pins the enable at every cycle — the kind of cube an abstract
  // error trace provides.
  std::vector<Cube> guidance(depth);
  for (size_t c = 0; c + 1 < depth; ++c) guidance[c] = {{en, true}};
  const SeqAtpgResult guided = reach_target(n, depth, hit, true, guidance, tight);
  ASSERT_EQ(guided.status, AtpgStatus::Sat);
  check_trace(n, guided.trace, hit, true);
  EXPECT_LT(guided.backtracks, unguided.backtracks);
}

// Cycle cubes read off seeded random simulations of the builtin designs and
// of random netlists (register values only, as in an abstract trace, so the
// search must justify them through the inputs). The random netlists also
// demand bad = 1 in the last cycle, which some runs cannot meet.
std::vector<SearchPin> seq_trajectories() {
  std::vector<SearchPin> out;
  auto run = [&](const Netlist& n, const std::vector<Cube>& cubes) {
    const SeqAtpgResult r = solve_cycle_cubes(n, cubes);
    uint64_t h = fnv_cube({});
    for (const TraceStep& step : r.trace.steps)
      h = fnv_cube(step.inputs, fnv_cube(step.state, h));
    out.push_back({r.status, r.decisions, r.backtracks, h});
  };
  Rng rng(20261017);
  auto simulated_cubes = [&](const Netlist& n, size_t cycles, size_t lits) {
    Sim3 sim(n);
    sim.load_initial_state();
    std::vector<Cube> cubes(cycles);
    for (Cube& c : cubes) {
      for (GateId in : n.inputs()) sim.set(in, tri_of(rng.flip()));
      sim.eval();
      for (size_t i = 0; i < lits; ++i) {
        const GateId r = n.regs()[rng.below(n.num_regs())];
        if (sim.value(r) != Tri::X) cube_add(c, {r, sim.value(r) == Tri::T});
      }
      sim.step();
    }
    return cubes;
  };
  for (const std::string& design : designs::builtin_names()) {
    bool ok = false;
    const Netlist n = designs::make_builtin(design, &ok);
    for (size_t cycles : {4, 8}) run(n, simulated_cubes(n, cycles, 6));
  }
  for (int round = 0; round < 8; ++round) {
    const Netlist n = random_netlist(rng, 2 + rng.below(4), 3 + rng.below(6),
                                     40 + static_cast<int>(rng.below(60)));
    std::vector<Cube> cubes = simulated_cubes(n, 2 + rng.below(4), 2);
    cube_add(cubes.back(), {n.output("bad"), true});
    run(n, cubes);
  }
  return out;
}

// Memory guard for Step-3 concretization: the flat model of the paper-scale
// processor's error_flag cone over 28 frames (the depth of its error trace)
// is about a million gates, so the bytes each flat gate and each fanout
// entry cost decide the verifier's peak RSS.
TEST(Unroll, PaperScaleErrorFlagConeStaysCompact) {
  const designs::ProcessorDesign d = designs::make_processor(designs::paper_scale_processor());
  constexpr size_t kFrames = 28;
  std::vector<std::vector<GateId>> needed(kFrames);
  needed.back() = {d.error_flag};
  const Unrolled u = unroll_cone(d.netlist, kFrames, needed);
  ASSERT_GE(u.net.size(), 500000u);
  EXPECT_LE(u.net.heap_bytes(), 16 * u.net.size());

  const ImplicationEngine eng(u.net);
  ASSERT_GE(eng.fanouts().edges.size(), u.net.size());
  EXPECT_LE(eng.fanouts().heap_bytes(), 16 * eng.fanouts().edges.size());
}

// Recorded before the J-frontier became incremental and the trace rebuild
// stopped looking literals up: both may alter cost, never the search or the
// trace it returns.
TEST(SeqAtpg, TrajectoriesArePinned) {
  const std::vector<SearchPin> expected = {
      {AtpgStatus::Sat, 2, 0, 0x9228630db5d0d08aULL},
      {AtpgStatus::Sat, 7, 1, 0x9438ac68df66520fULL},
      {AtpgStatus::Sat, 3, 0, 0x18aab4ba29c73307ULL},
      {AtpgStatus::Sat, 18, 6, 0x28f81225e0dfcc67ULL},
      {AtpgStatus::Sat, 1, 0, 0x718a170fe9990bbbULL},
      {AtpgStatus::Sat, 15, 0, 0x70519504e31bb4f6ULL},
      {AtpgStatus::Sat, 1, 0, 0xa700b55728a9dd49ULL},
      {AtpgStatus::Sat, 8, 0, 0xca9cab735c8352f8ULL},
      {AtpgStatus::Unsat, 0, 0, 0xcbf29ce484222325ULL},
      {AtpgStatus::Sat, 2, 0, 0xffa9afd76c48da08ULL},
      {AtpgStatus::Sat, 4, 0, 0x501902ca19ab8be4ULL},
      {AtpgStatus::Sat, 4, 0, 0x04732ae6af9aab8eULL},
      {AtpgStatus::Sat, 3, 1, 0x9638f07ac413f284ULL},
      {AtpgStatus::Sat, 0, 0, 0x85c24468b8b2d616ULL},
      {AtpgStatus::Sat, 0, 0, 0x542ec5e80352564eULL},
      {AtpgStatus::Sat, 4, 0, 0x380018f0f0c4a503ULL},
  };
  expect_pins(seq_trajectories(), expected);
}

}  // namespace
}  // namespace rfn
