// Tests for time-frame expansion and sequential ATPG.

#include "atpg/seq_atpg.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "atpg/implication.hpp"
#include "atpg/frame_view.hpp"
#include "designs/builtin.hpp"
#include "designs/processor.hpp"
#include "netlist/subcircuit.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#include "atpg_pins.hpp"
#include "random_netlist.hpp"

namespace rfn {
namespace {

// Validates a Sat trace by 3-valued replay: drive the recorded inputs from
// the initial state and check `signal` reaches `value` at the final cycle.
void check_trace(const Netlist& n, const Trace& t, GateId signal, bool value) {
  const TopoIndex topo(n);
  Sim3 sim(topo);
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
  const TopoIndex topo(n);
  const FrameView v(FrameNodes(topo, needed.size(), topo.net.regs()), needed);
  for (size_t i = 0; i < 3; ++i) {
    // Frame-1 registers are constants (binary init).
    const GateId g = v.node(1, cnt[i]);
    ASSERT_NE(g, kNullGate);
    EXPECT_EQ(v.type(g), GateType::Const0);
    // A later frame's register is its data net one frame earlier.
    for (size_t f = 2; f <= 6; ++f) {
      const GateId alias = v.node(f, cnt[i]);
      ASSERT_NE(alias, kNullGate);
      EXPECT_EQ(alias, v.node(f - 1, n.reg_data(cnt[i])));
    }
  }
  // The target signal exists in the last frame only.
  EXPECT_NE(v.node(6, at5), kNullGate);
  EXPECT_EQ(v.node(5, at5), kNullGate);
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
  const TopoIndex topo(n);
  const FrameView v(FrameNodes(topo, needed.size(), topo.net.regs()), needed);
  // `other` is never needed.
  for (size_t f = 1; f <= 3; ++f) EXPECT_EQ(v.node(f, other), kNullGate);
  // r needed at frame 3 -> in needed at frame 2 only; r@3 is in@2.
  EXPECT_EQ(v.node(3, in), kNullGate);
  EXPECT_NE(v.node(2, in), kNullGate);
  EXPECT_EQ(v.node(3, r), v.node(2, in));
  EXPECT_EQ(v.node(1, in), kNullGate);
  // Nodes: r@3 is an alias, so only in@2 is one.
  EXPECT_EQ(v.cone_nodes(), 1u);
}

TEST(SeqAtpg, CounterReachesFive) {
  NetBuilder b;
  const Word cnt = b.reg_word("cnt", 3, 0);
  b.set_next_word(cnt, b.inc_word(cnt));
  const GateId at5 = b.eq_const(cnt, 5);
  Netlist n = b.take();

  // Counter hits 5 at cycle 6 (value 0 at cycle 1) and at no earlier cycle.
  const SeqAtpgResult hit = reach_target(TopoIndex(n), 6, at5, true);
  ASSERT_EQ(hit.status, AtpgStatus::Sat);
  check_trace(n, hit.trace, at5, true);

  const SeqAtpgResult miss = reach_target(TopoIndex(n), 4, at5, true);
  EXPECT_EQ(miss.status, AtpgStatus::Unsat);
}

TEST(SeqAtpg, InputDrivenReachability) {
  // r latches the input; target r=1 at cycle 3 requires in=1 at cycle 2.
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId r = b.reg("r", Tri::F);
  b.set_next(r, in);
  Netlist n = b.take();
  const SeqAtpgResult res = reach_target(TopoIndex(n), 3, r, true);
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
  EXPECT_EQ(reach_target(TopoIndex(n), 1, r, true).status, AtpgStatus::Unsat);
  EXPECT_EQ(reach_target(TopoIndex(n), 4, r, true).status, AtpgStatus::Unsat);
}

TEST(SeqAtpg, XInitRegistersAreFree) {
  NetBuilder b;
  const GateId r = b.reg("r", Tri::X);
  b.set_next(r, r);
  Netlist n = b.take();
  const SeqAtpgResult res = reach_target(TopoIndex(n), 2, r, true);
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
  const SeqAtpgResult res = solve_cycle_cubes(TopoIndex(n), cubes);
  ASSERT_EQ(res.status, AtpgStatus::Sat);
  EXPECT_EQ(cube_lookup(res.trace.steps[0].inputs, in0), Tri::F);
  EXPECT_EQ(cube_lookup(res.trace.steps[0].inputs, in1), Tri::T);

  // Contradictory guidance: also force in1=0 -> Unsat.
  cubes[0] = {{in0, false}, {in1, false}};
  EXPECT_EQ(solve_cycle_cubes(TopoIndex(n), cubes).status, AtpgStatus::Unsat);
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
  EXPECT_EQ(solve_cycle_cubes(TopoIndex(n), cubes).status, AtpgStatus::Unsat);
}

// One question under a private metrics registry; *early is set to the
// question's "atpg.seq.refuted_early" count (1 when it was answered before
// any time-frame view was built, else 0).
SeqAtpgResult solve_counted(const Netlist& n, std::span<const GateId> kept,
                            const std::vector<Cube>& cubes, uint64_t* early) {
  MetricsRegistry reg;
  const MetricsScope scope(&reg);
  SeqAtpgResult res = solve_cycle_cubes(TopoIndex(n), kept, cubes);
  EXPECT_EQ(reg.counter("atpg.seq.calls").value(), 1u);
  *early = reg.counter("atpg.seq.refuted_early").value();
  return res;
}

// A question a literal alone refutes (against a constant, a binary reset
// value, or another cycle's literal through a register alias) is answered
// before any view is built; an X-initialized register is a free input at
// cycle 1 and is never refuted that way.
TEST(SeqAtpg, RefutedBeforeAnyView) {
  NetBuilder b;
  const GateId in = b.input("in");
  const GateId zero = b.constant(false);
  const GateId r0 = b.reg("r0", Tri::F);  // reset 0, holds
  b.set_next(r0, r0);
  const GateId chain = b.reg("chain", Tri::X);  // r0 one cycle later
  b.set_next(chain, r0);
  const GateId latch = b.reg("latch", Tri::F);  // in one cycle later
  b.set_next(latch, in);
  const GateId tied = b.reg("tied", Tri::X);  // the constant from cycle 2 on
  b.set_next(tied, zero);
  const GateId toggle = b.reg("toggle", Tri::X);  // free at cycle 1, then flips
  b.set_next(toggle, b.not_(toggle));
  const Netlist n = b.take();
  uint64_t early = 0;

  // Reset-value conflicts: r0 at cycle 1, and through chain at cycle 3.
  EXPECT_EQ(solve_counted(n, n.regs(), {{{r0, true}}}, &early).status, AtpgStatus::Unsat);
  EXPECT_EQ(early, 1u);
  EXPECT_EQ(solve_counted(n, n.regs(), {{}, {}, {{chain, true}}}, &early).status,
            AtpgStatus::Unsat);
  EXPECT_EQ(early, 1u);
  // Cross-cycle alias conflict: latch at cycle 2 is in at cycle 1.
  EXPECT_EQ(solve_counted(n, n.regs(), {{{in, false}}, {{latch, true}}}, &early).status,
            AtpgStatus::Unsat);
  EXPECT_EQ(early, 1u);
  // Constant-cell conflicts: the cell itself, and through tied at cycle 2.
  EXPECT_EQ(solve_counted(n, n.regs(), {{{zero, true}}}, &early).status, AtpgStatus::Unsat);
  EXPECT_EQ(early, 1u);
  EXPECT_EQ(solve_counted(n, n.regs(), {{}, {{tied, true}}}, &early).status,
            AtpgStatus::Unsat);
  EXPECT_EQ(early, 1u);
  // Outside the kept set r0 is a free input: no reset value to refute.
  EXPECT_EQ(solve_counted(n, {}, {{{r0, true}}}, &early).status, AtpgStatus::Sat);
  EXPECT_EQ(early, 0u);

  // X-initialized registers: free at cycle 1, so a view is built. toggle=1
  // at cycles 1 and 2 is Unsat, but only the search can tell.
  EXPECT_EQ(solve_counted(n, n.regs(), {{{toggle, true}}}, &early).status, AtpgStatus::Sat);
  EXPECT_EQ(early, 0u);
  EXPECT_EQ(solve_counted(n, n.regs(), {{{chain, true}}}, &early).status, AtpgStatus::Sat);
  EXPECT_EQ(early, 0u);
  EXPECT_EQ(solve_counted(n, n.regs(), {{{toggle, true}}, {{toggle, true}}}, &early).status,
            AtpgStatus::Unsat);
  EXPECT_EQ(early, 0u);
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
  const SeqAtpgResult res = reach_target(TopoIndex(n), 13, hit, true);
  ASSERT_EQ(res.status, AtpgStatus::Sat);
  check_trace(n, res.trace, hit, true);
  for (size_t c = 0; c + 1 < res.trace.steps.size(); ++c)
    EXPECT_EQ(cube_lookup(res.trace.steps[c].inputs, en), Tri::T) << "cycle " << c;
  EXPECT_EQ(reach_target(TopoIndex(n), 12, hit, true).status, AtpgStatus::Unsat);
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
  const SeqAtpgResult unguided = reach_target(TopoIndex(n), depth, hit, true, {}, tight);
  EXPECT_EQ(unguided.status, AtpgStatus::Abort);

  // Guidance pins the enable at every cycle — the kind of cube an abstract
  // error trace provides.
  std::vector<Cube> guidance(depth);
  for (size_t c = 0; c + 1 < depth; ++c) guidance[c] = {{en, true}};
  const SeqAtpgResult guided = reach_target(TopoIndex(n), depth, hit, true, guidance, tight);
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
    const SeqAtpgResult r = solve_cycle_cubes(TopoIndex(n), cubes);
    uint64_t h = fnv_cube({});
    for (const TraceStep& step : r.trace.steps)
      h = fnv_cube(step.inputs, fnv_cube(step.state, h));
    out.push_back({r.status, r.decisions, r.backtracks, h});
  };
  Rng rng(20261017);
  auto simulated_cubes = [&](const Netlist& n, size_t cycles, size_t lits) {
    const TopoIndex topo(n);
    Sim3 sim(topo);
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
  // The four small builtins, not builtin_names(): the pins below are theirs.
  for (const std::string design : {"fifo", "processor", "iu", "usb"}) {
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

// Memory guard for Step-3 concretization: the paper-scale processor's
// error_flag cone over 28 frames (the depth of its error trace) has about a
// million (frame, gate) nodes, so the bytes the view and an implication
// engine over it spend per node decide the verifier's peak RSS.
TEST(Unroll, PaperScaleErrorFlagConeStaysCompact) {
  const designs::ProcessorDesign d = designs::make_processor(designs::paper_scale_processor());
  constexpr size_t kFrames = 28;
  std::vector<std::vector<GateId>> needed(kFrames);
  needed.back() = {d.error_flag};
  const TopoIndex topo(d.netlist);
  const FrameView v(FrameNodes(topo, needed.size(), topo.net.regs()), needed);
  ASSERT_GE(v.cone_nodes(), 500000u);
  EXPECT_LE(v.heap_bytes(), 2 * v.cone_nodes());

  const ImplicationEngine eng(v);
  EXPECT_LE(eng.heap_bytes(), 8 * v.cone_nodes());
}

// Oracle for the view on random netlists with X-initialized registers and
// register-to-register chains, at depths 1-5. Cycle cubes are read off a
// random simulation, one literal sometimes flipped: every Sat trace must
// replay through Sim3 and meet every cube, and every Unsat must agree with
// an exhaustive simulation of all initial states and input sequences.
TEST(SeqAtpg, RandomViewsAgreeWithExhaustiveSimulation) {
  Rng rng(20261019);
  size_t sat = 0, unsat = 0, refuted_early = 0;
  for (int round = 0; round < 300; ++round) {
    const Netlist n = random_netlist(rng, 1 + rng.below(2), 2 + rng.below(3),
                                     static_cast<int>(rng.below(16)), /*x_init=*/true);
    const size_t k = 1 + rng.below(5);
    std::vector<GateId> xregs;
    for (GateId r : n.regs())
      if (n.reg_init(r) == Tri::X) xregs.push_back(r);

    // Simulates one run: bit i of `xbits` initializes xregs[i], bit
    // (c * inputs + j) of `inbits` drives input j in cycle c. Returns the
    // value of every signal in every cycle.
    const auto simulate = [&](uint64_t xbits, uint64_t inbits) {
      const TopoIndex topo(n);
      Sim3 sim(topo);
      sim.load_initial_state();
      for (size_t i = 0; i < xregs.size(); ++i) sim.set(xregs[i], tri_of((xbits >> i) & 1));
      std::vector<std::vector<Tri>> vals(k);
      for (size_t c = 0; c < k; ++c) {
        for (size_t j = 0; j < n.num_inputs(); ++j)
          sim.set(n.inputs()[j], tri_of((inbits >> (c * n.num_inputs() + j)) & 1));
        sim.eval();
        for (GateId g = 0; g < n.size(); ++g) vals[c].push_back(sim.value(g));
        sim.step();
      }
      return vals;
    };
    const uint64_t xcount = uint64_t{1} << xregs.size();
    const uint64_t incount = uint64_t{1} << (k * n.num_inputs());

    const auto run = simulate(rng.below(xcount), rng.below(incount));
    std::vector<Cube> cubes(k);
    for (size_t c = 0; c < k; ++c)
      for (size_t i = rng.below(3); i > 0; --i) {
        const GateId g = static_cast<GateId>(rng.below(n.size()));
        cube_add(cubes[c], {g, run[c][g] == Tri::T});
      }
    if (rng.flip()) {
      const GateId g = static_cast<GateId>(rng.below(n.size()));
      Cube& last = cubes[rng.below(k)];
      const Tri old = cube_lookup(last, g);
      if (old != Tri::X) std::erase(last, Literal{g, old == Tri::T});
      cube_add(last, {g, old != Tri::T});
    }
    const auto meets = [&](const std::vector<std::vector<Tri>>& vals) {
      for (size_t c = 0; c < k; ++c)
        for (const Literal& lit : cubes[c])
          if (vals[c][lit.signal] != tri_of(lit.value)) return false;
      return true;
    };

    uint64_t early = 0;
    const SeqAtpgResult res = solve_counted(n, n.regs(), cubes, &early);
    refuted_early += early;
    ASSERT_NE(res.status, AtpgStatus::Abort) << "round " << round;
    if (res.status == AtpgStatus::Sat) {
      ++sat;
      // Replay: X-init registers take the trace's first state, every input
      // the trace leaves open stays X.
      ASSERT_EQ(res.trace.steps.size(), k);
      const TopoIndex topo(n);
      Sim3 sim(topo);
      sim.load_initial_state();
      for (const Literal& lit : res.trace.steps[0].state) sim.set(lit.signal, tri_of(lit.value));
      for (size_t c = 0; c < k; ++c) {
        sim.clear_inputs();
        sim.set_cube(res.trace.steps[c].inputs);
        sim.eval();
        for (const Literal& lit : cubes[c])
          EXPECT_EQ(sim.value(lit.signal), tri_of(lit.value))
              << "round " << round << " cycle " << c + 1 << " signal " << lit.signal;
        for (const Literal& lit : res.trace.steps[c].state)
          EXPECT_EQ(sim.value(lit.signal), tri_of(lit.value))
              << "round " << round << " cycle " << c + 1 << " register " << lit.signal;
        sim.step();
      }
    } else {
      ++unsat;
      for (uint64_t x = 0; x < xcount; ++x)
        for (uint64_t in = 0; in < incount; ++in)
          ASSERT_FALSE(meets(simulate(x, in)))
              << "round " << round << ": Unsat, but a run meets every cube";
    }
  }
  // Both outcomes occur often enough to mean something (247 and 53), and
  // so do both paths to an answer (20 of the Unsat refuted before any view).
  EXPECT_GE(sat, 100u);
  EXPECT_GE(unsat, 20u);
  EXPECT_GE(refuted_early, 20u);
  EXPECT_GE(sat + unsat - refuted_early, 20u);
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

// A view keeping a register set stands for the abstract model extracted
// over that set: on random netlists with X-initialized registers and
// register chains, a random kept set and random cycle cubes,
// solve_cycle_cubes over M keeping the set must answer what it answers on
// extract_abstract_model(...).net with the cubes mapped into its ids.
TEST(SeqAtpg, MaskedViewsAgreeWithExtractedModels) {
  Rng rng(20261020);
  size_t sat = 0, unsat = 0, refuted_early = 0;
  for (int round = 0; round < 300; ++round) {
    const Netlist n = random_netlist(rng, 1 + rng.below(2), 2 + rng.below(4),
                                     static_cast<int>(rng.below(16)), /*x_init=*/true);
    std::vector<GateId> kept;
    for (GateId r : n.regs())
      if (rng.flip()) kept.push_back(r);
    const size_t k = 1 + rng.below(5);
    std::vector<Cube> cubes(k);
    std::vector<GateId> roots;  // every cube signal, so each maps into the model
    for (Cube& c : cubes)
      for (size_t i = rng.below(3); i > 0; --i) {
        const GateId g = static_cast<GateId>(rng.below(n.size()));
        if (cube_lookup(c, g) != Tri::X) continue;
        cube_add(c, {g, rng.flip()});
        roots.push_back(g);
      }

    const Subcircuit sub = extract_abstract_model(TopoIndex(n), roots, kept);
    std::vector<Cube> mapped(k);
    for (size_t c = 0; c < k; ++c)
      for (const Literal& lit : cubes[c]) {
        const GateId g = sub.to_new(lit.signal);
        ASSERT_NE(g, kNullGate) << "round " << round;
        cube_add(mapped[c], {g, lit.value});
      }

    const SeqAtpgResult ref = solve_cycle_cubes(TopoIndex(sub.net), mapped);
    uint64_t early = 0;
    const SeqAtpgResult got = solve_counted(n, kept, cubes, &early);
    refuted_early += early;
    ASSERT_NE(ref.status, AtpgStatus::Abort) << "round " << round;
    EXPECT_EQ(got.status, ref.status) << "round " << round << ", " << kept.size() << " of "
                                      << n.num_regs() << " registers kept";
    ++(ref.status == AtpgStatus::Sat ? sat : unsat);
  }
  // Both outcomes occur often enough to mean something (231 and 69), and
  // so do both paths to an answer (34 of the Unsat refuted before any view).
  EXPECT_GE(sat, 100u);
  EXPECT_GE(unsat, 20u);
  EXPECT_GE(refuted_early, 20u);
  EXPECT_GE(sat + unsat - refuted_early, 20u);
}

}  // namespace
}  // namespace rfn
