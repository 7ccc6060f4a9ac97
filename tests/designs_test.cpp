// Tests for the four evaluation designs: structural sanity, simulated
// behaviour, and property ground truth at small scale.

#include <gtest/gtest.h>

#include "designs/fifo.hpp"
#include "designs/iu.hpp"
#include "designs/processor.hpp"
#include "designs/usb.hpp"
#include "netlist/analysis.hpp"
#include "sim/sim3.hpp"
#include "sim/sim64.hpp"
#include "util/rng.hpp"

namespace rfn {
namespace {

using namespace rfn::designs;

// --- FIFO ---

TEST(FifoDesign, StructureAndCoi) {
  const FifoDesign d = make_fifo({});
  d.netlist.check();
  // Control + 16 entries of (6 data + 1 lock) = in the ~130 register range.
  EXPECT_GE(d.netlist.num_regs(), 120u);
  EXPECT_LE(d.netlist.num_regs(), 145u);
  // The lockable-pop path puts the memory into the properties' COI.
  const auto coi_regs_full = coi_registers(d.netlist, {d.bad_push_full});
  EXPECT_GT(coi_regs_full.size(), 100u);
}

TEST(FifoDesign, WatchdogsStayLowUnderRandomTraffic) {
  const FifoDesign d = make_fifo({});
  Sim64 sim(d.netlist);
  Rng rng(42), rinit(1);
  sim.load_initial_state(rinit);
  const Netlist& n = d.netlist;
  for (int cycle = 0; cycle < 300; ++cycle) {
    sim.randomize_inputs(rng);
    sim.eval();
    EXPECT_EQ(sim.value(d.bad_push_full), 0u) << "cycle " << cycle;
    EXPECT_EQ(sim.value(d.bad_push_af), 0u);
    EXPECT_EQ(sim.value(d.bad_push_hf), 0u);
    sim.step();
  }
  (void)n;
}

TEST(FifoDesign, CountTracksPushPop) {
  const FifoDesign d = make_fifo({});
  const Netlist& n = d.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  const GateId push = n.find("push"), pop = n.find("pop"), wlock = n.find("wlock");
  auto count = [&]() {
    uint64_t v = 0;
    for (int i = 0; i < 5; ++i)
      if (sim.value(n.find("count[" + std::to_string(i) + "]")) == Tri::T)
        v |= 1u << i;
    return v;
  };
  // Drive deterministic inputs (data zero, unlocked).
  for (GateId in : n.inputs()) sim.set(in, Tri::F);
  sim.set(push, Tri::T);
  sim.set(wlock, Tri::F);
  for (int i = 0; i < 20; ++i) {
    sim.eval();
    sim.step();
  }
  EXPECT_EQ(count(), 16u);  // saturates at capacity
  sim.set(push, Tri::F);
  sim.set(pop, Tri::T);
  for (int i = 0; i < 20; ++i) {
    sim.eval();
    sim.step();
  }
  EXPECT_EQ(count(), 0u);
}

TEST(FifoDesign, LockedEntryBlocksPop) {
  const FifoDesign d = make_fifo({});
  const Netlist& n = d.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  for (GateId in : n.inputs()) sim.set(in, Tri::F);
  // Push one locked entry whose data equals the lock key (0x2A & 0x3F = 42
  // needs 6 bits: 101010).
  sim.set(n.find("push"), Tri::T);
  sim.set(n.find("wlock"), Tri::T);
  const uint64_t key = 0x2A;
  for (int i = 0; i < 6; ++i)
    sim.set(n.find("wdata[" + std::to_string(i) + "]"), tri_of((key >> i) & 1));
  sim.eval();
  sim.step();
  // Now pop forever: the locked head must pin count at 1.
  sim.set(n.find("push"), Tri::F);
  sim.set(n.find("pop"), Tri::T);
  for (int i = 0; i < 10; ++i) {
    sim.eval();
    sim.step();
  }
  EXPECT_EQ(sim.value(n.find("count[0]")), Tri::T);
}

// --- Processor ---

ProcessorParams small_proc() {
  ProcessorParams p;
  p.units = 4;
  p.pipe_depth = 4;
  p.pipe_width = 4;
  p.result_regs = 8;
  p.counter_bits = 4;
  return p;
}

TEST(ProcessorDesign, StructureScalesWithParams) {
  const ProcessorDesign small = make_processor(small_proc());
  small.netlist.check();
  const ProcessorDesign big = make_processor({});
  EXPECT_GT(big.netlist.num_regs(), small.netlist.num_regs() * 3);
  // Paper-scale configuration reaches ~5,000 registers.
  ProcessorParams paper = paper_scale_processor();
  // Instantiating the full 5k-reg design here would slow the test suite;
  // extrapolate: units * (pipe + results) dominates.
  const size_t expected = paper.units * (paper.pipe_depth * paper.pipe_width +
                                         paper.result_regs);
  EXPECT_GE(expected, 4500u);
}

TEST(ProcessorDesign, MutexHoldsUnderRandomTraffic) {
  const ProcessorDesign d = make_processor(small_proc());
  Sim64 sim(d.netlist);
  Rng rng(7), rinit(2);
  sim.load_initial_state(rinit);
  for (int cycle = 0; cycle < 400; ++cycle) {
    sim.randomize_inputs(rng);
    sim.eval();
    EXPECT_EQ(sim.value(d.bad_mutex), 0u) << "cycle " << cycle;
    sim.step();
  }
}

TEST(ProcessorDesign, GrantsAreOneHotUnderRandomTraffic) {
  const auto p = small_proc();
  const ProcessorDesign d = make_processor(p);
  const Netlist& n = d.netlist;
  Sim64 sim(n);
  Rng rng(9), rinit(3);
  sim.load_initial_state(rinit);
  for (int cycle = 0; cycle < 300; ++cycle) {
    sim.randomize_inputs(rng);
    sim.eval();
    for (int k = 0; k < 64; ++k) {
      int grants = 0;
      for (size_t u = 0; u < p.units; ++u)
        grants += sim.value_bit(n.find("grant" + std::to_string(u)), k);
      EXPECT_LE(grants, 1) << "cycle " << cycle;
    }
    sim.step();
  }
}

TEST(ProcessorDesign, ErrorFlagIsReachableByDirectedStimulus) {
  const auto p = small_proc();  // counter_bits=4 -> magic = 8
  const ProcessorDesign d = make_processor(p);
  const Netlist& n = d.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  for (GateId in : n.inputs()) sim.set(in, Tri::F);

  auto cycle = [&]() {
    sim.eval();
    sim.step();
  };
  // Start unit 0, run until the session counter arms, cancel, collect the
  // grant and flush.
  sim.set(n.find("start0"), Tri::T);
  cycle();  // idle -> run
  sim.set(n.find("start0"), Tri::F);
  for (int i = 0; i < 9; ++i) cycle();  // session counts to the magic value
  EXPECT_EQ(sim.value(n.find("armed")), Tri::T);
  sim.set(n.find("cancel0"), Tri::T);
  cycle();  // run -> wait
  sim.set(n.find("cancel0"), Tri::F);
  cycle();  // arbiter grants unit 0
  EXPECT_EQ(sim.value(n.find("grant0")), Tri::T);
  sim.set(n.find("flush"), Tri::T);
  cycle();  // error flag latches
  EXPECT_EQ(sim.value(d.error_flag), Tri::T);
}

// --- IU ---

TEST(IuDesign, StallControllerStaysOneHot) {
  const IuDesign d = make_iu({});
  d.netlist.check();
  ASSERT_EQ(d.coverage_sets.size(), 5u);
  for (const auto& set : d.coverage_sets) EXPECT_EQ(set.size(), 10u);

  const Netlist& n = d.netlist;
  Sim64 sim(n);
  Rng rng(5), rinit(8);
  sim.load_initial_state(rinit);
  for (int cycle = 0; cycle < 300; ++cycle) {
    sim.randomize_inputs(rng);
    sim.eval();
    for (int k = 0; k < 64; ++k) {
      int hot = 0;
      for (int s = 0; s < 5; ++s)
        hot += sim.value_bit(n.find("stall" + std::to_string(s)), k);
      EXPECT_EQ(hot, 1) << "cycle " << cycle;
    }
    sim.step();
  }
}

TEST(IuDesign, DecodeFsmAvoidsIllegalStates) {
  const IuDesign d = make_iu({});
  const Netlist& n = d.netlist;
  Sim64 sim(n);
  Rng rng(6), rinit(9);
  sim.load_initial_state(rinit);
  for (int cycle = 0; cycle < 300; ++cycle) {
    sim.randomize_inputs(rng);
    sim.eval();
    for (int k = 0; k < 64; ++k) {
      int v = 0;
      for (int i = 0; i < 3; ++i)
        v |= sim.value_bit(n.find("dec[" + std::to_string(i) + "]"), k) << i;
      EXPECT_LE(v, 5) << "cycle " << cycle;
    }
    sim.step();
  }
}

TEST(IuDesign, CoverageSetsShareCoi) {
  const IuDesign d = make_iu({});
  std::vector<size_t> coi_sizes;
  for (const auto& set : d.coverage_sets)
    coi_sizes.push_back(coi_registers(d.netlist, set).size());
  // The control is strongly connected: all five COIs have the same size
  // (the paper remarks the same about its IU coverage sets).
  for (size_t i = 1; i < coi_sizes.size(); ++i) EXPECT_EQ(coi_sizes[i], coi_sizes[0]);
  EXPECT_GT(coi_sizes[0], 100u);  // clutter included
}

// --- USB ---

TEST(UsbDesign, ProtocolInvariantsUnderRandomTraffic) {
  const UsbDesign d = make_usb({});
  d.netlist.check();
  EXPECT_EQ(d.usb1.size(), 6u);
  EXPECT_EQ(d.usb2.size(), 21u);

  const Netlist& n = d.netlist;
  Sim64 sim(n);
  Rng rng(12), rinit(13);
  sim.load_initial_state(rinit);
  for (int cycle = 0; cycle < 400; ++cycle) {
    sim.randomize_inputs(rng);
    sim.eval();
    for (int k = 0; k < 64; ++k) {
      // Line register never holds SE1 (3).
      const int line = sim.value_bit(n.find("line[0]"), k) |
                       (sim.value_bit(n.find("line[1]"), k) << 1);
      EXPECT_NE(line, 3) << "cycle " << cycle;
      // Bit-stuff counter never reaches 7.
      int stuff = 0;
      for (int i = 0; i < 3; ++i)
        stuff |= sim.value_bit(n.find("stuff[" + std::to_string(i) + "]"), k) << i;
      EXPECT_NE(stuff, 7);
      // Packet FSM stays within its 6 defined states.
      int pkt = 0;
      for (int i = 0; i < 3; ++i)
        pkt |= sim.value_bit(n.find("pkt[" + std::to_string(i) + "]"), k) << i;
      EXPECT_LE(pkt, 5);
      // Frame counter never reaches its wrap bound's excluded range.
      int frame = 0;
      for (int i = 0; i < 11; ++i)
        frame |= sim.value_bit(n.find("frame[" + std::to_string(i) + "]"), k) << i;
      EXPECT_LT(frame, 1280);
    }
    sim.step();
  }
}

}  // namespace
}  // namespace rfn
