// Tests for the Verilog-subset RTL frontend: lexer, parser, elaborator, and
// functional equivalence of elaborated designs against hand-built netlists.

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "rtlv/elaborate.hpp"
#include "rtlv/lexer.hpp"
#include "rtlv/parser.hpp"
#include "sim/sim3.hpp"
#include "sim/sim64.hpp"
#include "util/rng.hpp"

namespace rfn {
namespace {

using rtlv::elaborate_verilog;

TEST(RtlvLexer, TokensAndLiterals) {
  const auto toks = rtlv::lex("module m; wire [3:0] w; assign w = 4'b1010 + 8'hff; // c\n");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, rtlv::Tok::KwModule);
  EXPECT_EQ(toks[1].text, "m");
  bool found_bin = false, found_hex = false;
  for (const auto& t : toks) {
    if (t.kind == rtlv::Tok::Number && t.width == 4) {
      EXPECT_EQ(t.value, 10u);
      found_bin = true;
    }
    if (t.kind == rtlv::Tok::Number && t.width == 8) {
      EXPECT_EQ(t.value, 255u);
      found_hex = true;
    }
  }
  EXPECT_TRUE(found_bin);
  EXPECT_TRUE(found_hex);
}

TEST(RtlvLexer, CommentsAndOperators) {
  const auto toks = rtlv::lex("a <= b /* x\ny */ == c != d && e || f");
  std::vector<rtlv::Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), rtlv::Tok::NonBlocking), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), rtlv::Tok::EqEq), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), rtlv::Tok::AmpAmp), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), rtlv::Tok::PipePipe), kinds.end());
}

TEST(RtlvParser, ModuleStructure) {
  const auto m = rtlv::parse_module(R"(
    module counter(clk, en, value);
      input clk;
      input en;
      output [3:0] value;
      reg [3:0] cnt = 0;
      assign value = cnt;
      always @(posedge clk) begin
        if (en) cnt <= cnt + 1;
      end
    endmodule
  )");
  EXPECT_EQ(m.name, "counter");
  EXPECT_EQ(m.ports.size(), 3u);
  EXPECT_EQ(m.decls.size(), 4u);
  EXPECT_EQ(m.assigns.size(), 1u);
  ASSERT_EQ(m.always.size(), 1u);
  EXPECT_EQ(m.always[0].clock, "clk");
}

TEST(RtlvElaborate, CounterBehaviour) {
  const auto design = elaborate_verilog(R"(
    module counter(clk, en, value);
      input clk; input en;
      output [3:0] value;
      reg [3:0] cnt = 0;
      assign value = cnt;
      always @(posedge clk) if (en) cnt <= cnt + 1;
    endmodule
  )");
  const Netlist& n = design.netlist;
  EXPECT_EQ(design.module_name, "counter");
  EXPECT_EQ(n.num_regs(), 4u);
  EXPECT_EQ(n.num_inputs(), 1u);  // clk is implicit

  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  const GateId en = n.find("en");
  auto value = [&]() {
    uint64_t v = 0;
    for (int i = 0; i < 4; ++i)
      if (sim.value(n.output("value[" + std::to_string(i) + "]")) == Tri::T)
        v |= 1u << i;
    return v;
  };
  for (int c = 0; c < 5; ++c) {
    sim.set(en, tri_of(c % 2 == 0));  // count on even cycles
    sim.eval();
    sim.step();
  }
  EXPECT_EQ(value(), 3u);  // 3 enabled cycles (0,2,4)
}

TEST(RtlvElaborate, InitializersAndHold) {
  const auto design = elaborate_verilog(R"(
    module m(clk, o);
      input clk; output o;
      reg r = 1;
      reg held = 1;
      always @(posedge clk) r <= ~r;
      assign o = r & held;
    endmodule
  )");
  const Netlist& n = design.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  sim.eval();
  EXPECT_EQ(sim.value(n.output("o")), Tri::T);
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.value(n.output("o")), Tri::F);  // r toggled, held held
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.value(n.output("o")), Tri::T);
}

TEST(RtlvElaborate, NestedIfElsePriority) {
  const auto design = elaborate_verilog(R"(
    module m(clk, a, b, o);
      input clk; input a; input b; output o;
      reg r = 0;
      always @(posedge clk) begin
        if (a) r <= 1;
        else if (b) r <= 0;
        else r <= r;
      end
      assign o = r;
    endmodule
  )");
  const Netlist& n = design.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  const GateId a = n.find("a"), b = n.find("b");
  sim.set(a, Tri::T);
  sim.set(b, Tri::T);  // a wins
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.value(n.output("o")), Tri::T);
  sim.set(a, Tri::F);
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.value(n.output("o")), Tri::F);  // b branch clears
}

TEST(RtlvElaborate, OperatorsMatchSemantics) {
  const auto design = elaborate_verilog(R"(
    module ops(clk, x, y, eq, lt, sum, red, mux);
      input clk;
      input [3:0] x;
      input [3:0] y;
      output eq; output lt; output [3:0] sum; output red; output mux;
      assign eq = x == y;
      assign lt = x < y;
      assign sum = x + y;
      assign red = ^x;
      assign mux = (x >= y) ? x[0] : y[3];
    endmodule
  )");
  const Netlist& n = design.netlist;
  Sim64 sim(n);
  Rng rng(3);
  Word xw, yw;
  for (int i = 0; i < 4; ++i) {
    xw.push_back(n.find("x[" + std::to_string(i) + "]"));
    yw.push_back(n.find("y[" + std::to_string(i) + "]"));
  }
  for (int round = 0; round < 4; ++round) {
    std::vector<uint64_t> xs(4), ys(4);
    for (int i = 0; i < 4; ++i) {
      xs[static_cast<size_t>(i)] = rng.next();
      ys[static_cast<size_t>(i)] = rng.next();
      sim.set(xw[static_cast<size_t>(i)], xs[static_cast<size_t>(i)]);
      sim.set(yw[static_cast<size_t>(i)], ys[static_cast<size_t>(i)]);
    }
    sim.eval();
    for (int k = 0; k < 64; ++k) {
      uint64_t xv = 0, yv = 0;
      for (int i = 0; i < 4; ++i) {
        xv |= static_cast<uint64_t>((xs[static_cast<size_t>(i)] >> k) & 1) << i;
        yv |= static_cast<uint64_t>((ys[static_cast<size_t>(i)] >> k) & 1) << i;
      }
      EXPECT_EQ(sim.value_bit(n.output("eq"), k), xv == yv);
      EXPECT_EQ(sim.value_bit(n.output("lt"), k), xv < yv);
      uint64_t sumv = 0;
      for (int i = 0; i < 4; ++i)
        sumv |= static_cast<uint64_t>(sim.value_bit(n.output("sum[" + std::to_string(i) + "]"), k)) << i;
      EXPECT_EQ(sumv, (xv + yv) & 0xF);
      EXPECT_EQ(sim.value_bit(n.output("red"), k), (__builtin_popcountll(xv) & 1) != 0);
      const bool expect_mux = xv >= yv ? ((xv >> 0) & 1) : ((yv >> 3) & 1);
      EXPECT_EQ(sim.value_bit(n.output("mux"), k), expect_mux);
    }
  }
}

TEST(RtlvElaborate, ConcatAndRanges) {
  const auto design = elaborate_verilog(R"(
    module m(clk, a, o);
      input clk;
      input [3:0] a;
      output [3:0] o;
      wire [3:0] swapped;
      assign swapped = {a[1:0], a[3:2]};
      assign o = swapped;
    endmodule
  )");
  const Netlist& n = design.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  // a = 0b0111 -> swapped = {2'b11, 2'b01} = 0b1101.
  for (int i = 0; i < 4; ++i)
    sim.set(n.find("a[" + std::to_string(i) + "]"), tri_of(i < 3));
  sim.eval();
  const bool expect[4] = {true, false, true, true};
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(sim.value(n.output("o[" + std::to_string(i) + "]")), tri_of(expect[i]))
        << "bit " << i;
}

TEST(RtlvElaborate, EquivalentToHandBuiltNetlist) {
  // The same design written in Verilog and via NetBuilder must agree on
  // random stimulus.
  const auto design = elaborate_verilog(R"(
    module gray(clk, en, q);
      input clk; input en;
      output [2:0] q;
      reg [2:0] cnt = 0;
      assign q = {cnt[2], cnt[2] ^ cnt[1], cnt[1] ^ cnt[0]};
      always @(posedge clk) if (en) cnt <= cnt + 1;
    endmodule
  )");

  NetBuilder b;
  const GateId en = b.input("en");
  const Word cnt = b.reg_word("cnt", 3, 0);
  b.set_next_word(cnt, b.mux_word(en, cnt, b.inc_word(cnt)));
  // q LSB-first: q[0] = cnt1^cnt0, q[1] = cnt2^cnt1, q[2] = cnt2.
  const Word q{b.xor_(cnt[1], cnt[0]), b.xor_(cnt[2], cnt[1]), b.buf(cnt[2])};
  Netlist hand = b.take();

  const Netlist& rtl = design.netlist;
  Sim64 s1(rtl), s2(hand);
  Rng rng(11), rinit(1);
  s1.load_initial_state(rinit);
  s2.load_initial_state(rinit);
  for (int c = 0; c < 12; ++c) {
    const uint64_t e = rng.next();
    s1.set(rtl.find("en"), e);
    s2.set(en, e);
    s1.eval();
    s2.eval();
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(s1.value(rtl.output("q[" + std::to_string(i) + "]")), s2.value(q[static_cast<size_t>(i)]))
          << "cycle " << c << " bit " << i;
    s1.step();
    s2.step();
  }
}

}  // namespace
}  // namespace rfn
