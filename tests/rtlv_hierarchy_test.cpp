// Tests for the frontend extensions: case statements, multi-module sources,
// and hierarchical elaboration (instantiation with flattening).

#include <gtest/gtest.h>

#include "rtlv/elaborate.hpp"
#include "rtlv/parser.hpp"
#include "sim/sim3.hpp"

namespace rfn {
namespace {

using rtlv::elaborate_verilog;

TEST(RtlvCase, GrayCounterViaCase) {
  const auto design = elaborate_verilog(R"(
    module gray(clk, step, q);
      input clk; input step;
      output [1:0] q;
      reg [1:0] s = 0;
      always @(posedge clk) begin
        if (step) begin
          case (s)
            0: s <= 1;
            1: s <= 3;
            3: s <= 2;
            default: s <= 0;
          endcase
        end
      end
      assign q = s;
    endmodule
  )");
  const Netlist& n = design.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  const GateId step = n.find("step");
  auto value = [&]() {
    return (sim.value(n.output("q[0]")) == Tri::T ? 1 : 0) |
           (sim.value(n.output("q[1]")) == Tri::T ? 2 : 0);
  };
  const int expect[] = {0, 1, 3, 2, 0, 1};
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(value(), expect[c]) << "cycle " << c;
    sim.set(step, Tri::T);
    sim.eval();
    sim.step();
  }
}

TEST(RtlvCase, MultipleLabelsAndNoDefaultHold) {
  const auto design = elaborate_verilog(R"(
    module m(clk, sel, hit);
      input clk;
      input [2:0] sel;
      output hit;
      reg h = 0;
      always @(posedge clk) begin
        case (sel)
          1, 3, 5, 7: h <= 1;
          0: h <= 0;
        endcase
      end
      assign hit = h;
    endmodule
  )");
  const Netlist& n = design.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  auto drive = [&](int v) {
    for (int i = 0; i < 3; ++i)
      sim.set(n.find("sel[" + std::to_string(i) + "]"), tri_of((v >> i) & 1));
    sim.eval();
    sim.step();
  };
  drive(3);  // odd -> set
  EXPECT_EQ(sim.value(n.output("hit")), Tri::T);
  drive(6);  // unmatched, no default -> hold
  EXPECT_EQ(sim.value(n.output("hit")), Tri::T);
  drive(0);  // clear
  EXPECT_EQ(sim.value(n.output("hit")), Tri::F);
}

TEST(RtlvParser, MultiModuleSource) {
  const auto modules = rtlv::parse_modules(R"(
    module a(clk); input clk; endmodule
    module b(clk); input clk; endmodule
  )");
  ASSERT_EQ(modules.size(), 2u);
  EXPECT_EQ(modules[0].name, "a");
  EXPECT_EQ(modules[1].name, "b");
}

constexpr const char* kHierSource = R"(
  module toggler(clk, en, q);
    input clk; input en;
    output q;
    reg t = 0;
    always @(posedge clk) if (en) t <= ~t;
    assign q = t;
  endmodule

  module pair(clk, go, both);
    input clk; input go;
    output both;
    wire q0;
    wire q1;
    toggler first (.clk(clk), .en(go), .q(q0));
    toggler second (.clk(clk), .en(q0), .q(q1));
    assign both = q0 & q1;
  endmodule
)";

TEST(RtlvHierarchy, FlattensInstances) {
  const auto design = elaborate_verilog(kHierSource);
  EXPECT_EQ(design.module_name, "pair");
  const Netlist& n = design.netlist;
  // Two toggler registers, flattened with instance prefixes.
  EXPECT_EQ(n.num_regs(), 2u);
  EXPECT_NE(n.find("first.t"), kNullGate);
  EXPECT_NE(n.find("second.t"), kNullGate);
  // Only the parent's real input remains (clk implicit).
  EXPECT_EQ(n.num_inputs(), 1u);
}

TEST(RtlvHierarchy, BehaviorMatchesSemantics) {
  const auto design = elaborate_verilog(kHierSource);
  const Netlist& n = design.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  const GateId go = n.find("go");
  // first toggles every cycle; second toggles when first's q is high.
  bool t0 = false, t1 = false;
  for (int c = 0; c < 12; ++c) {
    sim.set(go, Tri::T);
    sim.eval();
    EXPECT_EQ(sim.value(n.output("both")), tri_of(t0 && t1)) << "cycle " << c;
    const bool next_t0 = !t0;
    const bool next_t1 = t0 ? !t1 : t1;
    sim.step();
    t0 = next_t0;
    t1 = next_t1;
  }
}

TEST(RtlvHierarchy, PositionalConnections) {
  const auto design = elaborate_verilog(R"(
    module inv(clk, a, y);
      input clk; input a; output y;
      assign y = !a;
    endmodule
    module top(clk, x, z);
      input clk; input x; output z;
      wire mid;
      inv u0 (clk, x, mid);
      inv u1 (clk, mid, z);
    endmodule
  )");
  const Netlist& n = design.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.set(n.find("x"), Tri::T);
  sim.eval();
  EXPECT_EQ(sim.value(n.output("z")), Tri::T);  // double inversion
  sim.set(n.find("x"), Tri::F);
  sim.eval();
  EXPECT_EQ(sim.value(n.output("z")), Tri::F);
}

TEST(RtlvHierarchy, InstancesInAnyDeclarationOrder) {
  // u1 consumes u0's output but is declared first: demand-driven
  // elaboration must handle it.
  const auto design = elaborate_verilog(R"(
    module inv(clk, a, y);
      input clk; input a; output y;
      assign y = !a;
    endmodule
    module top(clk, x, z);
      input clk; input x; output z;
      wire mid;
      inv u1 (.clk(clk), .a(mid), .y(z));
      inv u0 (.clk(clk), .a(x), .y(mid));
    endmodule
  )");
  const Netlist& n = design.netlist;
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.set(n.find("x"), Tri::T);
  sim.eval();
  EXPECT_EQ(sim.value(n.output("z")), Tri::T);
}

TEST(RtlvHierarchy, NestedHierarchy) {
  const auto design = elaborate_verilog(R"(
    module bit(clk, d, q);
      input clk; input d; output q;
      reg r = 0;
      always @(posedge clk) r <= d;
      assign q = r;
    endmodule
    module stage2(clk, d, q);
      input clk; input d; output q;
      wire m;
      bit b0 (.clk(clk), .d(d), .q(m));
      bit b1 (.clk(clk), .d(m), .q(q));
    endmodule
    module top(clk, d, q);
      input clk; input d; output q;
      wire m;
      stage2 s0 (.clk(clk), .d(d), .q(m));
      stage2 s1 (.clk(clk), .d(m), .q(q));
    endmodule
  )");
  const Netlist& n = design.netlist;
  EXPECT_EQ(n.num_regs(), 4u);  // 4-stage shift register, flattened twice
  EXPECT_NE(n.find("s0.b0.r"), kNullGate);
  EXPECT_NE(n.find("s1.b1.r"), kNullGate);
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  sim.set(n.find("d"), Tri::T);
  for (int c = 0; c < 4; ++c) {
    sim.eval();
    sim.step();
  }
  sim.eval();
  EXPECT_EQ(sim.value(n.output("q")), Tri::T);
}

TEST(RtlvHierarchy, TopSelection) {
  const auto design = elaborate_verilog(R"(
    module helper(clk, a, y); input clk; input a; output y; assign y = a; endmodule
    module main_mod(clk, a, y); input clk; input a; output y;
      helper h (.clk(clk), .a(a), .y(y));
    endmodule
  )", "helper");
  EXPECT_EQ(design.module_name, "helper");
}

}  // namespace
}  // namespace rfn
