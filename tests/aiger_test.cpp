// AIGER 1.9 frontend tests: elaboration structure, symbol tables, reset
// semantics against the 3-valued simulator, constraint folding, the B=0
// output compatibility rule, write/read round-trips across both encodings,
// witness export golden strings — and a negative suite asserting that every
// malformed-input class comes back as a clean diagnostic, never a crash.

#include <gtest/gtest.h>

#include "aiger/aiger.hpp"
#include "netlist/analysis.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"

namespace rfn {
namespace {

aiger::AigerDesign must_read(const std::string& text) {
  aiger::AigerDesign d;
  std::string error;
  EXPECT_TRUE(aiger::read_aiger(text, &d, &error)) << error;
  return d;
}

/// Asserts the parse fails and the diagnostic mentions `what`.
void expect_error(const std::string& text, const std::string& what) {
  aiger::AigerDesign d;
  std::string error;
  ASSERT_FALSE(aiger::read_aiger(text, &d, &error)) << "accepted: " << text;
  EXPECT_NE(error.find(what), std::string::npos)
      << "diagnostic '" << error << "' does not mention '" << what << "'";
}

// Two toggling latches, and-gate, one holds + one fails property. ASCII and
// a byte-equivalent binary twin (I=0, so the encodings differ only in the
// and section).
const char kTwoLatch[] =
    "aag 3 0 2 0 1 2\n"
    "2 3\n"
    "4 6\n"
    "6\n"
    "2\n"
    "6 4 2\n"
    "l0 b0r\n"
    "l1 b1r\n"
    "b0 both_high\n"
    "b1 bit0\n";

TEST(AigerReader, ElaboratesStructureAndSymbols) {
  const aiger::AigerDesign d = must_read(kTwoLatch);
  EXPECT_EQ(d.num_inputs, 0u);
  EXPECT_EQ(d.num_latches, 2u);
  EXPECT_EQ(d.num_ands, 1u);
  EXPECT_EQ(d.num_bad, 2u);
  EXPECT_FALSE(d.binary);
  EXPECT_FALSE(d.constraints_folded);

  const Netlist& n = d.netlist;
  EXPECT_EQ(n.num_regs(), 2u);
  EXPECT_EQ(n.num_inputs(), 0u);
  ASSERT_EQ(d.properties.size(), 2u);
  EXPECT_EQ(d.properties[0].name, "both_high");
  EXPECT_EQ(d.properties[1].name, "bit0");
  // Symbols land as gate names and properties as named outputs.
  EXPECT_NE(n.find("b0r"), kNullGate);
  EXPECT_NE(n.find("b1r"), kNullGate);
  EXPECT_EQ(n.output("both_high"), d.properties[0].signal);
  EXPECT_EQ(n.output("bit0"), d.properties[1].signal);
  EXPECT_TRUE(n.is_reg(d.properties[1].signal));
  EXPECT_EQ(n.type(d.properties[0].signal), GateType::And);
}

TEST(AigerReader, BinaryAndAsciiElaborateIdentically) {
  const aiger::AigerDesign a = must_read(kTwoLatch);
  const std::string bin = aiger::write_aiger(a.netlist, true);
  ASSERT_EQ(bin.rfind("aig ", 0), 0u);
  const aiger::AigerDesign b = must_read(bin);
  EXPECT_TRUE(b.binary);
  EXPECT_EQ(design_hash(a.netlist), design_hash(b.netlist));
  ASSERT_EQ(b.properties.size(), 2u);
  EXPECT_EQ(b.properties[0].name, "both_high");
}

TEST(AigerReader, AndGatesResolveOutOfFileOrder) {
  // a4 references a6, declared later: legal in ASCII mode.
  const aiger::AigerDesign d = must_read(
      "aag 3 1 0 1 2\n"
      "2\n"
      "4\n"
      "4 6 2\n"
      "6 2 2\n");  // strash folds a&a to a, so both gates collapse to i0
  ASSERT_EQ(d.properties.size(), 1u);
  EXPECT_TRUE(d.netlist.is_input(d.properties[0].signal));
}

TEST(AigerReader, ResetSemanticsMatchThreeValuedSimulation) {
  // Three latches: reset 0 (default), reset 1, uninitialized (own literal).
  const aiger::AigerDesign d = must_read(
      "aag 3 0 3 3 0\n"
      "2 2\n"
      "4 4 1\n"
      "6 6 6\n"
      "2\n"
      "4\n"
      "6\n"
      "l0 zero\nl1 one\nl2 wild\n");
  const Netlist& n = d.netlist;
  EXPECT_EQ(n.reg_init(n.find("zero")), Tri::F);
  EXPECT_EQ(n.reg_init(n.find("one")), Tri::T);
  EXPECT_EQ(n.reg_init(n.find("wild")), Tri::X);

  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  sim.eval();
  EXPECT_EQ(sim.value(n.find("zero")), Tri::F);
  EXPECT_EQ(sim.value(n.find("one")), Tri::T);
  EXPECT_EQ(sim.value(n.find("wild")), Tri::X);
  // Self-loop next-states: the values persist across a step.
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.value(n.find("one")), Tri::T);
  EXPECT_EQ(sim.value(n.find("wild")), Tri::X);
}

TEST(AigerReader, OutputsBecomePropertiesWhenNoBadSection) {
  // Pre-1.9 style: B = 0, outputs are the properties.
  const aiger::AigerDesign d = must_read(
      "aag 1 0 1 1 0\n"
      "2 3\n"
      "2\n"
      "o0 toggles\n");
  ASSERT_EQ(d.properties.size(), 1u);
  EXPECT_EQ(d.properties[0].name, "toggles");
  EXPECT_EQ(d.num_bad, 0u);
  EXPECT_EQ(d.num_outputs, 1u);
}

TEST(AigerReader, PlainOutputsStayOutOfThePropertyListWhenBadsExist) {
  const aiger::AigerDesign d = must_read(
      "aag 1 0 1 1 0 1\n"
      "2 3\n"
      "2\n"    // o0: observable only
      "2\n");  // b0: the property
  ASSERT_EQ(d.properties.size(), 1u);
  EXPECT_EQ(d.properties[0].name, "b0");
  EXPECT_EQ(d.netlist.outputs().size(), 2u);  // b0 and o0 both registered
}

TEST(AigerReader, ConstraintsFoldIntoProperties) {
  // Latch t toggles; input i. bad = t, constraint = ~t. Unconstrained the
  // bad fires at cycle 1; under the invariant constraint "~t holds at every
  // step" the property can never fire (any step with t=1 violates the
  // constraint in the same step, and the monitor kills later steps).
  const aiger::AigerDesign d = must_read(
      "aag 2 1 1 0 0 1 1\n"
      "2\n"
      "4 5\n"
      "4\n"
      "5\n");
  EXPECT_TRUE(d.constraints_folded);
  ASSERT_EQ(d.properties.size(), 1u);
  const Netlist& n = d.netlist;
  // A fresh monitor register exists beyond the declared latch.
  EXPECT_EQ(n.num_regs(), 2u);
  EXPECT_NE(n.find("_aiger_constraints_ok"), kNullGate);
  // Unconstrained, bad = t fires at cycle 1 (the latch toggles from 0).
  // Folded as t AND ok AND ~t it can never fire: simulate a few cycles.
  const TopoIndex topo(n);
  Sim3 sim(topo);
  sim.load_initial_state();
  for (int cycle = 0; cycle < 4; ++cycle) {
    sim.clear_inputs();
    sim.eval();
    EXPECT_EQ(sim.value(d.properties[0].signal), Tri::F) << "cycle " << cycle;
    sim.step();
  }
}

TEST(AigerWriter, RoundTripIsIdempotentOnTheDesignHash) {
  // A netlist using every decomposable gate type.
  NetBuilder b;
  const GateId i0 = b.input("i0");
  const GateId i1 = b.input("i1");
  const GateId r0 = b.reg("r0", Tri::T);
  const GateId r1 = b.reg("r1", Tri::X);
  b.set_next(r0, b.xor_(r0, i0));
  b.set_next(r1, b.mux(i1, r1, b.nor_(r0, i0)));
  b.output("bad", b.and_(b.or_(r0, r1), b.xnor_(i0, r1)));
  const Netlist m = b.take();

  std::string error;
  aiger::AigerDesign d2, d3;
  const std::string f1 = aiger::write_aiger(m, false);
  ASSERT_TRUE(aiger::read_aiger(f1, &d2, &error)) << error;
  const std::string f2 = aiger::write_aiger(d2.netlist, false);
  ASSERT_TRUE(aiger::read_aiger(f2, &d3, &error)) << error;
  EXPECT_EQ(design_hash(d2.netlist), design_hash(d3.netlist));
  EXPECT_EQ(f2, aiger::write_aiger(d3.netlist, false))
      << "normalized serialization is not a fixpoint";

  // The decomposition preserves semantics: exhaustive 2-input / 4-state
  // check of the property signal, one evaluation per input assignment with
  // registers forced through set().
  const GateId bad1 = m.output("bad");
  const GateId bad2 = d2.netlist.output("bad");
  ASSERT_NE(bad2, kNullGate);
  for (int bits = 0; bits < 16; ++bits) {
    const TopoIndex t1(m), t2(d2.netlist);
    Sim3 s1(t1), s2(t2);
    auto drive = [bits](Sim3& s, const Netlist& n) {
      s.set(n.find("i0"), tri_of(bits & 1));
      s.set(n.find("i1"), tri_of(bits & 2));
      s.set(n.find("r0"), tri_of(bits & 4));
      s.set(n.find("r1"), tri_of(bits & 8));
      s.eval();
    };
    drive(s1, m);
    drive(s2, d2.netlist);
    EXPECT_EQ(s1.value(bad1), s2.value(bad2)) << "assignment " << bits;
  }
}

TEST(AigerWitness, GoldenFormats) {
  EXPECT_EQ(aiger::write_witness_holds(0), "0\nb0\n.\n");
  EXPECT_EQ(aiger::write_witness_holds(7), "0\nb7\n.\n");

  // One input, one latch (r' = in, reset 0), bad = r: a 2-cycle violation
  // driving in=1 then leaving cycle 1 unconstrained. The initial state line
  // comes from the reset value; unassigned inputs print as 'x'.
  const aiger::AigerDesign d = must_read(
      "aag 2 1 1 0 0 1\n"
      "2\n"
      "4 2\n"
      "4\n"
      "i0 in\nl0 r\n");
  Trace t;
  t.steps.resize(2);
  cube_add(t.steps[0].inputs, {d.netlist.find("in"), true});
  EXPECT_EQ(aiger::write_witness_fails(d.netlist, 0, t),
            "1\nb0\n0\n1\nx\n.\n");
}

// --- negative suite: every malformed class is a diagnostic, not a crash ---

TEST(AigerNegative, HeaderErrors) {
  expect_error("", "empty file");
  expect_error("agg 0 0 0 0 0\n", "aag");
  expect_error("aag 1 1 1\n", "header needs");
  expect_error("aag 5 1 1 0 1\n", "M = 5");          // M != I+L+A
  expect_error("aag x 0 0 0 0\n", "not a number");
  expect_error("aag 0 0 0 0 0 0 0 1\n", "justice");  // J = 1
  expect_error("aag 0 0 0 0 0 0 0 0 1\n", "justice");  // F = 1
}

TEST(AigerNegative, OutOfRangeAndUndeclaredLiterals) {
  // Output literal beyond 2M+1.
  expect_error("aag 1 1 0 1 0\n2\n9\n", "out of range");
  // Latch next-state beyond range: the "undeclared latch" class.
  expect_error("aag 1 0 1 0 0\n2 6\n", "out of range");
  // And operand beyond range.
  expect_error("aag 2 1 0 0 1\n2\n4 2 7\n", "out of range");
}

TEST(AigerNegative, Redefinitions) {
  expect_error("aag 2 2 0 0 0\n2\n2\n", "redefines");
  expect_error("aag 2 1 1 0 0\n2\n2 2\n", "redefines");
  expect_error("aag 1 1 0 0 0\n3\n", "must be even");
  expect_error("aag 1 1 0 0 0\n0\n", "constant");
}

TEST(AigerNegative, CombinationalCycle) {
  expect_error("aag 2 0 0 1 2\n2\n2 4 4\n4 2 2\n", "cycle");
  expect_error("aag 1 0 0 0 1\n2 2 2\n", "cycle");  // self-loop
}

TEST(AigerNegative, TruncatedFiles) {
  expect_error("aag 1 1 0 0 0\n", "truncated");       // missing input line
  expect_error("aag 1 0 1 0 0\n", "truncated");       // missing latch line
  expect_error("aag 1 0 1 1 0\n2 3\n", "truncated");  // missing output line
}

TEST(AigerNegative, TruncatedBinaryDeltaCodes) {
  // Binary header expects one and gate; the delta bytes are missing.
  expect_error("aig 1 0 0 0 1\n", "truncated delta");
  // First varint present (continuation bit set) but stream ends.
  expect_error(std::string("aig 1 0 0 0 1\n") + '\x82', "truncated delta");
  // Delta of 0 would make the gate its own operand.
  expect_error(std::string("aig 1 0 0 0 1\n") + '\x00' + '\x00',
               "outside [0, lhs)");
}

TEST(AigerNegative, BadResetValues) {
  expect_error("aag 2 1 1 0 0\n2\n4 2 3\n", "reset");  // arbitrary literal
  expect_error("aag 2 1 1 0 0\n2\n4 2 2\n", "reset");  // another latch's lit
}

TEST(AigerNegative, SymbolTableErrors) {
  const std::string base = "aag 1 1 0 1 0\n2\n2\n";
  expect_error(base + "i1 name\n", "out of range");
  expect_error(base + "i0 a\ni0 b\n", "duplicate symbol");
  expect_error(base + "q0 name\n", "malformed symbol");
  expect_error(base + "i0\n", "malformed symbol");
  // Two properties may not share a name (witness/cert files would collide).
  expect_error("aag 1 0 1 0 0 2\n2 2\n2\n3\nb0 p\nb1 p\n", "duplicate");
  // But a property aliasing a latch/input name is legal — write_aiger emits
  // exactly that for an output registered under its driving gate's name.
  const aiger::AigerDesign alias = must_read(base + "i0 shared\no0 shared\n");
  EXPECT_EQ(alias.properties.size(), 1u);
  // A lone "c" line is a comment though: everything after is ignored.
  const aiger::AigerDesign ok =
      must_read(base + "i0 name\nc\nanything at all\n");
  EXPECT_EQ(ok.properties.size(), 1u);
}

}  // namespace
}  // namespace rfn
