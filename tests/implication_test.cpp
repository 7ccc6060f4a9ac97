// Unit tests for the 3-valued implication engine.

#include "atpg/implication.hpp"

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "util/rng.hpp"

#include "random_netlist.hpp"

namespace rfn {
namespace {

TEST(Implication, ForwardPropagation) {
  NetBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  const GateId g = b.and_(a, c);
  const GateId h = b.or_(g, a);
  Netlist n = b.take();
  const NetlistGraph graph(n);
  ImplicationEngine eng(graph);
  EXPECT_TRUE(eng.assign(a, true));
  EXPECT_EQ(eng.value(g), Tri::X);
  EXPECT_EQ(eng.value(h), Tri::T);  // or(x, 1) = 1
  EXPECT_TRUE(eng.assign(c, true));
  EXPECT_EQ(eng.value(g), Tri::T);
}

TEST(Implication, BackwardAndRule) {
  NetBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  const GateId g = b.and_(a, c);
  Netlist n = b.take();
  const NetlistGraph graph(n);
  ImplicationEngine eng(graph);
  // and = 1 forces both fanins to 1.
  EXPECT_TRUE(eng.assign(g, true));
  EXPECT_EQ(eng.value(a), Tri::T);
  EXPECT_EQ(eng.value(c), Tri::T);
}

TEST(Implication, BackwardLastXFanin) {
  NetBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  const GateId g = b.and_(a, c);
  Netlist n = b.take();
  const NetlistGraph graph(n);
  ImplicationEngine eng(graph);
  EXPECT_TRUE(eng.assign(g, false));
  EXPECT_EQ(eng.value(a), Tri::X);  // two unknowns: no implication yet
  EXPECT_TRUE(eng.assign(a, true));
  EXPECT_EQ(eng.value(c), Tri::F);  // and=0 with a=1 forces c=0
}

TEST(Implication, XorBothDirections) {
  NetBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  const GateId g = b.xor_(a, c);
  Netlist n = b.take();
  const NetlistGraph graph(n);
  ImplicationEngine eng(graph);
  EXPECT_TRUE(eng.assign(g, true));
  EXPECT_TRUE(eng.assign(a, true));
  EXPECT_EQ(eng.value(c), Tri::F);
}

TEST(Implication, MuxBackward) {
  NetBuilder b;
  const GateId s = b.input("s");
  const GateId d0 = b.input("d0");
  const GateId d1 = b.input("d1");
  const GateId g = b.mux(s, d0, d1);
  Netlist n = b.take();
  {
    const NetlistGraph graph(n);
    ImplicationEngine eng(graph);
    EXPECT_TRUE(eng.assign(g, true));
    EXPECT_TRUE(eng.assign(s, false));
    EXPECT_EQ(eng.value(d0), Tri::T);
    EXPECT_EQ(eng.value(d1), Tri::X);
  }
  {
    // Output 1 with d0=0 forces the select to 1 and d1 to 1.
    const NetlistGraph graph(n);
    ImplicationEngine eng(graph);
    EXPECT_TRUE(eng.assign(g, true));
    EXPECT_TRUE(eng.assign(d0, false));
    EXPECT_EQ(eng.value(s), Tri::T);
    EXPECT_EQ(eng.value(d1), Tri::T);
  }
}

TEST(Implication, ConflictDetection) {
  NetBuilder b;
  const GateId a = b.input("a");
  const GateId g = b.not_(a);
  Netlist n = b.take();
  const NetlistGraph graph(n);
  ImplicationEngine eng(graph);
  EXPECT_TRUE(eng.assign(a, true));
  EXPECT_EQ(eng.value(g), Tri::F);
  EXPECT_FALSE(eng.assign(g, true));
}

TEST(Implication, TrailUndoRestoresX) {
  NetBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  const GateId g = b.and_(a, c);
  Netlist n = b.take();
  const NetlistGraph graph(n);
  ImplicationEngine eng(graph);
  const size_t m0 = eng.mark();
  EXPECT_TRUE(eng.assign(g, true));
  EXPECT_EQ(eng.value(a), Tri::T);
  eng.undo_to(m0);
  EXPECT_EQ(eng.value(a), Tri::X);
  EXPECT_EQ(eng.value(g), Tri::X);
  // Constants are untouched by undo.
  EXPECT_TRUE(eng.assign(g, false));
}

TEST(Implication, JustificationFrontier) {
  NetBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  const GateId g = b.or_(a, c);
  Netlist n = b.take();
  const NetlistGraph graph(n);
  ImplicationEngine eng(graph);
  EXPECT_TRUE(eng.assign(g, true));
  // or=1 with both inputs X is unjustified.
  EXPECT_FALSE(eng.justified(g));
  EXPECT_EQ(eng.find_unjustified(), g);
  EXPECT_TRUE(eng.assign(a, true));
  EXPECT_TRUE(eng.justified(g));
  EXPECT_EQ(eng.find_unjustified(), kNullGate);
}

// find_unjustified() resumes from checkpoints of the justified trail prefix.
// Under random assign/undo_to sequences (conflicting assigns included) it
// must name exactly the gate a full rescan of the trail names.
TEST(Implication, IncrementalFrontierMatchesRescan) {
  const auto rescan = [](const ImplicationEngine<NetlistGraph>& eng) {
    for (GateId g : eng.trail())
      if (!eng.justified(g)) return g;
    return kNullGate;
  };
  Rng rng(20261017);
  for (int round = 0; round < 60; ++round) {
    const Netlist n = random_netlist(rng, 2 + rng.below(6), rng.below(5),
                                     20 + static_cast<int>(rng.below(60)));
    const NetlistGraph graph(n);
    ImplicationEngine eng(graph);
    std::vector<size_t> marks;  // marks of the live assignments, increasing
    for (int step = 0; step < 150; ++step) {
      if (!marks.empty() && rng.below(4) == 0) {
        const size_t k = rng.below(marks.size());
        eng.undo_to(marks[k]);
        marks.resize(k);
      } else {
        marks.push_back(eng.mark());
        const GateId g = static_cast<GateId>(rng.below(n.size()));
        if (!eng.assign(g, rng.flip())) {
          // The frontier is defined on a conflicting trail too.
          ASSERT_EQ(eng.find_unjustified(), rescan(eng))
              << "round " << round << " step " << step << " (conflict)";
          eng.undo_to(marks.back());
          marks.pop_back();
        }
      }
      ASSERT_EQ(eng.find_unjustified(), rescan(eng))
          << "round " << round << " step " << step;
    }
  }
}

}  // namespace
}  // namespace rfn
