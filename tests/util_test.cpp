// Tests for the utility layer: options parsing, tables, RNG, cancel tokens,
// logging plumbing, and the netlist writers.

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/writer.hpp"
#include "util/cancel.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace rfn {
namespace {

TEST(Options, ParsesAllForms) {
  // Note the greedy "--key value" form: a bare --flag followed by a
  // non-dashed token consumes it as the flag's value, so positionals should
  // come first (as the examples' usage strings show) or flags use --k=v.
  const char* argv[] = {"prog", "pos1",       "--alpha=3", "--beta", "7",
                        "pos2", "--gamma=hi", "--flag",    "--ratio=2.5"};
  Options opts(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("alpha", 0), 3);
  EXPECT_EQ(opts.get_int("beta", 0), 7);
  EXPECT_TRUE(opts.get_bool("flag", false));
  EXPECT_EQ(opts.get("gamma", ""), "hi");
  EXPECT_DOUBLE_EQ(opts.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(opts.get_int("missing", 42), 42);
  ASSERT_EQ(opts.positionals().size(), 2u);
  EXPECT_EQ(opts.positionals()[0], "pos1");
  EXPECT_FALSE(opts.has("absent"));
}

TEST(Options, NegativeNumberIsTheValueOfTheKeyBeforeIt) {
  // Other dash-led tokens still start the next flag (or stay positionals).
  const char* argv[] = {"prog", "--time-limit", "-1",  "--ratio", "-2.5",
                        "--flag", "-x",         "--last"};
  Options opts(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  EXPECT_EQ(opts.get("time-limit", ""), "-1");
  EXPECT_DOUBLE_EQ(opts.get_double("ratio", 0.0), -2.5);
  EXPECT_EQ(opts.get("flag", ""), "1");
  EXPECT_EQ(opts.get("last", ""), "1");
  ASSERT_EQ(opts.positionals().size(), 1u);
  EXPECT_EQ(opts.positionals()[0], "-x");
  EXPECT_EQ(opts.keys(),
            (std::vector<std::string>{"time-limit", "ratio", "flag", "last"}));
}

TEST(Options, BoolForms) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=no", "--d=1"};
  Options opts(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  EXPECT_FALSE(opts.get_bool("a", true));
  EXPECT_FALSE(opts.get_bool("b", true));
  EXPECT_FALSE(opts.get_bool("c", true));
  EXPECT_TRUE(opts.get_bool("d", false));
}

TEST(TableFormat, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name   | value"), std::string::npos);
  EXPECT_NE(s.find("-------+------"), std::string::npos);
  EXPECT_NE(s.find("longer | 22"), std::string::npos);
}

TEST(TableFormat, Helpers) {
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Rng, DeterministicAndWellDistributed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  // Different seeds diverge.
  Rng a2(123);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) diverged |= a2.next() != c.next();
  EXPECT_TRUE(diverged);
  // below() respects the bound; uniform() in [0,1).
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CancelTokenTest, NoLimitNeverExpires) {
  const CancelToken plain;
  EXPECT_FALSE(plain.expired());
  EXPECT_FALSE(plain.cancelled());
  const CancelToken unlimited(-1.0);
  EXPECT_FALSE(unlimited.expired());
  EXPECT_FALSE(unlimited.cancelled());
  EXPECT_FALSE(should_stop(&unlimited));
  EXPECT_FALSE(should_stop(nullptr));
}

TEST(CancelTokenTest, ZeroLimitExpiresAtOnce) {
  const CancelToken t(0.0);
  EXPECT_TRUE(t.expired());
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(should_stop(&t));
}

TEST(CancelTokenTest, CancelledParentCancelsChild) {
  CancelToken parent;
  const CancelToken child(-1.0, &parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
  // The child's own limit has not run out: only the parent stopped it.
  EXPECT_FALSE(child.expired());
}

TEST(LogLevelTest, SetAndGet) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(old);
}

TEST(Writer, DotContainsAllCells) {
  NetBuilder b;
  const GateId in = b.input("clk_in");
  const GateId r = b.reg("state");
  b.set_next(r, b.not_(in));
  Netlist n = b.take();
  const std::string dot = to_dot(n);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("clk_in"), std::string::npos);
  EXPECT_NE(dot.find("state"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Writer, StatsLine) {
  NetBuilder b;
  b.input("a");
  const GateId r = b.reg("r");
  b.set_next(r, r);
  Netlist n = b.take();
  EXPECT_EQ(stats_line(n), "inputs=1 regs=1 gates=0 outputs=0");
}

TEST(Writer, TraceToString) {
  NetBuilder b;
  const GateId in = b.input("go");
  const GateId r = b.reg("st");
  b.set_next(r, in);
  Netlist n = b.take();
  Trace t;
  t.steps.push_back({{{r, false}}, {{in, true}}});
  t.steps.push_back({{{r, true}}, {}});
  const std::string s = trace_to_string(n, t);
  EXPECT_NE(s.find("cycle 1"), std::string::npos);
  EXPECT_NE(s.find("go=1"), std::string::npos);
  EXPECT_NE(s.find("st=1"), std::string::npos);
}

}  // namespace
}  // namespace rfn
