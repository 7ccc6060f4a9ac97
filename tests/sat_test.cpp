// SAT solver tests: the CDCL solver's incremental-assumption contract that
// the certificate checker (cert/check.hpp) relies on — models, UNSAT
// assumption cores (final_conflict), incremental re-solving after new
// clauses/variables, level-0 inconsistency (ok()), and cooperative
// cancellation that leaves the instance usable.

#include <gtest/gtest.h>

#include <vector>

#include "sat/solver.hpp"
#include "util/cancel.hpp"

namespace rfn {
namespace {

using sat::Lit;
using sat::Solver;

TEST(SatSolver, SatisfiableModel) {
  Solver s;
  const Lit a = Lit::make(s.new_var());
  const Lit b = Lit::make(s.new_var());
  ASSERT_TRUE(s.add_clause({a}));
  ASSERT_TRUE(s.add_clause({~a, b}));
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_EQ(s.lit_value(a), sat::LBool::True);
  EXPECT_EQ(s.lit_value(b), sat::LBool::True);
}

TEST(SatSolver, AssumptionCoreNamesOnlyUsedAssumptions) {
  Solver s;
  const Lit a = Lit::make(s.new_var());
  const Lit b = Lit::make(s.new_var());
  const Lit c = Lit::make(s.new_var());
  // a and b are jointly contradictory; c is irrelevant.
  ASSERT_TRUE(s.add_clause({~a, ~b}));
  ASSERT_EQ(s.solve({a, b, c}), Solver::Result::Unsat);
  std::vector<Lit> core = s.final_conflict();
  EXPECT_EQ(core.size(), 2u);
  EXPECT_NE(std::find(core.begin(), core.end(), a), core.end());
  EXPECT_NE(std::find(core.begin(), core.end(), b), core.end());
  EXPECT_EQ(std::find(core.begin(), core.end(), c), core.end());
  // The formula without the assumptions is still satisfiable: incremental
  // re-solve must succeed on the same instance.
  ASSERT_EQ(s.solve({a, c}), Solver::Result::Sat);
  EXPECT_EQ(s.lit_value(b), sat::LBool::False);
}

TEST(SatSolver, IncrementalClausesAndVariables) {
  Solver s;
  std::vector<Lit> chain;
  for (int i = 0; i < 8; ++i) chain.push_back(Lit::make(s.new_var()));
  for (size_t i = 0; i + 1 < chain.size(); ++i)
    ASSERT_TRUE(s.add_clause({~chain[i], chain[i + 1]}));  // chain[i] -> chain[i+1]
  ASSERT_EQ(s.solve({chain.front()}), Solver::Result::Sat);
  for (const Lit l : chain) EXPECT_EQ(s.lit_value(l), sat::LBool::True);

  // Close the contradiction after the first solve; the head assumption is
  // now refutable and the core is exactly that assumption.
  ASSERT_TRUE(s.add_clause({~chain.back()}));
  ASSERT_EQ(s.solve({chain.front()}), Solver::Result::Unsat);
  ASSERT_EQ(s.final_conflict().size(), 1u);
  EXPECT_EQ(s.final_conflict().front(), chain.front());

  // Fresh variables after solves keep working.
  const Lit d = Lit::make(s.new_var());
  ASSERT_TRUE(s.add_clause({d}));
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_EQ(s.lit_value(d), sat::LBool::True);
}

TEST(SatSolver, LevelZeroConflictTurnsOkFalse) {
  Solver s;
  const Lit a = Lit::make(s.new_var());
  ASSERT_TRUE(s.add_clause({a}));
  EXPECT_FALSE(s.add_clause({~a}));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.solve(), Solver::Result::Unsat);
  EXPECT_TRUE(s.final_conflict().empty());
}

TEST(SatSolver, CancellationLeavesInstanceUsable) {
  // A pre-cancelled token must yield Undef without corrupting state; the
  // same instance then answers the query once the pressure is lifted.
  Solver s;
  std::vector<Lit> pigeons;
  // Pigeonhole instance (7 pigeons, 6 holes): resolution-hard enough that
  // the solver cannot answer before its first cancellation poll (every 256
  // search steps).
  const int np = 7, nh = 6;
  std::vector<std::vector<Lit>> p(np, std::vector<Lit>(nh));
  for (int i = 0; i < np; ++i)
    for (int j = 0; j < nh; ++j) p[i][j] = Lit::make(s.new_var());
  for (int i = 0; i < np; ++i) {
    std::vector<Lit> at_least = p[i];
    ASSERT_TRUE(s.add_clause(std::move(at_least)));
  }
  for (int j = 0; j < nh; ++j)
    for (int i = 0; i < np; ++i)
      for (int k = i + 1; k < np; ++k) ASSERT_TRUE(s.add_clause({~p[i][j], ~p[k][j]}));

  CancelToken cancelled;
  cancelled.cancel();
  EXPECT_EQ(s.solve({}, &cancelled), Solver::Result::Undef);
  EXPECT_TRUE(s.ok());

  CancelToken open;
  EXPECT_EQ(s.solve({}, &open), Solver::Result::Unsat);
}

}  // namespace
}  // namespace rfn
