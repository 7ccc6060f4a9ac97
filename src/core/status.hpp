#pragma once
// One home for the tool's verdict/status vocabulary.
//
// Three engine layers each report a small closed outcome enum — the CEGAR
// loop's Verdict, BDD reachability's ReachStatus, and ATPG's AtpgStatus —
// and every consumer (trace_json, the CLI engine table, log lines, the
// bench tables) needs the same canonical spelling. The names used to be
// hand-rolled in three .cpp files; they live here as `to_string` overloads
// so a renamed state cannot drift between the JSON schema and the console.
//
// The strings are part of the rfn-trace-v2 schema and of the bench
// tables quoted in EXPERIMENTS.md; changing one is a schema change.

#include "atpg/comb_atpg.hpp"
#include "mc/reach.hpp"

namespace rfn {

/// Final outcome of a property run (the CEGAR loop / a session property).
/// The verdict rule: a run that a budget stopped undecided is ResourceOut,
/// and its RfnResult::budget_trip names the budget ("wall-budget",
/// "bdd-node-budget", "mem-budget"); Unknown means the loop stopped for
/// another reason (iteration or step limits, an exhausted hybrid walk, no
/// crucial registers, external cancellation) and carries no trip. Holds
/// and Fails may carry one: a verdict reached before the trip is kept.
enum class Verdict { Holds, Fails, Unknown, ResourceOut };

constexpr const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Holds: return "T";
    case Verdict::Fails: return "F";
    case Verdict::Unknown: return "?";
    case Verdict::ResourceOut: return "resource-out";
  }
  return "?";
}

constexpr const char* to_string(ReachStatus s) {
  switch (s) {
    case ReachStatus::Proved: return "proved";
    case ReachStatus::BadReachable: return "bad-reachable";
    case ReachStatus::ResourceOut: return "resource-out";
  }
  return "?";
}

constexpr const char* to_string(AtpgStatus s) {
  switch (s) {
    case AtpgStatus::Sat: return "sat";
    case AtpgStatus::Unsat: return "unsat";
    case AtpgStatus::Abort: return "abort";
  }
  return "?";
}

}  // namespace rfn
