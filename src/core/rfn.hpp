#pragma once
// RFN: the abstraction-refinement property verifier (the paper's core).
//
// Verifies an unreachability property — "the `bad` signal never rises" — on
// a gate-level design by iterating:
//   1. build the abstract model (subcircuit) for the current register set;
//   2. BDD forward fixpoint on the abstract model; Proved there implies
//      Proved on the original design (subcircuit over-approximation), else
//      extract an abstract error trace with the BDD-ATPG hybrid engine;
//   3. concretize on the original design with guided sequential ATPG;
//   4. on spurious traces, refine via 3-valued simulation + greedy ATPG
//      register minimization.
// RFN never performs symbolic image computation on the original design.
//
// run_property() is the one entry point to this loop. Step 2 calls the BDD
// fixpoint and then the hybrid walk, Step 3 calls guided concretization.
// Every run starts from the property's initial abstraction and keeps no
// state past its return: the same design and options walk the same
// trajectory, whoever calls.

#include <string>
#include <vector>

#include "atpg/comb_atpg.hpp"
#include "core/hybrid_trace.hpp"
#include "core/status.hpp"
#include "core/refine.hpp"
#include "mc/reach.hpp"
#include "netlist/netlist.hpp"
#include "util/cancel.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rfn {

struct RfnOptions {
  /// Budgets, one per resource, each enforced where the resource is spent.
  /// A run stopped by one degrades to the ResourceOut verdict with the trip
  /// recorded in RfnResult::budget_trip.
  /// time_limit_s bounds wall time (seconds; negative = unlimited): it is
  /// the limit of the run's CancelToken, which every engine call and every
  /// iteration's BDD manager polls.
  double time_limit_s = -1.0;
  /// budget_bdd_nodes bounds the live nodes of each iteration's BDD manager
  /// (<= 0: off, and the manager keeps kDefaultNodeBudget): the manager's
  /// own cap refuses the allocation past it.
  int64_t budget_bdd_nodes = 0;
  /// budget_mem_mb bounds process RSS as sampled from /proc/self/statm by
  /// the watchdog thread (<= 0: off; no-op off-Linux where RSS reads
  /// return 0).
  int64_t budget_mem_mb = 0;
  size_t max_iterations = 1000;
  /// Per-iteration image-step limit on the abstract model (the fixpoint
  /// polls the run's token for wall time).
  size_t max_reach_steps = ReachOptions{}.max_steps;
  /// External cancellation of the whole run: polled at iteration boundaries
  /// and passed to every engine call.
  const CancelToken* cancel = nullptr;

  /// Checks the options for consistency and returns human-readable errors
  /// (empty = valid) instead of clamping silently at run time. Front doors
  /// (api::run_verify) report these messages; run_property() aborts with
  /// them.
  std::vector<std::string> validate() const;
};

/// Joins validate() messages into one "; "-separated diagnostic line.
std::string join_errors(const std::vector<std::string>& errors);

struct RfnIteration {
  size_t abstract_regs = 0;
  size_t abstract_inputs = 0;
  size_t abstract_gates = 0;
  ReachStatus reach_status{};
  size_t reach_steps = 0;
  /// BDD-manager internals for this iteration's abstract model (each
  /// iteration owns a fresh manager, so these are per-iteration exact).
  size_t bdd_peak_nodes = 0;
  size_t bdd_cache_lookups = 0;
  size_t bdd_cache_hits = 0;
  size_t bdd_reorderings = 0;
  /// Abstract error trace length; 0 when Step 2 found none, and then Step 3
  /// did not run and concretize_status means nothing (trace-v2 writes
  /// "none").
  size_t trace_cycles = 0;
  AtpgStatus concretize_status{};
  RefineStats refine;
  HybridTraceStats hybrid;
  /// Wall time of the Step-2 fixpoint and of the Step-3 concretization (0
  /// when the step did not run).
  double reach_seconds = 0.0;
  double concretize_seconds = 0.0;
  double seconds = 0.0;
};

/// The budget that stopped a run (RfnResult::budget_trip).
struct BudgetTrip {
  bool tripped = false;
  std::string reason;      // "wall-budget" | "bdd-node-budget" | "mem-budget"
  double at_seconds = 0.0;
  int64_t bdd_nodes = 0;   // the cap that refused (node-budget trips)
  int64_t rss_bytes = 0;   // process RSS at the trip (mem-budget trips)
};

/// Kept only so out-of-tree callers that read RfnResult::pdr_invariant
/// still compile: no engine produces an invariant witness, so `present` is
/// always false.
struct PdrInvariantWitness {
  bool present = false;
};

struct RfnResult {
  Verdict verdict = Verdict::Unknown;
  /// Error trace on the original design (Fails only).
  Trace error_trace;
  size_t iterations = 0;
  size_t final_abstract_regs = 0;
  /// The included register set when the run ended (sorted): the final
  /// abstract model, which the holds-invariant certificate is built on.
  std::vector<GateId> final_registers;
  double seconds = 0.0;
  /// Thread-CPU seconds of this run: the calling thread's CPU over the run
  /// (every engine runs inline on it).
  double cpu_seconds = 0.0;
  std::vector<RfnIteration> per_iteration;
  std::string note;  // diagnostic for Unknown/ResourceOut verdicts
  BudgetTrip budget_trip;
  /// Metrics isolation for this run: the registry snapshot taken at run
  /// entry and the epoch id. Serializing the registry against the baseline
  /// (to_json(&metrics_baseline)) yields only this run's work even when
  /// several runs share the process.
  MetricsSnapshot metrics_baseline;
  uint64_t metrics_epoch = 0;
  /// Never set (see PdrInvariantWitness).
  PdrInvariantWitness pdr_invariant;
};

/// Verifies "`bad` never rises" on `m`: `bad` is a signal of `m`, and safety
/// properties are modeled by a watchdog whose output (or state) is `bad`
/// (paper Section 3). Aborts with the RfnOptions::validate() messages on
/// invalid options. The result's final_registers is the final abstract
/// model.
RfnResult run_property(const Netlist& m, GateId bad, const RfnOptions& opt);

}  // namespace rfn
