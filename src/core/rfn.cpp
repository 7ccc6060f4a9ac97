#include "core/rfn.hpp"

#include <algorithm>

#include "atpg/seq_atpg.hpp"
#include "bdd/bdd.hpp"
#include "core/abstraction.hpp"
#include "core/concretize.hpp"
#include "mc/image.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace rfn {

std::vector<std::string> RfnOptions::validate() const {
  std::vector<std::string> errors;
  if (max_iterations == 0)
    errors.push_back("max_iterations must be >= 1");
  if (budget_bdd_nodes < 0)
    errors.push_back("budget_bdd_nodes must be >= 0 (0 disables the budget)");
  if (budget_mem_mb < 0)
    errors.push_back("budget_mem_mb must be >= 0 (0 disables the budget)");
  if (max_reach_steps == 0)
    errors.push_back("max_reach_steps must be >= 1");
  return errors;
}

std::string join_errors(const std::vector<std::string>& errors) {
  std::string s;
  for (const std::string& e : errors) {
    if (!s.empty()) s += "; ";
    s += e;
  }
  return s;
}

// ---------------------------------------------------------------------------
// The abstraction-refinement loop

RfnResult run_property(const Netlist& m, GateId bad, const RfnOptions& opt) {
  RFN_CHECK(bad < m.size(), "bad signal out of range");
  const std::vector<std::string> errors = opt.validate();
  RFN_CHECK(errors.empty(), "invalid options: %s", join_errors(errors).c_str());
  RfnResult result;
  // Per-run metrics isolation: everything this run records is reported
  // relative to this baseline (trace_json serializes against it).
  const MetricsEpoch epoch;
  result.metrics_epoch = epoch.id();
  result.metrics_baseline = epoch.baseline();
  Span run_span("rfn.run");
  const Stopwatch run_watch;
  // CPU attribution: this thread's CPU over the whole run (every engine
  // runs inline on it).
  const int64_t run_cpu0 = prof::thread_cpu_ns();

  // The variable order the last conclusive reach left behind: it seeds the
  // next iteration's manager (Section 2.2), and dies with the run.
  SavedOrder saved_order;

  // M's topological tables, shared by Steps 1, 3 and 4 of every iteration.
  const TopoIndex topo(m);
  const std::vector<GateId> roots{bad};
  std::vector<GateId> included = initial_abstraction_registers(m, roots);

  // One budget per resource, each enforced where it is spent. Wall time:
  // run_token carries time_limit_s and chains any external token; every
  // engine call and every iteration's BDD manager polls it. BDD nodes: each
  // iteration's manager is capped at the budget (kDefaultNodeBudget when
  // none is set). Memory: the watchdog samples RSS and cancels run_token.
  CancelToken run_token(opt.time_limit_s, opt.cancel);
  const CancelToken* cancel = &run_token;
  WatchdogOptions wd_opt;
  wd_opt.mem_budget_mb = opt.budget_mem_mb;
  Watchdog watchdog(wd_opt, &run_token);
  watchdog.start();
  const bool node_budgeted = opt.budget_bdd_nodes > 0;
  const size_t node_cap = node_budgeted
                              ? static_cast<size_t>(opt.budget_bdd_nodes)
                              : kDefaultNodeBudget;
  // An engine that stopped short (a null BDD, an incomplete fixpoint, an
  // empty walk) was either cancelled by the token or refused by the cap.
  const auto stop_note = [&](const char* otherwise) {
    return should_stop(cancel) ? "cancelled" : otherwise;
  };
  // Whether the node budget refused an allocation in the last iteration.
  bool node_budget_hit = false;

  for (size_t iter = 0; iter < opt.max_iterations; ++iter) {
    if (should_stop(cancel)) {
      result.note = "cancelled";
      break;
    }
    RfnIteration it;
    Span iter_span("rfn.iteration");
    iter_span.annotate("iter", static_cast<double>(iter));
    const Stopwatch iter_watch;
    ++result.iterations;

    // --- Step 1: abstract model ---
    std::sort(included.begin(), included.end());
    const Subcircuit sub = extract_abstract_model(topo, roots, included);
    it.abstract_regs = sub.net.num_regs();
    it.abstract_inputs = sub.net.num_inputs();
    it.abstract_gates = sub.net.num_gates();
    RFN_INFO("iter %zu: abstract model regs=%zu inputs=%zu gates=%zu", iter,
             it.abstract_regs, it.abstract_inputs, sub.net.num_gates());

    // --- Step 2: prove, or find an abstract error trace ---
    BddMgr mgr;
    Encoder enc(mgr, sub.net);
    apply_saved_order(mgr, enc, sub, saved_order);
    mgr.set_auto_reorder(true);
    mgr.set_node_budget(node_cap);
    mgr.set_cancel(cancel);
    ImageComputer img(enc);

    // Every exit path of this iteration funnels through here: harvest the
    // per-iteration BDD-manager internals, flush them into the registry
    // (exactly once per manager — it dies with the iteration) and stamp the
    // iteration wall time. "rfn.*" is the loop's own namespace.
    const auto finish_iteration = [&] {
      const BddStats& bs = mgr.stats();
      it.bdd_peak_nodes = bs.peak_live_nodes;
      it.bdd_cache_lookups = bs.cache_lookups;
      it.bdd_cache_hits = bs.cache_hits;
      it.bdd_reorderings = bs.reorderings;
      node_budget_hit = node_budgeted && bs.node_budget_refusals > 0;
      publish_bdd_metrics(bs);
      it.seconds = iter_watch.seconds();
      MetricsRegistry& reg = MetricsRegistry::global();
      reg.counter("rfn.iterations").add(1);
      reg.timer("rfn.iteration").record(it.seconds);
      reg.gauge("rfn.abstract_regs").set(static_cast<int64_t>(it.abstract_regs));
      reg.counter("rfn.refined_registers").add(it.refine.final_count);
      reg.counter("rfn.abstract_trace_cycles").add(it.trace_cycles);
      result.per_iteration.push_back(it);
    };
    // Every conclusive exit: close the iteration record, then set the
    // verdict (and, for Fails, the concrete error trace). The caller breaks.
    const auto conclude = [&](Verdict verdict, Trace error_trace = {}) {
      finish_iteration();
      result.verdict = verdict;
      result.error_trace = std::move(error_trace);
    };

    const GateId bad_new = sub.to_new(bad);
    RFN_CHECK(bad_new != kNullGate, "property signal missing from abstraction");
    // Bad states: states from which some input valuation raises the signal.
    const Bdd bad_set = mgr.exists(enc.signal_fn(bad_new), enc.input_vars());
    if (img.aborted() || bad_set.is_null()) {
      it.reach_status = ReachStatus::ResourceOut;
      finish_iteration();
      result.note = stop_note("abstract model exceeded the BDD node budget");
      break;
    }

    ReachOptions reach_opt;
    reach_opt.max_steps = opt.max_reach_steps;
    reach_opt.cancel = cancel;
    const Stopwatch reach_watch;
    const ReachResult reach =
        forward_reach(img, enc.initial_states(), bad_set, reach_opt);
    it.reach_seconds = reach_watch.seconds();
    it.reach_status = reach.status;
    it.reach_steps = reach.steps;
    if (reach.status == ReachStatus::ResourceOut) {
      finish_iteration();
      result.note = stop_note("abstract fixpoint exceeded resources");
      break;
    }

    Trace abs_trace;  // abstract error trace, original-design ids
    if (reach.status == ReachStatus::BadReachable) {
      // Abstract error trace via the hybrid engine, in sub.net ids.
      abs_trace = sub.trace_to_old(
          hybrid_error_trace(enc, sub.net, reach, bad_set, cancel, &it.hybrid));
    }
    // After a conclusive reach (and the hybrid walk, which may reorder), the
    // manager's variable order seeds the next iteration's (Section 2.2).
    saved_order = save_order(mgr, enc, sub);
    if (reach.status == ReachStatus::Proved) {
      conclude(Verdict::Holds);
      break;
    }
    if (abs_trace.empty()) {
      finish_iteration();
      result.note = stop_note("hybrid trace engine exhausted candidates");
      break;
    }

    it.trace_cycles = abs_trace.cycles();
    RFN_INFO("iter %zu: abstract error trace of %zu cycles", iter,
             abs_trace.cycles());

    // --- Step 3: concretize on the original design ---
    // Guided sequential ATPG on M: Sat is a real error trace, Unsat a
    // spurious one; an Abort also goes on to refinement. Steps 3 and 4 run
    // every ATPG call under the run's token.
    AtpgOptions atpg_opt;
    atpg_opt.cancel = cancel;
    const Stopwatch conc_watch;
    Span conc_span("concretize");
    SeqAtpgResult conc = solve_abstract_trace(topo, m.regs(), abs_trace, bad, atpg_opt);
    conc_span.end();
    it.concretize_seconds = conc_watch.seconds();
    it.concretize_status = conc.status;
    if (conc.status == AtpgStatus::Sat) {
      conclude(Verdict::Fails, std::move(conc.trace));
      break;
    }

    // --- Step 4: refine ---
    if (should_stop(cancel)) {
      finish_iteration();
      result.note = "cancelled";
      break;
    }
    const std::vector<GateId> crucial =
        identify_crucial_registers(topo, bad, included, abs_trace, atpg_opt, &it.refine);
    finish_iteration();
    if (crucial.empty()) {
      result.note = stop_note("refinement produced no crucial registers");
      break;
    }
    RFN_INFO("iter %zu: refining with %zu crucial registers", iter, crucial.size());
    for (GateId r : crucial) included.push_back(r);
  }

  std::sort(included.begin(), included.end());
  result.final_registers = std::move(included);
  result.final_abstract_regs = result.final_registers.size();

  // Joining the monitor thread is the happens-before edge for reading the
  // trip state.
  watchdog.stop();
  // The verdict rule: an undecided run that a budget stopped is
  // resource-out, naming the budget; `?` is left for every other stop
  // (iteration or step limits, an exhausted hybrid walk, no crucial
  // registers, external cancellation). A verdict reached before a trip
  // landed is sound and kept.
  const char* reason = nullptr;
  if (node_budget_hit)
    reason = "bdd-node-budget";
  else if (watchdog.tripped())
    reason = "mem-budget";
  else if (result.verdict == Verdict::Unknown && !should_stop(opt.cancel) &&
           run_token.expired())
    reason = "wall-budget";
  if (reason != nullptr) {
    BudgetTrip& trip = result.budget_trip;
    trip.tripped = true;
    trip.reason = reason;
    trip.at_seconds = run_watch.seconds();
    trip.bdd_nodes = node_budget_hit ? opt.budget_bdd_nodes : 0;
    trip.rss_bytes = watchdog.trip_rss_bytes();
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("rfn.budget_trips").add(1);
    reg.counter(std::string("rfn.budget_trips.") + reason).add(1);
    SpanTracer::global().instant("budget-trip", "reason", reason);
    if (result.verdict == Verdict::Unknown) {
      result.verdict = Verdict::ResourceOut;
      result.note = std::string("budget exceeded: ") + reason;
    }
  }
  result.cpu_seconds =
      static_cast<double>(prof::thread_cpu_ns() - run_cpu0) * 1e-9;
  // The run's wall time and its rfn.run span end together, after the
  // watchdog join and with no system call between them (a loaded machine
  // may deschedule the thread on any return from the kernel): both
  // measure one interval.
  run_span.annotate("verdict", to_string(result.verdict));
  result.seconds = run_watch.seconds();
  run_span.end();

  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("rfn.runs").add(1);
  reg.timer("rfn.run").record(result.seconds);
  switch (result.verdict) {
    case Verdict::Holds: reg.counter("rfn.verdict.holds").add(1); break;
    case Verdict::Fails: reg.counter("rfn.verdict.fails").add(1); break;
    case Verdict::Unknown: reg.counter("rfn.verdict.unknown").add(1); break;
    case Verdict::ResourceOut:
      reg.counter("rfn.verdict.resource_out").add(1);
      break;
  }
  return result;
}

}  // namespace rfn
