#include "core/rfn.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>

#include "atpg/seq_atpg.hpp"
#include "bdd/bdd.hpp"
#include "core/abstraction.hpp"
#include "core/concretize.hpp"
#include "core/portfolio.hpp"
#include "core/session.hpp"
#include "mc/image.hpp"
#include "pdr/pdr.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace rfn {

bool RfnOptions::engine_enabled(const char* name) const {
  if (engines.empty()) return true;
  return std::find(engines.begin(), engines.end(), name) != engines.end();
}

std::vector<std::string> RfnOptions::validate() const {
  std::vector<std::string> errors;
  // Single source of truth for the portfolio's engine names; the rejection
  // message spells out the whole valid set so a typo is self-correcting.
  static const char* const kEngines[] = {"bdd", "atpg", "sat", "pdr"};
  static const std::string kEngineList = [] {
    std::string list;
    for (const char* name : kEngines) {
      if (!list.empty()) list += ",";
      list += name;
    }
    return list;
  }();
  for (const std::string& e : engines) {
    const bool known = std::find(std::begin(kEngines), std::end(kEngines), e) !=
                       std::end(kEngines);
    if (!known)
      errors.push_back("unknown engine \"" + e + "\" (valid engines: " +
                       kEngineList + ")");
  }
  // Only these can decide the abstract obligation (Step 2); without one the
  // loop would end Unknown after its first iteration, whatever the design.
  if (!engines.empty() && !engine_enabled("bdd") && !engine_enabled("sat") &&
      !engine_enabled("pdr"))
    errors.push_back("engine list runs nothing in Step 2 (include one of "
                     "bdd,sat,pdr)");
  if (race_pdr_max_frames == 0)
    errors.push_back("race_pdr_max_frames must be >= 1");
  if (race_pdr_time_s < 0.0)
    errors.push_back("race_pdr_time_s must be >= 0");
  if (max_iterations == 0)
    errors.push_back("max_iterations must be >= 1");
  if (budget_bdd_nodes < 0)
    errors.push_back("budget_bdd_nodes must be >= 0 (0 disables the budget)");
  if (budget_mem_mb < 0)
    errors.push_back("budget_mem_mb must be >= 0 (0 disables the budget)");
  if (reach.max_live_nodes == 0)
    errors.push_back("reach.max_live_nodes must be >= 1");
  if (reach.max_steps == 0)
    errors.push_back("reach.max_steps must be >= 1");
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

namespace {

// Budget of the SAT BMC probe racing the abstract check (Step 2). The probe
// only ever finds traces, so this bounds effort, never what a verdict means.
constexpr double kRaceProbeSeconds = 2.0;  // wall budget per race
constexpr size_t kRaceSatMaxDepth = 48;    // deepening bound

/// The certification witness of a PDR Holds: its inductive frame.
PdrInvariantWitness pdr_witness(const PdrResult& r) {
  return {true, r.scope, r.clauses};
}

}  // namespace

RfnResult run_property(const Netlist& m, GateId bad, const RfnOptions& opt,
                       const RunHooks& hooks) {
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
  const Deadline deadline(opt.time_limit_s);
  // CPU attribution: this thread's CPU over the whole run (the engine races
  // run inline on it).
  const int64_t run_cpu0 = prof::thread_cpu_ns();

  // Session seeding: the saved variable order and crucial-register hints of
  // earlier properties. Both are hints — they shape which abstract models
  // and orders the run visits, never what a verdict means.
  SavedOrder saved_order;
  if (hooks.order_io != nullptr) saved_order = *hooks.order_io;
  if (hooks.order_seeded != nullptr)
    *hooks.order_seeded = !saved_order.empty();

  const std::vector<GateId> roots{bad};
  std::vector<GateId> included = initial_abstraction_registers(m, roots);
  if (hooks.seed_registers != nullptr && !hooks.seed_registers->empty()) {
    std::vector<bool> have(m.size(), false);
    for (GateId r : included) have[r] = true;
    for (GateId r : *hooks.seed_registers) {
      if (have[r]) continue;
      have[r] = true;
      included.push_back(r);
    }
  }

  const auto note_crucial = [&hooks](const std::vector<GateId>& regs) {
    if (hooks.crucial_out == nullptr) return;
    const std::unordered_set<GateId> seen(hooks.crucial_out->begin(),
                                          hooks.crucial_out->end());
    for (GateId r : regs)
      if (seen.find(r) == seen.end()) hooks.crucial_out->push_back(r);
  };

  // Engine selection: empty opt.engines enables everything. "bdd" gates the
  // exact fixpoint and the hybrid trace walk (Step 2); "atpg" gates guided
  // concretization (Step 3); "sat" gates the incremental BMC engine in both
  // races; "pdr" gates the IC3 engine in both races. "bdd" and "pdr" can
  // prove Holds (pdr in either race — an unbounded Step-3 Holds is a
  // concrete proof), and "atpg"/"sat"/"pdr" can conclude Fails — a list
  // without either side narrows what the loop can ever answer.
  const bool use_bdd = opt.engine_enabled("bdd");
  const bool use_atpg = opt.engine_enabled("atpg");
  const bool use_pdr = opt.engine_enabled("pdr");
  std::unique_ptr<SatBmc> sat_owned;
  SatBmc* sat_bmc = nullptr;
  if (opt.engine_enabled("sat")) {
    // The pooled instance carries learned clauses and unrolled frames across
    // runs; without a pool the instance still persists across this run's
    // iterations and races.
    if (hooks.sat_bmc != nullptr) {
      sat_bmc = &hooks.sat_bmc->get(m);
    } else {
      sat_owned = std::make_unique<SatBmc>(m);
      sat_bmc = sat_owned.get();
    }
  }
  const std::vector<GateId> all_regs = m.regs();  // ascending = sorted

  // Resource watchdog: when a budget is set, the run is cancelled through
  // run_token (chaining any external token), and every cancellation point
  // below polls `cancel` instead of opt.cancel directly.
  CancelToken run_token(-1.0, opt.cancel);
  WatchdogOptions wd_opt;
  wd_opt.wall_budget_s = opt.budget_ms > 0.0 ? opt.budget_ms * 1e-3 : -1.0;
  wd_opt.bdd_node_budget = opt.budget_bdd_nodes;
  wd_opt.mem_budget_mb = opt.budget_mem_mb;
  wd_opt.sample_rss = opt.sample_rss;
  Watchdog watchdog(wd_opt, &run_token);
  const bool budgeted = wd_opt.wall_budget_s > 0.0 ||
                        wd_opt.bdd_node_budget > 0 || wd_opt.mem_budget_mb > 0;
  const CancelToken* cancel = budgeted ? &run_token : opt.cancel;
  // With sample_rss but no budget the monitor thread still runs, purely as
  // the profiler's RSS sampler: it can never trip, so cancellation stays on
  // the caller's token.
  if (budgeted || wd_opt.sample_rss) watchdog.start();

  for (size_t iter = 0; iter < opt.max_iterations; ++iter) {
    if (deadline.expired()) {
      result.note = "time limit exceeded";
      break;
    }
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
    std::shared_ptr<const Subcircuit> sub_owned =
        hooks.subcircuits != nullptr
            ? hooks.subcircuits->get(m, roots, included)
            : std::make_shared<const Subcircuit>(
                  extract_abstract_model(m, roots, included));
    const Subcircuit& sub = *sub_owned;
    it.abstract_regs = sub.net.num_regs();
    it.abstract_inputs = sub.net.num_inputs();
    it.abstract_gates = sub.net.num_gates();
    RFN_INFO("iter %zu: abstract model regs=%zu inputs=%zu gates=%zu", iter,
             it.abstract_regs, it.abstract_inputs, sub.net.num_gates());

    // --- Step 2: prove or find an abstract error trace (engine race) ---
    BddMgr mgr;
    if (budgeted) mgr.set_live_node_probe(watchdog.node_probe());
    std::optional<Encoder> enc;
    std::optional<ImageComputer> img;
    if (use_bdd) {
      enc.emplace(mgr, sub.net);
      apply_saved_order(mgr, *enc, sub, saved_order);
    }
    mgr.set_auto_reorder(true);
    mgr.set_node_budget(opt.reach.max_live_nodes);
    if (use_bdd) img.emplace(*enc);

    // SAT and PDR results live above finish_iteration so the per-iteration
    // record can harvest them on every exit path; the stat snapshot turns
    // the shared incremental solver's cumulative counters into deltas.
    SatBmcResult sat_probe, sat_conc;
    PdrResult pdr_probe, pdr_conc;
    const sat::SolverStats sat_before =
        sat_bmc != nullptr ? sat_bmc->solver_stats() : sat::SolverStats{};

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
      publish_bdd_metrics(bs);
      if (sat_bmc != nullptr) {
        const sat::SolverStats& ss = sat_bmc->solver_stats();
        it.sat_conflicts = ss.conflicts - sat_before.conflicts;
        it.sat_propagations = ss.propagations - sat_before.propagations;
        it.sat_depth = std::max(sat_probe.depth, sat_conc.depth);
      }
      if (use_pdr) {
        it.pdr_obligations =
            pdr_probe.stats.obligations + pdr_conc.stats.obligations;
        it.pdr_clauses = pdr_probe.stats.clauses + pdr_conc.stats.clauses;
        it.pdr_frames = std::max(pdr_probe.stats.frames, pdr_conc.stats.frames);
      }
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
    Bdd bad_set;
    if (use_bdd) {
      bad_set = mgr.exists(enc->signal_fn(bad_new), enc->input_vars());
      if (img->aborted() || bad_set.is_null()) {
        it.reach_status = ReachStatus::ResourceOut;
        finish_iteration();
        result.note = "abstract model exceeded the BDD node budget";
        break;
      }
    }

    ReachOptions reach_opt = opt.reach;
    if (opt.time_limit_s >= 0.0) {
      const double rem = deadline.remaining_seconds();
      reach_opt.time_limit_s = reach_opt.time_limit_s < 0.0
                                   ? rem
                                   : std::min(reach_opt.time_limit_s, rem);
    }
    const double probe_budget =
        opt.time_limit_s >= 0.0
            ? std::min(kRaceProbeSeconds, deadline.remaining_seconds())
            : kRaceProbeSeconds;
    // PDR's race budget: unlike the probe it can conclude Holds, but an
    // unlimited PDR job in an otherwise-winnerless race would stall the
    // loop, so it runs under its own wall limit (0 = unlimited).
    const double pdr_race_s = opt.race_pdr_time_s > 0.0 ? opt.race_pdr_time_s : -1.0;
    const double pdr_budget =
        opt.time_limit_s >= 0.0
            ? (pdr_race_s < 0.0
                   ? deadline.remaining_seconds()
                   : std::min(pdr_race_s, deadline.remaining_seconds()))
            : pdr_race_s;

    // Up to three engines race the abstract obligation, in priority order:
    // BDD reachability, the SAT BMC probe and PDR. The BDD fixpoint and PDR
    // can *prove*; the SAT probe can only *find* an abstract error trace.
    // The race returns the first conclusive engine in that order, so the
    // later engines run only when the fixpoint runs out of resources. Jobs
    // carry engine tags because the lineup depends on opt.engines — winner
    // indices alone say nothing.
    enum class Eng { Bdd, Atpg, Sat, Pdr };
    ReachResult reach;
    std::vector<PortfolioJob> jobs;
    std::vector<Eng> tags;
    if (use_bdd) {
      jobs.push_back({"bdd-reach", -1.0, [&](const CancelToken& token) {
                        ReachOptions ro = reach_opt;
                        ro.cancel = &token;
                        reach = forward_reach(*img, enc->initial_states(), bad_set, ro);
                        return reach.status != ReachStatus::ResourceOut;
                      }});
      tags.push_back(Eng::Bdd);
    }
    if (sat_bmc != nullptr) {
      // The enable-assumption formulation makes this the abstract obligation
      // on the original design: registers outside `included` stay free, the
      // same pseudo-input semantics the extracted subcircuit gives them. A
      // bounded Unsat proves nothing unbounded, so only Sat is conclusive.
      jobs.push_back({"sat-bmc", probe_budget, [&](const CancelToken& token) {
                        sat_probe = sat_bmc->check(bad, kRaceSatMaxDepth,
                                                   included, &token);
                        return sat_probe.status == AtpgStatus::Sat;
                      }});
      tags.push_back(Eng::Sat);
    }
    if (use_pdr) {
      // Same pseudo-input semantics again, IC3-style: the engine runs on the
      // original design with only `included` as state, so a Holds here is an
      // UNBOUNDED proof of the abstract obligation — the only non-BDD engine
      // that can win this race in the Proved direction. A Cex is a real
      // abstract error trace, already decoded into original-design ids.
      jobs.push_back({"pdr", pdr_budget, [&](const CancelToken& token) {
                        Pdr engine(m, bad, included);
                        PdrOptions po;
                        po.max_frames = opt.race_pdr_max_frames;
                        pdr_probe = engine.run(po, &token);
                        return pdr_probe.status == PdrStatus::Holds ||
                               pdr_probe.status == PdrStatus::Cex;
                      }});
      tags.push_back(Eng::Pdr);
    }
    const RaceResult abs_race = race(jobs, cancel);
    it.abstract_engine = abs_race.winner_name;
    it.abstract_race_seconds = abs_race.seconds;
    it.abstract_race_cpu_seconds = abs_race.cpu_seconds;
    it.reach_status = use_bdd ? reach.status : ReachStatus::ResourceOut;
    it.reach_steps = reach.steps;

    Trace abs_trace;  // abstract error trace, original-design ids
    const bool bdd_won = abs_race.conclusive && tags[abs_race.winner] == Eng::Bdd;
    if (bdd_won && reach.status == ReachStatus::BadReachable) {
      // Abstract error trace via the hybrid engine, in sub.net ids.
      HybridTraceOptions hybrid_opt;
      hybrid_opt.cancel = cancel;
      abs_trace = sub.trace_to_old(hybrid_error_trace(
          *enc, sub.net, reach, bad_set, hybrid_opt, &it.hybrid));
    }
    // After a conclusive race (and the hybrid walk, which may reorder), the
    // manager's variable order seeds the next iteration's (Section 2.2).
    if (use_bdd && abs_race.conclusive) saved_order = save_order(mgr, *enc, sub);
    if (bdd_won) {
      if (reach.status == ReachStatus::Proved) {
        conclude(Verdict::Holds);
        break;
      }
      if (abs_trace.empty()) {
        finish_iteration();
        result.note = "hybrid trace engine exhausted candidates";
        break;
      }
    } else if (abs_race.conclusive && tags[abs_race.winner] == Eng::Pdr &&
               pdr_probe.status == PdrStatus::Holds) {
      // PDR converged on the abstract obligation: the inductive frame is an
      // unbounded proof, and subcircuit over-approximation lifts it to the
      // original design. The frame travels out as the certification witness
      // — a BDD fixpoint over this register scope may never have run.
      it.reach_status = ReachStatus::Proved;
      result.pdr_invariant = pdr_witness(pdr_probe);
      conclude(Verdict::Holds);
      RFN_INFO("iter %zu: pdr proved the abstract model (frames=%zu)", iter,
               pdr_probe.stats.frames);
      break;
    } else if (abs_race.conclusive) {
      // The fixpoint gave up and SAT or PDR found an abstract error trace:
      // the trace is a real trace of the abstract model, so the obligation
      // is BadReachable without any rings. Both engines decode it straight
      // into original-design ids (cut registers in the input cubes).
      it.reach_status = ReachStatus::BadReachable;
      abs_trace = tags[abs_race.winner] == Eng::Sat ? std::move(sat_probe.trace)
                                                    : std::move(pdr_probe.trace);
      RFN_INFO("iter %zu: %s won the abstract race", iter,
               abs_race.winner_name.c_str());
    } else {
      // No engine was conclusive: the exact fixpoint ran out of resources
      // and the SAT probe and PDR found nothing within their budgets.
      finish_iteration();
      result.note = "abstract fixpoint exceeded resources";
      break;
    }

    it.trace_cycles = abs_trace.cycles();
    RFN_INFO("iter %zu: abstract error trace of %zu cycles", iter,
             abs_trace.cycles());

    // --- Step 3: concretize on the original design (engine race) ---
    // Guided sequential ATPG is conclusive both ways (Sat = real trace,
    // Unsat = spurious). SAT BMC with every register enabled is also
    // conclusive both ways at this bounded depth: Sat is a real error trace
    // (possibly shorter than the abstract one), Unsat proves no trace of
    // length <= the abstract trace exists — so the trace is spurious.
    ConcretizeResult conc;
    std::vector<PortfolioJob> cjobs;
    std::vector<Eng> ctags;
    if (use_atpg) {
      cjobs.push_back({"guided-atpg", -1.0, [&](const CancelToken& token) {
                         AtpgOptions ao;
                         ao.cancel = &token;
                         conc = concretize_trace(m, abs_trace, bad, ao);
                         return conc.status != AtpgStatus::Abort;
                       }});
      ctags.push_back(Eng::Atpg);
    }
    if (sat_bmc != nullptr) {
      cjobs.push_back({"sat-bmc", -1.0, [&](const CancelToken& token) {
                         sat_conc = sat_bmc->check(bad, abs_trace.cycles(),
                                                   all_regs, &token);
                         return sat_conc.status != AtpgStatus::Abort;
                       }});
      ctags.push_back(Eng::Sat);
    }
    if (use_pdr) {
      // Unbounded concrete check: with every register included, PDR's
      // verdict is conclusive both ways — Cex is a real error trace, and
      // Holds is an inductive proof on the FULL design, stronger than the
      // bounded refutations beside it: it ends the whole loop, not just
      // this trace.
      cjobs.push_back({"pdr", pdr_budget, [&](const CancelToken& token) {
                         Pdr engine(m, bad, all_regs);
                         PdrOptions po;
                         po.max_frames = opt.race_pdr_max_frames;
                         pdr_conc = engine.run(po, &token);
                         return pdr_conc.status == PdrStatus::Holds ||
                                pdr_conc.status == PdrStatus::Cex;
                       }});
      ctags.push_back(Eng::Pdr);
    }
    RaceResult conc_race;
    if (!cjobs.empty()) conc_race = race(cjobs, cancel);
    it.concretize_engine = conc_race.winner_name;
    it.concretize_race_seconds = conc_race.seconds;
    it.concretize_race_cpu_seconds = conc_race.cpu_seconds;
    if (conc_race.conclusive) {
      const Eng w = ctags[conc_race.winner];
      if (w == Eng::Sat) {
        it.concretize_status = sat_conc.status;
        if (sat_conc.status == AtpgStatus::Sat) {
          conclude(Verdict::Fails, std::move(sat_conc.trace));
          break;
        }
        // Unsat: spurious; fall through to refinement.
      }
      if (w == Eng::Pdr) {
        if (pdr_conc.status == PdrStatus::Cex) {
          it.concretize_status = AtpgStatus::Sat;
          conclude(Verdict::Fails, std::move(pdr_conc.trace));
          break;
        }
        // Holds: an unbounded proof on the full design — the property holds
        // outright, no matter what the abstract trace suggested.
        it.concretize_status = AtpgStatus::Unsat;
        result.pdr_invariant = pdr_witness(pdr_conc);
        conclude(Verdict::Holds);
        RFN_INFO("iter %zu: pdr proved the full design (frames=%zu)", iter,
                 pdr_conc.stats.frames);
        break;
      }
    }
    if (!conc_race.conclusive || ctags[conc_race.winner] == Eng::Atpg) {
      it.concretize_status = conc.status;
      if (conc.status == AtpgStatus::Sat) {
        conclude(Verdict::Fails, std::move(conc.trace));
        break;
      }
    }

    // --- Step 4: refine ---
    if (should_stop(cancel)) {
      finish_iteration();
      result.note = "cancelled";
      break;
    }
    // Refinement reads only the abstract trace: whichever engine decided
    // Step 3, the registers it adds are the same.
    const std::vector<GateId> crucial = identify_crucial_registers(
        m, roots, bad, included, abs_trace, {}, &it.refine);
    finish_iteration();
    if (crucial.empty()) {
      result.note = "refinement produced no crucial registers";
      break;
    }
    RFN_INFO("iter %zu: refining with %zu crucial registers", iter, crucial.size());
    note_crucial(crucial);
    for (GateId r : crucial) included.push_back(r);
  }

  std::sort(included.begin(), included.end());
  result.final_registers = std::move(included);
  result.final_abstract_regs = result.final_registers.size();
  result.seconds = deadline.elapsed_seconds();
  result.cpu_seconds =
      static_cast<double>(prof::thread_cpu_ns() - run_cpu0) * 1e-9;
  if (hooks.order_io != nullptr) *hooks.order_io = std::move(saved_order);

  // Joining the monitor thread is the happens-before edge for reading the
  // trip state (and, in the CLI, for exporting the span trace).
  watchdog.stop();
  if (watchdog.tripped()) {
    result.budget_trip.tripped = true;
    result.budget_trip.reason = watchdog.trip_reason();
    result.budget_trip.at_seconds = watchdog.trip_seconds();
    result.budget_trip.bdd_nodes = watchdog.trip_bdd_nodes();
    result.budget_trip.rss_bytes = watchdog.trip_rss_bytes();
    // A verdict reached before the trip landed is still sound; only an
    // undecided run degrades to resource-out.
    if (result.verdict == Verdict::Unknown) {
      result.verdict = Verdict::ResourceOut;
      result.note = "budget exceeded: " + result.budget_trip.reason;
    }
  }

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
  run_span.annotate("verdict", to_string(result.verdict));
  return result;
}

}  // namespace rfn
