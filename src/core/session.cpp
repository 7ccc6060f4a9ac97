#include "core/session.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "atpg/seq_atpg.hpp"
#include "bdd/bdd.hpp"
#include "core/concretize.hpp"
#include "core/portfolio.hpp"
#include "core/refine.hpp"
#include "mc/approx_reach.hpp"
#include "mc/image.hpp"
#include "netlist/analysis.hpp"
#include "pdr/pdr.hpp"
#include "sim/sim3.hpp"
#include "util/executor.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace rfn {

// ---------------------------------------------------------------------------
// SubcircuitMemo

std::shared_ptr<const Subcircuit> SubcircuitMemo::get(
    const Netlist& m, const std::vector<GateId>& roots,
    const std::vector<GateId>& included) {
  std::string key;
  key.reserve((roots.size() + included.size() + 1) * sizeof(GateId));
  const auto push_ids = [&key](const std::vector<GateId>& ids) {
    key.append(reinterpret_cast<const char*>(ids.data()),
               ids.size() * sizeof(GateId));
  };
  push_ids(roots);
  key.push_back('\0');  // sizeof(GateId) has no 1-byte representation: safe separator
  push_ids(included);

  MetricsRegistry& reg = MetricsRegistry::global();
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++hits_;
    reg.counter("session.subcircuit_memo.hits").add(1);
    return it->second;
  }
  ++misses_;
  reg.counter("session.subcircuit_memo.misses").add(1);
  // Bound the cache: a long refinement run visits a fresh register set every
  // iteration and would otherwise retain every abstract model it ever built.
  // Dropping everything is crude but keeps the memo O(1)-bounded while still
  // serving the cross-property case (repeated identical extractions land
  // well under the cap).
  if (map_.size() >= 16) map_.clear();
  auto sub = std::make_shared<Subcircuit>(extract_abstract_model(m, roots, included));
  map_.emplace(std::move(key), sub);
  return sub;
}

int64_t SubcircuitMemo::approx_bytes() const {
  // Structural estimate: each memoized Subcircuit owns a netlist copy plus
  // two id maps sized by the ORIGINAL design. A nominal per-gate footprint
  // (gate record + fanin vector) over both keeps the figure monotone in the
  // cached volume, which is all the warm-state byte budget needs.
  constexpr int64_t kPerGate = 48;
  int64_t total = 0;
  for (const auto& [key, sub] : map_) {
    total += static_cast<int64_t>(key.size());
    total += static_cast<int64_t>(sub->net.size()) * kPerGate;
    total += static_cast<int64_t>(sub->old_of_new.size()) * sizeof(GateId) * 2;
  }
  return total;
}

// ---------------------------------------------------------------------------
// SatBmcPool

SatBmc& SatBmcPool::get(const Netlist& m) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const auto it = map_.find(&m);
  if (it != map_.end()) {
    reg.counter("session.sat_pool.hits").add(1);
    return *it->second;
  }
  reg.counter("session.sat_pool.misses").add(1);
  return *map_.emplace(&m, std::make_unique<SatBmc>(m)).first->second;
}

int64_t SatBmcPool::heap_bytes() const {
  int64_t total = 0;
  for (const auto& [net, bmc] : map_)
    total += static_cast<int64_t>(bmc->solver_heap_bytes());
  return total;
}

// ---------------------------------------------------------------------------
// ReuseCache

int64_t ReuseCache::approx_bytes() const {
  return sat_bmc.heap_bytes() + subcircuits.approx_bytes() +
         static_cast<int64_t>(order.tokens.size() * sizeof(SavedOrder::Token)) +
         static_cast<int64_t>(crucial_hints.size() * sizeof(GateId));
}

// ---------------------------------------------------------------------------
// The single-property engine (formerly RfnVerifier::run).

RfnResult run_property(const Netlist& m, GateId bad, const RfnOptions& opt,
                       const RunHooks& hooks) {
  RFN_CHECK(bad < m.size(), "bad signal out of range");
  RfnResult result;
  // Per-run metrics isolation: everything this run records is reported
  // relative to this baseline (trace_json serializes against it).
  const MetricsEpoch epoch;
  result.metrics_epoch = epoch.id();
  result.metrics_baseline = epoch.baseline();
  Span run_span("rfn.run");
  const Deadline deadline(opt.time_limit_s);
  // CPU attribution: this thread's CPU over the whole run, plus — when
  // portfolio workers race off-thread — the CPU their jobs burned. With zero
  // workers the jobs run inline on this thread and are already in the first
  // term, so adding race CPU again would double-count.
  const int64_t run_cpu0 = prof::thread_cpu_ns();
  double off_thread_race_cpu_s = 0.0;

  // Session seeding: the saved variable order and crucial-register hints of
  // earlier properties. Both are hints — they shape which abstract models
  // and orders the run visits, never what a verdict means.
  SavedOrder saved_order;
  if (hooks.order_io != nullptr) saved_order = *hooks.order_io;
  if (hooks.order_seeded != nullptr)
    *hooks.order_seeded = opt.save_var_order && !saved_order.empty();

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

  // Proof-based shrink bookkeeping (opt.proof_shrink): registers of the
  // initial (seeded) abstraction are never dropped, and a register dropped
  // once becomes sticky if refinement ever re-adds it — shrink_abstraction
  // marks drops in this same bitmap, so the grow/shrink alternation cannot
  // oscillate on any single register.
  std::vector<bool> shrink_sticky;
  if (opt.proof_shrink) {
    shrink_sticky.assign(m.size(), false);
    for (GateId r : included) shrink_sticky[r] = true;
  }

  const auto note_crucial = [&hooks](const std::vector<GateId>& regs) {
    if (hooks.crucial_out == nullptr) return;
    const std::unordered_set<GateId> seen(hooks.crucial_out->begin(),
                                          hooks.crucial_out->end());
    for (GateId r : regs)
      if (seen.find(r) == seen.end()) hooks.crucial_out->push_back(r);
  };

  // Engine selection: empty opt.engines enables everything. "bdd" gates the
  // exact fixpoint (Step 2) and the approximate fallback; "atpg" gates the
  // sequential-ATPG probe and guided concretization; "sim" gates both
  // random-simulation probes; "sat" gates the incremental BMC engine in both
  // races; "pdr" gates the IC3 engine in both races. "bdd" and "pdr" can
  // prove Holds (pdr in either race — an unbounded Step-3 Holds is a
  // concrete proof), and "atpg"/"sim"/"sat"/"pdr" can conclude Fails — a
  // list without either side narrows what the loop can ever answer.
  const bool use_bdd = opt.engine_enabled("bdd");
  const bool use_atpg = opt.engine_enabled("atpg");
  const bool use_sim = opt.engine_enabled("sim");
  const bool use_pdr = opt.engine_enabled("pdr");
  std::unique_ptr<SatBmc> sat_owned;
  SatBmc* sat_bmc = nullptr;
  if (opt.engine_enabled("sat")) {
    // The pooled instance carries learned clauses and unrolled frames across
    // runs; without a pool the instance still persists across this run's
    // iterations and races (the race barrier is the happens-before edge —
    // single-owner, like a BddMgr).
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

  // One scheduler (and thread pool) for the whole run; with zero workers the
  // races run their jobs sequentially inline, in priority order.
  Portfolio portfolio(opt.portfolio_workers);

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
      if (opt.save_var_order) apply_saved_order(mgr, *enc, sub, saved_order);
    }
    mgr.set_auto_reorder(opt.dynamic_reordering);
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
    auto finish_iteration = [&](RfnIteration& done) {
      const BddStats& bs = mgr.stats();
      done.bdd_peak_nodes = bs.peak_live_nodes;
      done.bdd_cache_lookups = bs.cache_lookups;
      done.bdd_cache_hits = bs.cache_hits;
      done.bdd_reorderings = bs.reorderings;
      publish_bdd_metrics(bs);
      if (sat_bmc != nullptr) {
        const sat::SolverStats& ss = sat_bmc->solver_stats();
        done.sat_conflicts = ss.conflicts - sat_before.conflicts;
        done.sat_propagations = ss.propagations - sat_before.propagations;
        done.sat_depth = std::max(sat_probe.depth, sat_conc.depth);
        done.sat_core_size = sat_conc.status == AtpgStatus::Unsat
                                 ? sat_conc.core_registers.size()
                                 : 0;
      }
      if (use_pdr) {
        done.pdr_obligations =
            pdr_probe.stats.obligations + pdr_conc.stats.obligations;
        done.pdr_clauses = pdr_probe.stats.clauses + pdr_conc.stats.clauses;
        done.pdr_frames = std::max(pdr_probe.stats.frames, pdr_conc.stats.frames);
      }
      done.seconds = iter_watch.seconds();
      MetricsRegistry& reg = MetricsRegistry::global();
      reg.counter("rfn.iterations").add(1);
      reg.timer("rfn.iteration").record(done.seconds);
      reg.gauge("rfn.abstract_regs").set(static_cast<int64_t>(done.abstract_regs));
      reg.counter("rfn.refined_registers").add(done.refine.final_count);
      reg.counter("rfn.abstract_trace_cycles").add(done.trace_cycles);
      result.per_iteration.push_back(done);
    };

    const GateId bad_new = sub.to_new(bad);
    RFN_CHECK(bad_new != kNullGate, "property signal missing from abstraction");
    // Bad states: states from which some input valuation raises the signal.
    Bdd bad_set;
    if (use_bdd) {
      bad_set = mgr.exists(enc->signal_fn(bad_new), enc->input_vars());
      if (img->aborted() || bad_set.is_null()) {
        it.reach_status = ReachStatus::ResourceOut;
        finish_iteration(it);
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
            ? std::min(opt.race_probe_time_s, deadline.remaining_seconds())
            : opt.race_probe_time_s;
    // PDR's race budget: unlike the probes it can conclude Holds, but an
    // unlimited PDR job in an otherwise-winnerless race would stall the
    // loop, so it runs under its own wall limit (0 = unlimited).
    const double pdr_race_s = opt.race_pdr_time_s > 0.0 ? opt.race_pdr_time_s : -1.0;
    const double pdr_budget =
        opt.time_limit_s >= 0.0
            ? (pdr_race_s < 0.0
                   ? deadline.remaining_seconds()
                   : std::min(pdr_race_s, deadline.remaining_seconds()))
            : pdr_race_s;

    // Up to four engines race the abstract obligation. BDD reachability is
    // the only one that can *prove*; the sequential-ATPG, random-simulation
    // and SAT BMC probes can only *find* an abstract error trace — but when
    // they do, the trace is exact and the (cancelled) fixpoint is not needed
    // at all. The BddMgr above is owned by the bdd-reach job for the
    // duration of the race (single-owner rule), and so is the incremental
    // SAT instance by the sat-bmc job; the other probes touch only the
    // immutable netlist. Jobs carry engine tags because the lineup depends
    // on opt.engines — winner indices alone say nothing.
    enum class Eng { Bdd, Atpg, Sim, Sat, Pdr };
    ReachResult reach;
    SeqAtpgResult atpg_probe;
    Trace sim_probe;
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
    if (use_atpg) {
      jobs.push_back({"seq-atpg", probe_budget, [&](const CancelToken& token) {
                        AtpgOptions ao;
                        ao.max_backtracks = opt.race_atpg_backtracks;
                        ao.cancel = &token;
                        for (size_t k = 1; k <= opt.race_atpg_max_depth; ++k) {
                          if (token.cancelled()) return false;
                          SeqAtpgResult r = reach_target(sub.net, k, bad_new, true, {}, ao);
                          if (r.status == AtpgStatus::Sat) {
                            atpg_probe = std::move(r);
                            return true;
                          }
                          // Unsat/Abort at depth k only bounds the shortest
                          // trace; keep deepening until cancelled.
                        }
                        return false;
                      }});
      tags.push_back(Eng::Atpg);
    }
    if (use_sim) {
      jobs.push_back({"rand-sim", probe_budget, [&, iter](const CancelToken& token) {
                        sim_probe = random_sim_error_trace(
                            sub.net, bad_new, opt.race_sim_cycles,
                            0x51D5EEDull + iter, &token);
                        return !sim_probe.empty();
                      }});
      tags.push_back(Eng::Sim);
    }
    if (sat_bmc != nullptr) {
      // The enable-assumption formulation makes this the abstract obligation
      // on the original design: registers outside `included` stay free, the
      // same pseudo-input semantics the extracted subcircuit gives them. A
      // bounded Unsat proves nothing unbounded, so only Sat is conclusive.
      jobs.push_back({"sat-bmc", probe_budget, [&](const CancelToken& token) {
                        sat_probe = sat_bmc->check(bad, opt.race_sat_max_depth,
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
    const RaceResult abs_race = portfolio.race(jobs, cancel);
    it.abstract_engine = abs_race.winner_name;
    it.abstract_race_seconds = abs_race.seconds;
    it.abstract_race_cpu_seconds = abs_race.cpu_seconds;
    if (opt.portfolio_workers > 0) off_thread_race_cpu_s += abs_race.cpu_seconds;
    it.reach_status = use_bdd ? reach.status : ReachStatus::ResourceOut;
    it.reach_steps = reach.steps;

    std::vector<Trace> traces_n;  // abstract error traces in sub.net ids
    std::vector<Trace> traces;    // the same traces in original-design ids
    if (abs_race.conclusive && tags[abs_race.winner] == Eng::Bdd) {
      if (reach.status == ReachStatus::Proved) {
        if (opt.save_var_order) saved_order = save_order(mgr, *enc, sub);
        finish_iteration(it);
        result.verdict = Verdict::Holds;
        break;
      }
      // BadReachable: abstract error trace(s) via the hybrid engine.
      HybridTraceOptions hybrid_opt = opt.hybrid;
      if (hybrid_opt.cancel == nullptr) hybrid_opt.cancel = cancel;
      traces_n = hybrid_error_traces(*enc, sub.net, reach, bad_set,
                                     std::max<size_t>(1, opt.traces_per_iteration),
                                     hybrid_opt, &it.hybrid);
      if (opt.save_var_order) saved_order = save_order(mgr, *enc, sub);
      if (traces_n.empty()) {
        finish_iteration(it);
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
      if (use_bdd && opt.save_var_order) saved_order = save_order(mgr, *enc, sub);
      result.pdr_invariant.present = true;
      result.pdr_invariant.registers = pdr_probe.scope;
      result.pdr_invariant.clauses = pdr_probe.clauses;
      finish_iteration(it);
      result.verdict = Verdict::Holds;
      RFN_INFO("iter %zu: pdr proved the abstract model (frames=%zu)", iter,
               pdr_probe.stats.frames);
      break;
    } else if (abs_race.conclusive) {
      // A probe engine found an abstract error trace while the fixpoint was
      // still running: the trace is a real trace of the abstract model, so
      // the obligation is BadReachable without any rings.
      it.reach_status = ReachStatus::BadReachable;
      const Eng w = tags[abs_race.winner];
      if (w == Eng::Sat || w == Eng::Pdr) {
        // SAT and PDR traces are decoded straight into original-design ids
        // (cut registers in the input cubes), so they skip trace_to_old
        // below.
        traces.push_back(w == Eng::Sat ? std::move(sat_probe.trace)
                                       : std::move(pdr_probe.trace));
      } else {
        traces_n.push_back(w == Eng::Atpg ? atpg_probe.trace : sim_probe);
      }
      if (use_bdd && opt.save_var_order) saved_order = save_order(mgr, *enc, sub);
      RFN_INFO("iter %zu: %s won the abstract race", iter,
               abs_race.winner_name.c_str());
    } else {
      // No engine was conclusive: the exact fixpoint ran out of resources
      // and the probes found nothing within their budgets.
      if (use_bdd && opt.approx_fallback && !deadline.expired() &&
          !should_stop(cancel)) {
        // Future-work fallback: the overlapping-partition approximate
        // traversal may still prove the property when the exact fixpoint
        // cannot complete on a large abstract model.
        it.approx_used = true;
        ApproxReachOptions aopt;
        aopt.block_size = opt.approx_block_size;
        aopt.overlap = opt.approx_overlap;
        aopt.time_limit_s = opt.time_limit_s >= 0.0 ? deadline.remaining_seconds()
                                                    : reach_opt.time_limit_s;
        aopt.max_live_nodes = reach_opt.max_live_nodes;
        const ApproxReachResult approx =
            approx_forward_reach(*enc, enc->initial_states(), bad_set, aopt);
        if (approx.status == ApproxStatus::Proved) {
          it.approx_proved = true;
          finish_iteration(it);
          result.verdict = Verdict::Holds;
          result.note = "proved by overlapping-partition approximation";
          break;
        }
        // Inconclusive: there is no error trace to drive Step 4, but the
        // loop can still make progress topologically — pull in the next
        // batch of registers closest to the property and retry. This
        // bottoms out at the full-COI abstraction, where the approximate
        // traversal is as strong as it gets.
        std::vector<bool> have(m.size(), false);
        for (GateId r : included) have[r] = true;
        size_t added = 0;
        for (GateId r : closest_registers(m, roots, included.size() + 8)) {
          if (have[r]) continue;
          included.push_back(r);
          ++added;
        }
        if (added > 0) {
          RFN_INFO("iter %zu: approx inconclusive; blind-refining with %zu registers",
                   iter, added);
          finish_iteration(it);
          continue;
        }
      }
      finish_iteration(it);
      result.note = "abstract fixpoint exceeded resources";
      break;
    }

    for (const Trace& t : traces_n) traces.push_back(sub.trace_to_old(t));
    const Trace& abs_trace = traces.front();
    it.trace_cycles = abs_trace.cycles();
    RFN_INFO("iter %zu: %zu abstract error trace(s), first %zu cycles", iter,
             traces.size(), abs_trace.cycles());

    // --- Step 3: concretize on the original design (engine race) ---
    // Guided sequential ATPG is conclusive both ways (Sat = real trace,
    // Unsat = spurious). SAT BMC with every register enabled is also
    // conclusive both ways at this bounded depth: Sat is a real error trace
    // (possibly shorter than the abstract one), Unsat proves no trace of
    // length <= the abstract trace exists — so the trace is spurious, and
    // the assumption core names the registers the refutation needed (the
    // refinement hints). Random simulation can only conclude Sat, but a hit
    // is a real error trace found without search.
    ConcretizeResult conc;
    Trace sim_cex;
    std::vector<PortfolioJob> cjobs;
    std::vector<Eng> ctags;
    if (use_atpg) {
      cjobs.push_back({"guided-atpg", -1.0, [&](const CancelToken& token) {
                         AtpgOptions ao = opt.concretize_atpg;
                         ao.cancel = &token;
                         conc = traces.size() == 1
                                    ? concretize_trace(m, abs_trace, bad, ao)
                                    : concretize_with_traces(m, traces, bad, ao);
                         return conc.status != AtpgStatus::Abort;
                       }});
      ctags.push_back(Eng::Atpg);
    }
    if (use_sim) {
      cjobs.push_back({"rand-sim", probe_budget, [&, iter](const CancelToken& token) {
                         sim_cex = random_sim_error_trace(
                             m, bad, opt.race_sim_cycles,
                             0xC0FFEEULL + iter, &token);
                         return !sim_cex.empty();
                       }});
      ctags.push_back(Eng::Sim);
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
    if (!cjobs.empty()) conc_race = portfolio.race(cjobs, cancel);
    it.concretize_engine = conc_race.winner_name;
    it.concretize_race_seconds = conc_race.seconds;
    it.concretize_race_cpu_seconds = conc_race.cpu_seconds;
    if (opt.portfolio_workers > 0) off_thread_race_cpu_s += conc_race.cpu_seconds;
    if (conc_race.conclusive) {
      const Eng w = ctags[conc_race.winner];
      if (w == Eng::Sim) {
        it.concretize_status = AtpgStatus::Sat;
        finish_iteration(it);
        result.verdict = Verdict::Fails;
        result.error_trace = sim_cex;
        break;
      }
      if (w == Eng::Sat) {
        it.concretize_status = sat_conc.status;
        if (sat_conc.status == AtpgStatus::Sat) {
          finish_iteration(it);
          result.verdict = Verdict::Fails;
          result.error_trace = sat_conc.trace;
          break;
        }
        // Unsat: spurious; fall through to refinement with the core hints.
      }
      if (w == Eng::Pdr) {
        if (pdr_conc.status == PdrStatus::Cex) {
          it.concretize_status = AtpgStatus::Sat;
          finish_iteration(it);
          result.verdict = Verdict::Fails;
          result.error_trace = pdr_conc.trace;
          break;
        }
        // Holds: an unbounded proof on the full design — the property holds
        // outright, no matter what the abstract trace suggested.
        it.concretize_status = AtpgStatus::Unsat;
        result.pdr_invariant.present = true;
        result.pdr_invariant.registers = pdr_conc.scope;
        result.pdr_invariant.clauses = pdr_conc.clauses;
        finish_iteration(it);
        result.verdict = Verdict::Holds;
        RFN_INFO("iter %zu: pdr proved the full design (frames=%zu)", iter,
                 pdr_conc.stats.frames);
        break;
      }
    }
    if (!conc_race.conclusive || ctags[conc_race.winner] == Eng::Atpg) {
      it.concretize_status = conc.status;
      if (conc.status == AtpgStatus::Sat) {
        finish_iteration(it);
        result.verdict = Verdict::Fails;
        result.error_trace = conc.trace;
        break;
      }
    }

    // --- Step 4: refine ---
    if (should_stop(cancel)) {
      finish_iteration(it);
      result.note = "cancelled";
      break;
    }
    // Bounded-UNSAT assumption cores become refinement hints: registers the
    // refutation needed that the abstraction lacks go to the front of the
    // candidate list. Hints only — identify_crucial_registers still vets
    // every one of them — so they steer the refinement, never the verdict.
    RefineOptions refine_opt = opt.refine;
    if (opt.sat_core_hints && sat_conc.status == AtpgStatus::Unsat) {
      for (GateId r : sat_conc.core_registers)
        if (!std::binary_search(included.begin(), included.end(), r))
          refine_opt.hints.push_back(r);
      if (!refine_opt.hints.empty())
        MetricsRegistry::global()
            .counter("rfn.sat_hint_registers")
            .add(refine_opt.hints.size());
    }
    const std::vector<GateId> crucial = identify_crucial_registers(
        m, roots, bad, included, abs_trace, refine_opt, &it.refine);
    // Proof-driven shrink (Eén/Mishchenko/Amla): the Step-3 bounded-UNSAT
    // refutation names the registers it needed in its assumption core;
    // included registers outside that core contributed nothing to refuting
    // this trace, so drop them before growing with the crucial set. Sound
    // for any included set — the abstract check over-approximates for every
    // scope and concrete checks always run on the full design — so this can
    // change which abstractions the loop visits, never a verdict.
    if (opt.proof_shrink && sat_conc.status == AtpgStatus::Unsat) {
      it.shrunk_registers = shrink_abstraction(
          &included, sat_conc.core_registers, &shrink_sticky);
      if (it.shrunk_registers > 0) {
        MetricsRegistry::global()
            .counter("rfn.shrink_registers")
            .add(it.shrunk_registers);
        RFN_INFO("iter %zu: proof shrink dropped %zu registers (now %zu)",
                 iter, it.shrunk_registers, included.size());
      }
    }
    finish_iteration(it);
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
      static_cast<double>(prof::thread_cpu_ns() - run_cpu0) * 1e-9 +
      off_thread_race_cpu_s;
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

// ---------------------------------------------------------------------------
// Clustering

std::vector<std::vector<size_t>> cluster_by_cone_overlap(
    const std::vector<std::vector<GateId>>& cones, double threshold,
    size_t max_cluster_size, const std::vector<bool>& solo) {
  std::vector<std::vector<size_t>> clusters;
  if (max_cluster_size == 0) max_cluster_size = 1;
  for (size_t i = 0; i < cones.size(); ++i) {
    const bool force_solo =
        threshold <= 0.0 || (i < solo.size() && solo[i]);
    bool placed = false;
    if (!force_solo) {
      for (auto& cluster : clusters) {
        if (cluster.size() >= max_cluster_size) continue;
        const size_t rep = cluster.front();
        if (rep < solo.size() && solo[rep]) continue;
        if (jaccard_overlap(cones[rep], cones[i]) >= threshold) {
          cluster.push_back(i);
          placed = true;
          break;
        }
      }
    }
    if (!placed) clusters.push_back({i});
  }
  return clusters;
}

// ---------------------------------------------------------------------------
// VerifySession

namespace {

RfnOptions merge_overrides(const RfnOptions& defaults,
                           const PropertyRequest::Overrides& o) {
  RfnOptions r = defaults;
  if (o.time_limit_s) r.time_limit_s = *o.time_limit_s;
  if (o.max_iterations) r.max_iterations = *o.max_iterations;
  if (o.traces_per_iteration) r.traces_per_iteration = *o.traces_per_iteration;
  if (o.budget_ms) r.budget_ms = *o.budget_ms;
  if (o.budget_bdd_nodes) r.budget_bdd_nodes = *o.budget_bdd_nodes;
  if (o.budget_mem_mb) r.budget_mem_mb = *o.budget_mem_mb;
  return r;
}

/// Applies the fair-share wall budget for a run answering `props_covered`
/// properties: the run may never exceed its members' combined share (an
/// explicit per-run budget can only tighten it further).
void apply_fair_share(RfnOptions& opt, double share_ms, size_t props_covered) {
  if (share_ms <= 0.0) return;
  const double run_budget = share_ms * static_cast<double>(props_covered);
  opt.budget_ms = opt.budget_ms > 0.0 ? std::min(opt.budget_ms, run_budget)
                                      : run_budget;
}

}  // namespace

VerifySession::VerifySession(const Netlist& m, SessionOptions opt)
    : m_(&m), opt_(std::move(opt)) {}

void VerifySession::notify(const PropertyResult& r) const {
  if (!opt_.on_property) return;
  std::lock_guard<std::mutex> lk(emit_mu_);
  opt_.on_property(r);
}

void VerifySession::run_cluster(const std::vector<PropertyRequest>& props,
                                const std::vector<std::vector<GateId>>& cones,
                                const std::vector<size_t>& members,
                                size_t cluster_id, double share_ms,
                                std::vector<PropertyResult>& results) const {
  // Cluster-local state, plus — when the caller provided a cross-session
  // warm cache and the session runs inline — the shared base cache. The
  // workers == 0 restriction is load-bearing: memo, pool, and order are
  // single-threaded by design, and concurrent cluster jobs would race on
  // them.
  ReuseCache local;
  ReuseCache* base_cache = (opt_.shared_cache != nullptr && opt_.workers == 0)
                               ? opt_.shared_cache
                               : &local;

  // One engine run with the reuse cache wired in. `cone` filters the
  // crucial-register hints down to registers that can actually influence
  // this run's property (seeding anything else would only bloat the
  // abstraction).
  const auto run_one = [&](const Netlist& net, GateId bad_sig,
                           const RfnOptions& ro,
                           const std::vector<GateId>& cone,
                           bool* order_seeded, size_t* seeded) -> RfnResult {
    RunHooks hooks;
    std::vector<GateId> seeds;
    if (opt_.reuse) {
      // Memo and pool must match the netlist the run sees: a pooled SatBmc
      // references its netlist by address, and memo keys reuse gate ids —
      // entries for an augmented disjunction copy would dangle (the copy
      // dies with the cluster) or collide with a later copy's coincident
      // ids. So only base-netlist runs touch the possibly-shared base
      // cache; the order and hints are original-design ids, portable across
      // both netlists, and always shared.
      ReuseCache& structural = &net == m_ ? *base_cache : local;
      for (GateId r : base_cache->crucial_hints)
        if (std::binary_search(cone.begin(), cone.end(), r)) seeds.push_back(r);
      hooks.subcircuits = &structural.subcircuits;
      hooks.sat_bmc = &structural.sat_bmc;
      hooks.order_io = &base_cache->order;
      hooks.order_seeded = order_seeded;
      hooks.seed_registers = &seeds;
      hooks.crucial_out = &base_cache->crucial_hints;
    }
    if (seeded != nullptr) *seeded = seeds.size();
    return run_property(net, bad_sig, ro, hooks);
  };

  const auto run_solo = [&](size_t idx, size_t fair_share_props) {
    const PropertyRequest& p = props[idx];
    RfnOptions ro = merge_overrides(opt_.defaults, p.overrides);
    apply_fair_share(ro, share_ms, fair_share_props);
    PropertyResult& out = results[idx];
    out.cluster = cluster_id;
    out.clustered = false;
    RfnResult rr = run_one(*m_, p.bad, ro, cones[idx], &out.order_seeded,
                           &out.seeded_registers);
    out.verdict = rr.verdict;
    out.trace = rr.error_trace;
    out.stats = std::move(rr);
    notify(out);
  };

  if (members.size() == 1) {
    run_solo(members.front(), 1);
    return;
  }

  // Shared run: one disjunction root answers the whole cluster at once. The
  // augmented design is a copy of the original plus OR gates above the
  // member properties, so every original GateId — and with it traces, cones,
  // hints, and saved variable orders — stays valid on both.
  Netlist aug = *m_;
  std::vector<size_t> remaining = members;
  // Cluster runs never carry per-property overrides (such properties are
  // forced solo by the clustering), so the shared run uses the defaults.
  for (size_t round = 0; !remaining.empty(); ++round) {
    // The union cone bounds which hint registers a shared run may seed.
    std::vector<GateId> union_cone;
    std::vector<GateId> bads;
    for (size_t idx : remaining) {
      bads.push_back(props[idx].bad);
      union_cone.insert(union_cone.end(), cones[idx].begin(), cones[idx].end());
    }
    std::sort(union_cone.begin(), union_cone.end());
    union_cone.erase(std::unique(union_cone.begin(), union_cone.end()),
                     union_cone.end());
    const GateId bad_any = append_disjunction(
        aug, bads,
        "session_any_c" + std::to_string(cluster_id) + "_r" + std::to_string(round));

    RfnOptions ro = opt_.defaults;
    apply_fair_share(ro, share_ms, remaining.size());
    bool order_seeded = false;
    size_t seeded = 0;
    RfnResult rr = run_one(aug, bad_any, ro, union_cone, &order_seeded, &seeded);
    MetricsRegistry::global().counter("session.cluster_runs").add(1);

    if (rr.verdict == Verdict::Holds) {
      // The disjunction never rises, so no member ever rises.
      for (size_t idx : remaining) {
        PropertyResult& out = results[idx];
        out.verdict = Verdict::Holds;
        out.stats = rr;
        out.cluster = cluster_id;
        out.clustered = true;
        out.order_seeded = order_seeded;
        out.seeded_registers = seeded;
        notify(out);
      }
      return;
    }

    if (rr.verdict == Verdict::Fails) {
      // Attribute the concrete error trace: a member fails iff its own bad
      // signal is a definite 1 at the trace's final cycle under 3-valued
      // replay (at least one must be — the disjunction is).
      std::vector<size_t> keep;
      size_t attributed = 0;
      for (size_t idx : remaining) {
        if (simulate_trace(aug, rr.error_trace, props[idx].bad) == Tri::T) {
          PropertyResult& out = results[idx];
          out.verdict = Verdict::Fails;
          out.trace = rr.error_trace;
          out.stats = rr;
          out.cluster = cluster_id;
          out.clustered = true;
          out.order_seeded = order_seeded;
          out.seeded_registers = seeded;
          notify(out);
          ++attributed;
        } else {
          keep.push_back(idx);
        }
      }
      if (attributed == 0) {
        // Replay could not pin the failure on any member (an X-heavy trace);
        // the shared run is inconclusive for attribution — answer the rest
        // independently rather than loop forever.
        RFN_WARN("cluster %zu: error trace attribution failed; falling back",
                 cluster_id);
        break;
      }
      remaining = std::move(keep);
      // The survivors re-run on a fresh disjunction (minus the failed
      // members), inheriting the cache the failed run warmed up.
      continue;
    }

    // Unknown / ResourceOut: the shared run could not answer the cluster;
    // fall back to independent per-property runs (still cache-warmed).
    break;
  }

  MetricsRegistry::global().counter("session.cluster_fallbacks").add(!remaining.empty());
  for (size_t idx : remaining) run_solo(idx, 1);
}

std::vector<PropertyResult> VerifySession::run(
    const std::vector<PropertyRequest>& props) {
  const std::vector<std::string> errors = opt_.defaults.validate();
  RFN_CHECK(errors.empty(), "invalid session options: %s",
            join_errors(errors).c_str());

  std::vector<PropertyResult> results(props.size());
  clusters_.clear();
  if (props.empty()) return results;

  Span span("session.run");
  const Stopwatch watch;

  // Resolve names and register cones; properties carrying overrides are
  // pinned solo so the override applies to exactly one run.
  std::vector<std::vector<GateId>> cones(props.size());
  std::vector<bool> solo(props.size(), false);
  for (size_t i = 0; i < props.size(); ++i) {
    const PropertyRequest& p = props[i];
    RFN_CHECK(p.bad != kNullGate && p.bad < m_->size(),
              "property %zu: bad signal out of range", i);
    results[i].bad = p.bad;
    results[i].name = !p.name.empty()        ? p.name
                      : m_->has_name(p.bad)  ? m_->name(p.bad)
                                             : "p" + std::to_string(i);
    cones[i] = coi_registers(*m_, {p.bad});
    std::sort(cones[i].begin(), cones[i].end());
    solo[i] = p.overrides.any();
  }

  clusters_ = cluster_by_cone_overlap(cones, opt_.cluster_overlap,
                                      opt_.max_cluster_size, solo);
  const double share_ms =
      opt_.batch_budget_ms > 0.0
          ? opt_.batch_budget_ms / static_cast<double>(props.size())
          : -1.0;
  RFN_INFO("session: %zu properties in %zu clusters (overlap >= %.2f)",
           props.size(), clusters_.size(), opt_.cluster_overlap);

  // Cluster jobs across the shared executor. Each job writes only its own
  // members' result slots, so the vector needs no locking; the latch below
  // is the completion barrier (inline execution with zero workers).
  Executor exec(opt_.workers);
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = clusters_.size();
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    exec.submit([&, ci] {
      Span job_span("session.cluster");
      job_span.annotate("cluster", static_cast<double>(ci));
      run_cluster(props, cones, clusters_[ci], ci, share_ms, results);
      std::lock_guard<std::mutex> lk(mu);
      if (--pending == 0) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return pending == 0; });
  }

  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("session.batches").add(1);
  reg.counter("session.properties").add(props.size());
  reg.counter("session.clusters").add(clusters_.size());
  for (const PropertyResult& r : results) {
    reg.counter("session.clustered_verdicts").add(r.clustered ? 1 : 0);
    reg.counter("session.order_seeded").add(r.order_seeded ? 1 : 0);
    reg.counter("session.seeded_registers").add(r.seeded_registers);
  }
  reg.timer("session.run").record(watch.seconds());
  span.annotate("properties", static_cast<double>(props.size()));
  span.annotate("clusters", static_cast<double>(clusters_.size()));
  return results;
}

}  // namespace rfn
