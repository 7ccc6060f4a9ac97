#include "core/coverage.hpp"

#include <algorithm>

#include "core/abstraction.hpp"
#include "core/concretize.hpp"
#include "core/hybrid_trace.hpp"
#include "core/refine.hpp"
#include "mc/image.hpp"
#include "netlist/subcircuit.hpp"
#include "sim/sim3.hpp"
#include "util/log.hpp"

namespace rfn {

namespace {

/// How many candidate traces to concretize per iteration.
constexpr size_t kTracesPerIteration = 4;

/// Builds the BDD (over the given variables) of the characteristic function
/// of a bitset: state s is in the set iff bits[s], where bit i of s is the
/// value of vars[i].
Bdd bdd_from_bitset(BddMgr& mgr, const std::vector<BddVar>& vars,
                    const std::vector<uint8_t>& bits, uint8_t wanted) {
  auto rec = [&](auto&& self, size_t i, size_t base) -> Bdd {
    if (i == vars.size())
      return bits[base] == wanted ? mgr.bdd_true() : mgr.bdd_false();
    const Bdd lo = self(self, i + 1, base);
    const Bdd hi = self(self, i + 1, base | (size_t{1} << i));
    return mgr.ite(mgr.var(vars[i]), hi, lo);
  };
  return rec(rec, 0, 0);
}

/// Evaluates membership of every coverage state in a BDD over the coverage
/// variables. Non-coverage variables are irrelevant by construction.
std::vector<uint8_t> membership(BddMgr& mgr, const Bdd& f,
                                const std::vector<BddVar>& vars) {
  std::vector<uint8_t> out(size_t{1} << vars.size(), 0);
  std::vector<bool> assign(mgr.num_vars(), false);
  for (size_t s = 0; s < out.size(); ++s) {
    for (size_t i = 0; i < vars.size(); ++i) assign[vars[i]] = (s >> i) & 1;
    out[s] = mgr.eval(f, assign) ? 1 : 0;
  }
  return out;
}

/// Flushes a manager's statistics into the metrics registry when the
/// iteration that owns it ends, whichever way it ends.
struct PublishOnExit {
  const BddMgr& mgr;
  ~PublishOnExit() { publish_bdd_metrics(mgr.stats()); }
};

}  // namespace

CoverageResult rfn_coverage_analysis(const Netlist& m,
                                     const std::vector<GateId>& coverage_regs,
                                     const CoverageOptions& opt) {
  RFN_CHECK(coverage_regs.size() <= 24, "too many coverage signals (%zu)",
            coverage_regs.size());
  for (GateId r : coverage_regs)
    RFN_CHECK(m.is_reg(r), "coverage signal %u is not a register", r);

  // One token carries the time limit to every engine call and every BDD
  // manager below.
  const Stopwatch watch;
  const CancelToken token(opt.time_limit_s);
  ReachOptions reach_opt;
  reach_opt.cancel = &token;
  AtpgOptions atpg_opt;
  atpg_opt.cancel = &token;
  // Why an iteration stopped short: the token, or the manager's node cap.
  const auto stop_reason = [&](const char* otherwise) {
    return token.cancelled() ? "cancelled" : otherwise;
  };
  CoverageResult result;
  result.total_states = size_t{1} << coverage_regs.size();
  result.state_class.assign(result.total_states, 0);

  // Included registers start as the coverage registers themselves (their
  // outputs are the "property signals" of this analysis).
  std::vector<GateId> included = initial_abstraction_registers(
      m, std::vector<GateId>(coverage_regs.begin(), coverage_regs.end()));
  for (GateId r : coverage_regs)
    if (std::find(included.begin(), included.end(), r) == included.end())
      included.push_back(r);
  const std::vector<GateId> roots(coverage_regs.begin(), coverage_regs.end());

  SavedOrder saved_order;
  const TopoIndex topo(m);  // shared by every extraction, ATPG call and replay
  auto mark_trace_reachable = [&](const Trace& t) {
    // Complete the (possibly partial) concrete trace deterministically and
    // record the coverage state of every cycle as reachable.
    Sim3 sim(topo);
    sim.load_initial_state();
    for (GateId r : m.regs())
      if (sim.value(r) == Tri::X)
        sim.set(r, cube_lookup(t.steps[0].state, r) == Tri::T ? Tri::T : Tri::F);
    for (size_t c = 0; c < t.steps.size(); ++c) {
      for (GateId in : m.inputs()) {
        const Tri v = cube_lookup(t.steps[c].inputs, in);
        sim.set(in, v == Tri::X ? Tri::F : v);
      }
      sim.eval();
      size_t s = 0;
      bool all_binary = true;
      for (size_t i = 0; i < coverage_regs.size(); ++i) {
        const Tri v = sim.value(coverage_regs[i]);
        if (v == Tri::X) all_binary = false;
        if (v == Tri::T) s |= size_t{1} << i;
      }
      if (all_binary && result.state_class[s] == 0) result.state_class[s] = 2;
      if (c + 1 < t.steps.size()) sim.step();
    }
  };

  for (size_t iter = 0; iter < opt.max_iterations; ++iter) {
    if (token.cancelled()) break;
    const size_t unknown_before =
        static_cast<size_t>(std::count(result.state_class.begin(),
                                       result.state_class.end(), 0));
    if (unknown_before == 0) break;
    ++result.iterations;

    std::sort(included.begin(), included.end());
    included.erase(std::unique(included.begin(), included.end()), included.end());
    const Subcircuit sub = extract_abstract_model(topo, roots, included);

    BddMgr mgr;
    const PublishOnExit publish{mgr};
    Encoder enc(mgr, sub.net);
    if (!saved_order.empty()) apply_saved_order(mgr, enc, sub, saved_order);
    mgr.set_auto_reorder(true);
    mgr.set_node_budget(kDefaultNodeBudget);
    mgr.set_cancel(&token);
    ImageComputer img(enc);
    if (img.aborted()) {
      RFN_WARN("coverage iter %zu: %s", iter,
               stop_reason("abstract model exceeded node budget"));
      break;
    }

    std::vector<BddVar> cov_vars;
    for (GateId r : coverage_regs) cov_vars.push_back(enc.state_var(sub.to_new(r)));

    // Full fixpoint on the abstract model (no early stop: the projection of
    // the complete fixpoint is what classifies unreachable states).
    const ReachResult reach =
        forward_reach(img, enc.initial_states(), mgr.bdd_false(), reach_opt);
    saved_order = save_order(mgr, enc, sub);
    if (reach.status != ReachStatus::Proved) {
      RFN_WARN("coverage iter %zu: %s", iter,
               stop_reason("abstract fixpoint did not complete"));
      break;
    }

    // Classify: coverage states outside the projected fixpoint are
    // unreachable on the over-approximating abstraction, hence on M.
    std::vector<BddVar> non_cov;
    for (BddVar v : enc.state_vars())
      if (std::find(cov_vars.begin(), cov_vars.end(), v) == cov_vars.end())
        non_cov.push_back(v);
    const Bdd projected = mgr.exists(reach.reached, non_cov);
    if (projected.is_null()) {
      RFN_WARN("coverage iter %zu: %s", iter,
               stop_reason("projection exceeded node budget"));
      break;
    }
    const std::vector<uint8_t> in_proj = membership(mgr, projected, cov_vars);
    for (size_t s = 0; s < result.total_states; ++s)
      if (!in_proj[s] && result.state_class[s] == 0) result.state_class[s] = 1;

    // Remaining unknown states: try to witness some of them.
    const Bdd targets = bdd_from_bitset(mgr, cov_vars, result.state_class, 0);
    if (targets.is_false()) break;

    bool refined = false;
    size_t attempts = 0;
    Bdd remaining = targets;
    while (attempts < kTracesPerIteration && !remaining.is_false() &&
           !token.cancelled()) {
      ++attempts;
      // Reuse the rings: find the first ring that hits the remaining
      // targets and extract a hybrid trace to it.
      if (!reach.reached.intersects(remaining)) break;
      ReachResult hit = reach;
      hit.status = ReachStatus::BadReachable;
      const Trace abs_trace_n =
          hybrid_error_trace(enc, sub.net, hit, remaining, &token);
      if (abs_trace_n.empty()) break;
      const Trace abs_trace = sub.trace_to_old(abs_trace_n);

      // Concretize: succeed -> mark reachable states; fail -> refine.
      // The "bad" signal for coverage is implicit (a specific coverage
      // state); concretization targets the final state cube directly.
      const SeqAtpgResult seq =
          solve_abstract_trace(topo, m.regs(), abs_trace, /*bad=*/kNullGate, atpg_opt);
      if (seq.status == AtpgStatus::Sat) {
        mark_trace_reachable(seq.trace);
        // Exclude the targeted coverage state from this iteration's
        // remaining set either way.
        const Bdd final_cube = enc.cube_bdd(sub.cube_to_new(abs_trace.steps.back().state));
        remaining = remaining.diff(mgr.exists(final_cube, non_cov));
      } else {
        // Spurious: refine with this trace. The property signal for the
        // refinement replay is not a single wire; pass the coverage target
        // via trace satisfiability on the final state cube only.
        const std::vector<GateId> crucial = identify_crucial_registers(
            topo, /*bad=*/kNullGate, included, abs_trace, atpg_opt);
        if (!crucial.empty()) {
          for (GateId r : crucial) included.push_back(r);
          refined = true;
        }
        break;
      }
    }
    if (!refined && attempts == 0) break;  // nothing more to do
    if (!refined && reach.status == ReachStatus::Proved && attempts > 0) {
      // We witnessed some states but had no refinement; loop again only if
      // progress was made.
      const size_t unknown_after =
          static_cast<size_t>(std::count(result.state_class.begin(),
                                         result.state_class.end(), 0));
      if (unknown_after == unknown_before) break;
    }
  }

  for (uint8_t c : result.state_class) {
    if (c == 1) ++result.unreachable;
    if (c == 2) ++result.reachable;
  }
  result.unknown = result.total_states - result.unreachable - result.reachable;
  result.final_abstract_regs = included.size();
  result.seconds = watch.seconds();
  return result;
}

}  // namespace rfn
