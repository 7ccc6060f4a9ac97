#include "core/hybrid_trace.hpp"

#include "mc/image.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfn {

namespace {

/// How many path cubes of each pre-image result the walk tries, after the
/// fattest cube, before giving up on a step.
constexpr size_t kHybridCubeLimit = 64;

/// One flush per trace-extraction call ("hybrid.*"). The no-cut vs
/// min-cut split is the paper's Figure-1 quantity: how often the pre-image
/// cube was usable directly vs routed through combinational ATPG.
void record_hybrid_metrics(const HybridTraceStats& st, size_t traces) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("hybrid.walks").add(1);
  m.counter("hybrid.traces").add(traces);
  m.counter("hybrid.nocut_cubes").add(st.nocut_cubes);
  m.counter("hybrid.mincut_cubes").add(st.mincut_cubes);
  m.counter("hybrid.atpg_calls").add(st.atpg_calls);
  m.counter("hybrid.atpg_rejects").add(st.atpg_rejects);
  m.gauge("hybrid.mc_inputs").set(static_cast<int64_t>(st.mc_inputs));
  m.gauge("hybrid.model_inputs").set(static_cast<int64_t>(st.model_inputs));
}

}  // namespace

namespace {

/// Splits a BDD cube into N-cube parts. Literals on MC-input variables that
/// correspond to internal signals of N land in `internal`; those on N's
/// registers/inputs land in `state`/`inputs`.
struct SplitCube {
  Cube state;     // over N's registers
  Cube inputs;    // over N's primary inputs
  Cube internal;  // over internal signals of N (cut variables)
};

SplitCube split_mc_cube(const Encoder& enc_n, const Encoder& enc_mc,
                        const Subcircuit& mc, const Netlist& n,
                        const std::vector<BddLit>& lits) {
  SplitCube out;
  for (const BddLit& l : lits) {
    if (enc_n.is_state_var(l.var)) {
      out.state.push_back({enc_n.reg_of_var(l.var), l.positive});
      continue;
    }
    const GateId n_input = enc_n.input_of_var(l.var);
    if (n_input != kNullGate) {
      out.inputs.push_back({n_input, l.positive});
      continue;
    }
    // Must be a fresh MC input variable: translate through MC to N ids.
    const GateId mc_input = enc_mc.input_of_var(l.var);
    RFN_CHECK(mc_input != kNullGate, "cube literal on unknown var %u", l.var);
    const GateId n_sig = mc.to_old(mc_input);
    RFN_CHECK(n.is_comb(n_sig), "cut signal %u is not internal", n_sig);
    out.internal.push_back({n_sig, l.positive});
  }
  return out;
}

/// The backward walk over the min-cut design, its encoder and the rings.
class HybridWalker {
 public:
  HybridWalker(Encoder& enc, const Netlist& n, const ReachResult& reach,
               const Bdd& bad, const CancelToken* cancel, HybridTraceStats& st)
      : enc_(enc),
        n_(n),
        reach_(reach),
        st_(st),
        mcr_(compute_mincut_design(n)),
        enc_mc_(enc.mgr(), mcr_.mc, enc),
        img_mc_(enc_mc_) {
    atpg_.cancel = cancel;
    st_.mc_inputs = mcr_.mc.net.num_inputs();
    st_.model_inputs = n.num_inputs();
    st_.cone_inputs = mcr_.cone_inputs;
    RFN_INFO("hybrid: model inputs=%zu cone inputs=%zu mincut inputs=%zu",
             st_.model_inputs, st_.cone_inputs, st_.mc_inputs);
    while (k_ < reach.rings.size() && !reach.rings[k_].intersects(bad)) ++k_;
    RFN_CHECK(k_ < reach.rings.size(), "rings do not intersect bad");
    target_set_ = reach.rings[k_] & bad;
  }

  /// Walks backward from the shortest cube of the bad intersection; empty
  /// trace on failure, cancellation, or a null set (the manager abandoned
  /// an operation).
  Trace walk() {
    BddMgr& mgr = enc_.mgr();
    if (target_set_.is_null()) return Trace{};
    Trace trace;
    trace.steps.resize(k_ + 1);
    {
      Cube state, inputs;
      std::vector<BddLit> other;
      enc_.split_lits(mgr.shortest_cube(target_set_), state, inputs, other);
      RFN_CHECK(other.empty() && inputs.empty(), "bad set mentions non-state vars");
      trace.steps[k_].state = state;
    }

    Cube target = trace.steps[k_].state;
    for (size_t i = k_; i-- > 0;) {
      if (should_stop(atpg_.cancel)) return Trace{};
      const Bdd target_bdd = enc_.cube_bdd(target);
      const Bdd pre = img_mc_.pre_image_with_inputs(target_bdd);
      const Bdd step_set = pre & reach_.rings[i];
      if (step_set.is_null()) return Trace{};
      RFN_CHECK(!step_set.is_false(), "hybrid trace dead-ends at step %zu", i);

      // Candidate cubes: the fattest cube first, then path cubes in DFS
      // order.
      std::vector<std::vector<BddLit>> candidates;
      candidates.push_back(mgr.shortest_cube(step_set));
      for (auto& c : mgr.first_cubes(step_set, kHybridCubeLimit))
        candidates.push_back(std::move(c));

      bool accepted = false;
      for (const auto& lits : candidates) {
        SplitCube sc = split_mc_cube(enc_, enc_mc_, mcr_.mc, n_, lits);
        if (sc.internal.empty()) {
          // No-cut cube: accept directly.
          ++st_.nocut_cubes;
          trace.steps[i].state = sc.state;
          trace.steps[i].inputs = sc.inputs;
          target = sc.state;
          accepted = true;
          break;
        }
        // Min-cut cube: ask combinational ATPG on N for a consistent no-cut
        // cube. Registers of N are free signals for the justification.
        ++st_.mincut_cubes;
        ++st_.atpg_calls;
        Cube targets = sc.internal;
        for (const Literal& lit : sc.state) cube_add(targets, lit);
        for (const Literal& lit : sc.inputs) cube_add(targets, lit);
        const CombAtpgResult res = justify(n_, targets, atpg_);
        if (res.status != AtpgStatus::Sat) {
          ++st_.atpg_rejects;
          if (should_stop(atpg_.cancel)) return Trace{};
          continue;
        }
        Cube state, inputs;
        for (const Literal& lit : res.free_assignment) {
          if (n_.is_reg(lit.signal))
            cube_add(state, lit);
          else
            cube_add(inputs, lit);
        }
        // The justified assignment must still cover the min-cut cube's
        // state literals (they were targets, so it does); keep them
        // explicit.
        for (const Literal& lit : sc.state) cube_add(state, lit);
        for (const Literal& lit : sc.inputs) cube_add(inputs, lit);
        trace.steps[i].state = state;
        trace.steps[i].inputs = inputs;
        target = state;
        accepted = true;
        break;
      }
      if (!accepted) {
        RFN_WARN("hybrid trace: all %zu candidate cubes rejected at step %zu",
                 candidates.size(), i);
        return Trace{};
      }
    }
    return trace;
  }

 private:
  Encoder& enc_;
  const Netlist& n_;
  const ReachResult& reach_;
  AtpgOptions atpg_;  // default limits, the walk's token
  HybridTraceStats& st_;
  MinCutResult mcr_;
  Encoder enc_mc_;
  ImageComputer img_mc_;
  size_t k_ = 0;
  Bdd target_set_;
};

}  // namespace

Trace hybrid_error_trace(Encoder& enc, const Netlist& n, const ReachResult& reach,
                         const Bdd& bad, const CancelToken* cancel,
                         HybridTraceStats* stats) {
  Span span("hybrid.walk");
  HybridTraceStats local_stats;
  HybridTraceStats& st = stats ? *stats : local_stats;
  RFN_CHECK(reach.status == ReachStatus::BadReachable, "no abstract error trace");
  Trace t;
  if (!should_stop(cancel)) t = HybridWalker(enc, n, reach, bad, cancel, st).walk();
  record_hybrid_metrics(st, t.empty() ? 0 : 1);
  return t;
}

}  // namespace rfn
