#include "atpg/seq_atpg.hpp"

#include "atpg/frame_view.hpp"
#include "core/status.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfn {

namespace {

/// One flush per sequential solve ("atpg.seq.*"). The embedded justification
/// call reports its own search effort under "atpg.comb.*"; the sequential tier
/// counts solves, early refutations, solved depths and outcomes.
void record_seq_metrics(const SeqAtpgResult& res, size_t cycles, bool refuted_early) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("atpg.seq.calls").add(1);
  m.counter("atpg.seq.refuted_early").add(refuted_early ? 1 : 0);
  m.counter("atpg.seq.backtracks").add(res.backtracks);
  m.counter("atpg.seq.decisions").add(res.decisions);
  m.counter("atpg.seq.cycles_searched").add(cycles);
  switch (res.status) {
    case AtpgStatus::Sat: m.counter("atpg.seq.sat").add(1); break;
    case AtpgStatus::Unsat: m.counter("atpg.seq.unsat").add(1); break;
    case AtpgStatus::Abort: m.counter("atpg.seq.aborts").add(1); break;
  }
}

SeqAtpgResult solve_cycle_cubes_impl(const TopoIndex& m, std::span<const GateId> kept,
                                     const std::vector<Cube>& cubes, const AtpgOptions& opt,
                                     bool* refuted_early) {
  SeqAtpgResult res;
  const size_t k = cubes.size();
  RFN_CHECK(k >= 1, "solve_cycle_cubes with no cycles");

  // Step-boundary should-stop poll before the time-frame view is built; the
  // justification search polls the same token per backtrack.
  if (should_stop(opt.cancel)) return res;  // status stays Abort

  // Map the cycle cubes onto their nodes before any cone is built. A
  // literal on a constant node (a constant of M, or a kept register's hard
  // initial value) is checked here; a mismatch, or two cycle cubes demanding
  // opposite values of one node (aliasing through registers), is a
  // definitive Unsat.
  FrameNodes nodes(m, k, kept);
  std::vector<std::vector<GateId>> needed(k);
  Cube targets;
  for (size_t f0 = 0; f0 < k; ++f0) {
    for (const Literal& lit : cubes[f0]) {
      needed[f0].push_back(lit.signal);
      const GateId node = nodes.resolve(f0, lit.signal);
      const GateType t = nodes.type(node);
      const bool is_const = t == GateType::Const0 || t == GateType::Const1;
      if (is_const ? (t == GateType::Const1) != lit.value
                   : !cube_add(targets, {node, lit.value})) {
        res.status = AtpgStatus::Unsat;
        *refuted_early = true;
        return res;
      }
    }
  }

  const FrameView view(std::move(nodes), needed);
  CombAtpgResult comb = justify(view, targets, opt);
  res.status = comb.status;
  res.backtracks = comb.backtracks;
  res.decisions = comb.decisions;
  if (comb.status != AtpgStatus::Sat) return res;

  // Reconstruct the trace cycle by cycle from the valuation (constant nodes
  // carry their values there too). Each loop visits distinct signals, so the
  // cubes are appended without a lookup.
  res.trace.steps.resize(k);
  for (size_t f = 1; f <= k; ++f) {
    TraceStep& step = res.trace.steps[f - 1];
    for (GateId r : m.net.regs()) {
      const GateId node = view.node(f, r);
      if (node == kNullGate) continue;
      const Tri v = comb.valuation[node];
      if (v != Tri::X) step.state.push_back({r, v == Tri::T});
    }
    for (GateId in : m.net.inputs()) {
      const GateId node = view.node(f, in);
      if (node == kNullGate) continue;
      const Tri v = comb.valuation[node];
      if (v != Tri::X) step.inputs.push_back({in, v == Tri::T});
    }
  }
  return res;
}

}  // namespace

SeqAtpgResult solve_cycle_cubes(const TopoIndex& m, std::span<const GateId> kept,
                                const std::vector<Cube>& cubes, const AtpgOptions& opt) {
  Span span("atpg.seq");
  bool refuted_early = false;
  SeqAtpgResult res = solve_cycle_cubes_impl(m, kept, cubes, opt, &refuted_early);
  span.annotate("status", to_string(res.status));
  record_seq_metrics(res, cubes.size(), refuted_early);
  return res;
}

SeqAtpgResult solve_cycle_cubes(const TopoIndex& m, const std::vector<Cube>& cubes,
                                const AtpgOptions& opt) {
  return solve_cycle_cubes(m, m.net.regs(), cubes, opt);
}

SeqAtpgResult reach_target(const TopoIndex& m, size_t cycles, GateId target, bool value,
                           const std::vector<Cube>& guidance, const AtpgOptions& opt) {
  RFN_CHECK(guidance.empty() || guidance.size() == cycles,
            "guidance must cover every cycle");
  std::vector<Cube> cubes = guidance.empty() ? std::vector<Cube>(cycles) : guidance;
  if (!cube_add(cubes[cycles - 1], {target, value})) {
    SeqAtpgResult res;
    res.status = AtpgStatus::Unsat;
    return res;
  }
  return solve_cycle_cubes(m, cubes, opt);
}

}  // namespace rfn
