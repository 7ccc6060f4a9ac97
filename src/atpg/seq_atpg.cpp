#include "atpg/seq_atpg.hpp"

#include "atpg/frame_view.hpp"
#include "core/status.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfn {

namespace {

/// One flush per sequential solve ("atpg.seq.*"). The embedded
/// justification call reports its own search effort under "atpg.comb.*";
/// the sequential tier counts solves, solved depths and outcomes.
void record_seq_metrics(const SeqAtpgResult& res, size_t cycles) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("atpg.seq.calls").add(1);
  m.counter("atpg.seq.backtracks").add(res.backtracks);
  m.counter("atpg.seq.decisions").add(res.decisions);
  m.counter("atpg.seq.cycles_searched").add(cycles);
  switch (res.status) {
    case AtpgStatus::Sat: m.counter("atpg.seq.sat").add(1); break;
    case AtpgStatus::Unsat: m.counter("atpg.seq.unsat").add(1); break;
    case AtpgStatus::Abort: m.counter("atpg.seq.aborts").add(1); break;
  }
}

SeqAtpgResult solve_cycle_cubes_impl(const Netlist& m, std::span<const GateId> kept,
                                     const std::vector<Cube>& cubes, const AtpgOptions& opt) {
  SeqAtpgResult res;
  const size_t k = cubes.size();
  RFN_CHECK(k >= 1, "solve_cycle_cubes with no cycles");

  // Step-boundary should-stop poll before the time-frame view is built; the
  // justification search polls the same token per backtrack.
  if (should_stop(opt.cancel)) return res;  // status stays Abort

  std::vector<std::vector<GateId>> needed(k);
  for (size_t f = 0; f < k; ++f)
    for (const Literal& lit : cubes[f]) needed[f].push_back(lit.signal);

  const FrameView view(m, needed, kept);

  // Map the cycle cubes onto the view's nodes. A literal on a constant node
  // (a constant of M, or a kept register's hard initial value) is checked
  // immediately; a mismatch is a definitive Unsat.
  Cube targets;
  for (size_t f = 1; f <= k; ++f) {
    for (const Literal& lit : cubes[f - 1]) {
      const GateId node = view.node(f, lit.signal);
      RFN_CHECK(node != kNullGate, "needed signal outside the frame cone");
      const GateType t = view.type(node);
      if (t == GateType::Const0 || t == GateType::Const1) {
        if ((t == GateType::Const1) != lit.value) {
          res.status = AtpgStatus::Unsat;
          return res;
        }
        continue;
      }
      if (!cube_add(targets, {node, lit.value})) {
        // Two cycle cubes demand opposite values of the same node (aliasing
        // through registers): unsatisfiable.
        res.status = AtpgStatus::Unsat;
        return res;
      }
    }
  }

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
    for (GateId r : m.regs()) {
      const GateId node = view.node(f, r);
      if (node == kNullGate) continue;
      const Tri v = comb.valuation[node];
      if (v != Tri::X) step.state.push_back({r, v == Tri::T});
    }
    for (GateId in : m.inputs()) {
      const GateId node = view.node(f, in);
      if (node == kNullGate) continue;
      const Tri v = comb.valuation[node];
      if (v != Tri::X) step.inputs.push_back({in, v == Tri::T});
    }
  }
  return res;
}

}  // namespace

SeqAtpgResult solve_cycle_cubes(const Netlist& m, std::span<const GateId> kept,
                                const std::vector<Cube>& cubes, const AtpgOptions& opt) {
  Span span("atpg.seq");
  SeqAtpgResult res = solve_cycle_cubes_impl(m, kept, cubes, opt);
  span.annotate("status", to_string(res.status));
  record_seq_metrics(res, cubes.size());
  return res;
}

SeqAtpgResult solve_cycle_cubes(const Netlist& m, const std::vector<Cube>& cubes,
                                const AtpgOptions& opt) {
  return solve_cycle_cubes(m, m.regs(), cubes, opt);
}

SeqAtpgResult reach_target(const Netlist& m, size_t cycles, GateId target, bool value,
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
