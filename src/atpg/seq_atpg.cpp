#include "atpg/seq_atpg.hpp"

#include "atpg/unroll.hpp"
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

SeqAtpgResult solve_cycle_cubes_impl(const Netlist& m, const std::vector<Cube>& cubes,
                                     const AtpgOptions& opt) {
  SeqAtpgResult res;
  const size_t k = cubes.size();
  RFN_CHECK(k >= 1, "solve_cycle_cubes with no cycles");

  // Step-boundary should-stop poll before the (potentially large) time-frame
  // expansion; the justification search polls the same token per backtrack.
  if (should_stop(opt.cancel)) return res;  // status stays Abort

  std::vector<std::vector<GateId>> needed(k);
  for (size_t f = 0; f < k; ++f)
    for (const Literal& lit : cubes[f]) needed[f].push_back(lit.signal);

  const Unrolled u = unroll_cone(m, k, needed);

  // Map the cycle cubes into the flat model. Constant-folded literals are
  // checked immediately; a mismatch with a register's hard initial value (or
  // a constant) is a definitive Unsat.
  Cube flat;
  for (size_t f = 1; f <= k; ++f) {
    for (const Literal& lit : cubes[f - 1]) {
      const GateId g = u.at(f, lit.signal);
      RFN_CHECK(g != kNullGate, "needed signal not materialized");
      if (u.net.type(g) == GateType::Const0 || u.net.type(g) == GateType::Const1) {
        if ((u.net.type(g) == GateType::Const1) != lit.value) {
          res.status = AtpgStatus::Unsat;
          return res;
        }
        continue;
      }
      if (!cube_add(flat, {g, lit.value})) {
        // Two cycle cubes demand opposite values of the same flat net
        // (aliasing through registers): unsatisfiable.
        res.status = AtpgStatus::Unsat;
        return res;
      }
    }
  }

  CombAtpgResult comb = justify(u.net, flat, opt);
  res.status = comb.status;
  res.backtracks = comb.backtracks;
  res.decisions = comb.decisions;
  if (comb.status != AtpgStatus::Sat) return res;

  // Reconstruct the trace cycle by cycle from the flat valuation. Each loop
  // visits distinct signals, so the cubes are appended without a lookup.
  res.trace.steps.resize(k);
  for (size_t f = 1; f <= k; ++f) {
    TraceStep& step = res.trace.steps[f - 1];
    for (GateId r : m.regs()) {
      const GateId g = u.at(f, r);
      if (g == kNullGate) continue;
      Tri v;
      if (u.net.type(g) == GateType::Const0)
        v = Tri::F;
      else if (u.net.type(g) == GateType::Const1)
        v = Tri::T;
      else
        v = comb.valuation[g];
      if (v != Tri::X) step.state.push_back({r, v == Tri::T});
    }
    for (GateId in : m.inputs()) {
      const GateId g = u.at(f, in);
      if (g == kNullGate) continue;
      const Tri v = comb.valuation[g];
      if (v != Tri::X) step.inputs.push_back({in, v == Tri::T});
    }
  }
  return res;
}

}  // namespace

SeqAtpgResult solve_cycle_cubes(const Netlist& m, const std::vector<Cube>& cubes,
                                const AtpgOptions& opt) {
  Span span("atpg.seq");
  SeqAtpgResult res = solve_cycle_cubes_impl(m, cubes, opt);
  span.annotate("status", to_string(res.status));
  record_seq_metrics(res, cubes.size());
  return res;
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
