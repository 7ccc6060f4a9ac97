#include "atpg/comb_atpg.hpp"

#include "core/status.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfn {

namespace {

/// Walks from an unjustified gate objective down an X-path to a free signal
/// decision (signal, value). The chosen value is a heuristic; the search
/// explores the flip on conflict.
template <class Graph>
std::pair<GateId, bool> backtrace(const ImplicationEngine<Graph>& eng, GateId g, bool v) {
  const Graph& n = eng.graph();
  while (!eng.is_free(g)) {
    const auto fi = n.fanins(g);
    GateId next = kNullGate;
    bool next_v = v;
    auto first_x = [&]() {
      for (size_t i = 0; i < fi.size(); ++i)
        if (eng.value(fi[i]) == Tri::X) return fi[i];
      return kNullGate;
    };
    switch (n.type(g)) {
      case GateType::Buf:
        next = fi[0];
        next_v = v;
        break;
      case GateType::Not:
        next = fi[0];
        next_v = !v;
        break;
      case GateType::And:
      case GateType::Nand: {
        const bool conj = n.type(g) == GateType::And ? v : !v;
        next = first_x();
        next_v = conj ? true : false;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        const bool disj = n.type(g) == GateType::Or ? v : !v;
        next = first_x();
        next_v = disj ? true : false;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        const bool parity = n.type(g) == GateType::Xor ? v : !v;
        const Tri a = eng.value(fi[0]);
        const Tri b = eng.value(fi[1]);
        if (a != Tri::X) {
          next = fi[1];
          next_v = (a == Tri::T) != parity;
        } else if (b != Tri::X) {
          next = fi[0];
          next_v = (b == Tri::T) != parity;
        } else {
          next = fi[0];
          next_v = false;  // arbitrary; flip explored on conflict
        }
        break;
      }
      case GateType::Mux: {
        const Tri sel = eng.value(fi[0]);
        if (sel == Tri::F) {
          next = fi[1];
          next_v = v;
        } else if (sel == Tri::T) {
          next = fi[2];
          next_v = v;
        } else if (eng.value(fi[1]) == tri_of(v)) {
          next = fi[0];  // steer the select toward the agreeing data input
          next_v = false;
        } else if (eng.value(fi[2]) == tri_of(v)) {
          next = fi[0];
          next_v = true;
        } else {
          next = fi[0];
          next_v = false;
        }
        break;
      }
      default:
        fatal(detail::format("backtrace through non-combinational gate %u type=%s val=%c",
                             g, gate_type_name(n.type(g)), tri_char(eng.value(g))));
    }
    RFN_CHECK(next != kNullGate, "backtrace found no X fanin at gate %u", g);
    g = next;
    v = next_v;
  }
  return {g, v};
}

template <class Graph>
CombAtpgResult justify_impl(ImplicationEngine<Graph>& eng, const Cube& targets,
                            const AtpgOptions& opt) {
  CombAtpgResult res;

  // Assert the target cube. A conflict here is a definitive Unsat.
  for (const Literal& lit : targets) {
    if (!eng.assign(lit.signal, lit.value)) {
      res.status = AtpgStatus::Unsat;
      return res;
    }
  }

  struct Decision {
    GateId signal;
    bool value;
    bool flipped;
    size_t mark;
  };
  std::vector<Decision> stack;

  bool conflict = false;
  for (;;) {
    if (conflict) {
      ++res.backtracks;
      if (res.backtracks > opt.max_backtracks || should_stop(opt.cancel)) {
        res.status = AtpgStatus::Abort;
        return res;
      }
      // Chronological backtracking: flip the most recent unflipped decision.
      conflict = false;
      for (;;) {
        if (stack.empty()) {
          res.status = AtpgStatus::Unsat;
          return res;
        }
        Decision& d = stack.back();
        eng.undo_to(d.mark);
        if (!d.flipped) {
          d.flipped = true;
          d.value = !d.value;
          if (eng.assign(d.signal, d.value)) break;
          // Flip also conflicts: pop and continue unwinding.
        }
        stack.pop_back();
      }
      continue;
    }

    const GateId obj = eng.find_unjustified();
    if (obj == kNullGate) {
      // All required values are justified by the free-signal assignment.
      res.status = AtpgStatus::Sat;
      for (GateId g : eng.trail()) {
        if (eng.is_free(g)) res.free_assignment.push_back({g, eng.value(g) == Tri::T});
      }
      res.valuation = eng.values();
      return res;
    }

    const auto [signal, value] = backtrace(eng, obj, eng.value(obj) == Tri::T);
    ++res.decisions;
    stack.push_back({signal, value, false, eng.mark()});
    if (!eng.assign(signal, value)) conflict = true;
    if ((res.decisions & 0x3FF) == 0 && should_stop(opt.cancel)) {
      res.status = AtpgStatus::Abort;
      return res;
    }
  }
}

template <class Graph>
CombAtpgResult justify_graph(const Graph& graph, const Cube& targets,
                             const AtpgOptions& opt) {
  Span span("atpg.comb");
  ImplicationEngine eng(graph);
  CombAtpgResult res = justify_impl(eng, targets, opt);
  res.frontier_checks = eng.frontier_checks();
  span.annotate("status", to_string(res.status));
  // One flush per call: the search itself stays registry-free.
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("atpg.comb.calls").add(1);
  m.counter("atpg.comb.backtracks").add(res.backtracks);
  m.counter("atpg.comb.decisions").add(res.decisions);
  m.counter("atpg.comb.frontier_checks").add(res.frontier_checks);
  if (res.status == AtpgStatus::Abort) m.counter("atpg.comb.aborts").add(1);
  return res;
}

}  // namespace

CombAtpgResult justify(const Netlist& n, const Cube& targets, const AtpgOptions& opt) {
  return justify_graph(NetlistGraph(n), targets, opt);
}

CombAtpgResult justify(const FrameView& view, const Cube& targets,
                       const AtpgOptions& opt) {
  return justify_graph(view, targets, opt);
}

}  // namespace rfn
