#include "cert/check.hpp"

#include <vector>

#include "netlist/analysis.hpp"
#include "sat/solver.hpp"
#include "sim/sim3.hpp"
#include "util/log.hpp"

namespace rfn::cert {

namespace {

using sat::LBool;
using sat::Lit;
using sat::Solver;

/// Tseitin encoding of combinational cones cut at *every* register boundary:
/// registers and primary inputs become free solver variables (the scope
/// registers' variables double as the invariant's current-state variables),
/// and each gate's function is encoded on demand, memoized per signal. One
/// encoder instance per obligation keeps the instances independent.
class CutEncoder {
 public:
  CutEncoder(const Netlist& m, Solver& s)
      : m_(m), s_(s), lit_(m.size(), sat::kUndefLit) {}

  Lit lit(GateId g) {
    if (lit_[g] == sat::kUndefLit) encode(g);
    return lit_[g];
  }

 private:
  Lit fresh() { return Lit::make(s_.new_var()); }

  Lit true_lit() {
    if (true_lit_ == sat::kUndefLit) {
      true_lit_ = fresh();
      s_.add_clause({true_lit_});
    }
    return true_lit_;
  }

  /// out <-> AND(ins); negate out/ins to express NAND/OR/NOR.
  void encode_and(Lit out, const std::vector<Lit>& ins) {
    std::vector<Lit> big{out};
    for (Lit in : ins) {
      s_.add_clause({~out, in});
      big.push_back(~in);
    }
    s_.add_clause(std::move(big));
  }

  void encode_xor(Lit out, Lit a, Lit b) {
    s_.add_clause({~out, a, b});
    s_.add_clause({~out, ~a, ~b});
    s_.add_clause({out, ~a, b});
    s_.add_clause({out, a, ~b});
  }

  void encode(GateId root) {
    // Explicit DFS: combinational chains can outrun the call stack.
    std::vector<GateId> stack{root};
    while (!stack.empty()) {
      const GateId g = stack.back();
      if (lit_[g] != sat::kUndefLit) {
        stack.pop_back();
        continue;
      }
      const GateType type = m_.type(g);
      const std::span<const GateId> fanins = m_.fanins(g);
      if (type == GateType::Input || type == GateType::Reg) {
        lit_[g] = fresh();  // free cut variable
        stack.pop_back();
        continue;
      }
      if (type == GateType::Const0 || type == GateType::Const1) {
        lit_[g] = type == GateType::Const1 ? true_lit() : ~true_lit();
        stack.pop_back();
        continue;
      }
      bool ready = true;
      for (GateId in : fanins) {
        if (lit_[in] == sat::kUndefLit) {
          stack.push_back(in);
          ready = false;
        }
      }
      if (!ready) continue;
      stack.pop_back();
      std::vector<Lit> ins;
      ins.reserve(fanins.size());
      for (GateId in : fanins) ins.push_back(lit_[in]);
      const Lit out = fresh();
      switch (type) {
        case GateType::Buf:
          s_.add_clause({~out, ins[0]});
          s_.add_clause({out, ~ins[0]});
          break;
        case GateType::Not:
          s_.add_clause({~out, ~ins[0]});
          s_.add_clause({out, ins[0]});
          break;
        case GateType::And:
          encode_and(out, ins);
          break;
        case GateType::Nand:
          encode_and(~out, ins);
          break;
        case GateType::Or:
          for (Lit& in : ins) in = ~in;
          encode_and(~out, ins);
          break;
        case GateType::Nor:
          for (Lit& in : ins) in = ~in;
          encode_and(out, ins);
          break;
        case GateType::Xor:
          encode_xor(out, ins[0], ins[1]);
          break;
        case GateType::Xnor:
          encode_xor(~out, ins[0], ins[1]);
          break;
        case GateType::Mux:
          // out <-> (sel ? d1 : d0)
          s_.add_clause({~ins[0], ~ins[2], out});
          s_.add_clause({~ins[0], ins[2], ~out});
          s_.add_clause({ins[0], ~ins[1], out});
          s_.add_clause({ins[0], ins[1], ~out});
          break;
        default:
          RFN_CHECK(false, "cut encoder: unexpected gate type");
      }
      lit_[g] = out;
    }
  }

  const Netlist& m_;
  Solver& s_;
  std::vector<Lit> lit_;
  Lit true_lit_ = sat::kUndefLit;
};

Lit clause_lit(int32_t dimacs, const std::vector<Lit>& regs) {
  const size_t idx = static_cast<size_t>(dimacs < 0 ? -dimacs : dimacs) - 1;
  return dimacs < 0 ? ~regs[idx] : regs[idx];
}

/// Asserts Inv: one solver clause per certificate clause over `regs`.
void add_invariant(Solver& s, const Certificate& c, const std::vector<Lit>& regs) {
  for (const std::vector<int32_t>& clause : c.clauses) {
    std::vector<Lit> lits;
    lits.reserve(clause.size());
    for (int32_t l : clause) lits.push_back(clause_lit(l, regs));
    s.add_clause(std::move(lits));
  }
}

/// Asserts ¬Inv over `regs`: per-clause selector s_i with s_i -> every
/// literal of clause i false, plus the disjunction of the selectors. Must
/// not be called with an empty clause list (¬true is unsatisfiable; callers
/// pass such obligations trivially).
void add_not_invariant(Solver& s, const Certificate& c, const std::vector<Lit>& regs) {
  std::vector<Lit> selectors;
  selectors.reserve(c.clauses.size());
  for (const std::vector<int32_t>& clause : c.clauses) {
    const Lit sel = Lit::make(s.new_var());
    for (int32_t l : clause) s.add_clause({~sel, ~clause_lit(l, regs)});
    selectors.push_back(sel);
  }
  s.add_clause(std::move(selectors));
}

std::string assignment_string(const Netlist& m, const Certificate& c,
                              const Solver& s, const std::vector<Lit>& regs,
                              const std::vector<Lit>* next) {
  std::string out;
  constexpr size_t kMaxShown = 32;
  for (size_t i = 0; i < c.registers.size() && i < kMaxShown; ++i) {
    if (!out.empty()) out += ' ';
    const GateId r = c.registers[i];
    out += m.has_name(r) ? m.name(r) : "g" + std::to_string(r);
    const LBool v = s.lit_value(regs[i]);
    out += v == LBool::True ? "=1" : (v == LBool::False ? "=0" : "=x");
    if (next != nullptr) {
      const LBool nv = s.lit_value((*next)[i]);
      out += nv == LBool::True ? "->1" : (nv == LBool::False ? "->0" : "->x");
    }
  }
  if (c.registers.size() > kMaxShown) out += " ...";
  return out;
}

CheckResult refuted(const char* obligation, const std::string& assignment) {
  CheckResult res;
  res.obligation = obligation;
  res.detail = "satisfying assignment: " + assignment;
  return res;
}

CheckResult check_holds(const Netlist& m, const Certificate& c) {
  CheckResult res;

  // Obligation 1 — initiation: the initial states (scope registers at their
  // reset values, X-init registers free) must satisfy Inv.
  if (!c.clauses.empty()) {
    Solver s;
    std::vector<Lit> regs;
    regs.reserve(c.registers.size());
    for (size_t i = 0; i < c.registers.size(); ++i)
      regs.push_back(Lit::make(s.new_var()));
    add_not_invariant(s, c, regs);
    std::vector<Lit> assumptions;
    for (size_t i = 0; i < c.registers.size(); ++i) {
      const Tri init = m.reg_init(c.registers[i]);
      if (init != Tri::X) assumptions.push_back(init == Tri::T ? regs[i] : ~regs[i]);
    }
    if (s.solve(assumptions) == Solver::Result::Sat)
      return refuted(kObligationInitiation,
                     assignment_string(m, c, s, regs, nullptr));
  }

  // Obligation 2 — consecution: Inv ∧ T ⇒ Inv′ with one copy of each scope
  // register's next-state cone, every register boundary cut free.
  if (!c.clauses.empty()) {
    Solver s;
    CutEncoder enc(m, s);
    std::vector<Lit> regs, next;
    regs.reserve(c.registers.size());
    next.reserve(c.registers.size());
    for (GateId r : c.registers) regs.push_back(enc.lit(r));
    for (GateId r : c.registers) next.push_back(enc.lit(m.reg_data(r)));
    add_invariant(s, c, regs);
    add_not_invariant(s, c, next);
    if (s.solve() == Solver::Result::Sat)
      return refuted(kObligationConsecution,
                     assignment_string(m, c, s, regs, &next));
  }

  // Obligation 3 — safety: no state satisfying Inv can raise bad under any
  // input (inputs and out-of-scope registers are free in the cut cone).
  {
    Solver s;
    CutEncoder enc(m, s);
    std::vector<Lit> regs;
    regs.reserve(c.registers.size());
    for (GateId r : c.registers) regs.push_back(enc.lit(r));
    add_invariant(s, c, regs);
    const Lit bad = enc.lit(c.bad);
    s.add_clause({bad});
    if (s.solve() == Solver::Result::Sat)
      return refuted(kObligationSafety, assignment_string(m, c, s, regs, nullptr));
  }

  res.ok = true;
  res.detail = "initiation, consecution, safety discharged (" +
               std::to_string(c.clauses.size()) + " clauses over " +
               std::to_string(c.registers.size()) + " registers)";
  return res;
}

CheckResult check_fails(const Netlist& m, const Certificate& c) {
  CheckResult res;
  if (c.trace.empty()) {
    res.obligation = kObligationFormat;
    res.detail = "fails-trace certificate carries an empty trace";
    return res;
  }
  const TopoIndex topo(m);
  Sim3 sim(topo);
  sim.load_initial_state();
  for (const Literal& lit : c.trace.steps[0].state)  // X-init regs take the pins
    if (lit.signal < m.size() && m.is_reg(lit.signal) && sim.value(lit.signal) == Tri::X)
      sim.set(lit.signal, tri_of(lit.value));
  const size_t depth = c.trace.cycles();
  for (size_t i = 0; i < depth; ++i) {
    if (i > 0) sim.step();
    sim.clear_inputs();
    for (const Literal& lit : c.trace.steps[i].inputs)
      if (lit.signal < m.size() && m.is_input(lit.signal))
        sim.set(lit.signal, tri_of(lit.value));
    sim.eval();
    for (const Literal& lit : c.trace.steps[i].state) {
      const GateId r = lit.signal;
      if (r >= m.size() || !m.is_reg(r) || sim.value(r) == tri_of(lit.value)) continue;
      res.obligation = kObligationTraceReplay;
      res.detail = "cycle " + std::to_string(i + 1) + ": register " +
                   (m.has_name(r) ? m.name(r) : "g" + std::to_string(r)) +
                   " simulates to " + tri_char(sim.value(r)) +
                   " but the trace pins " + (lit.value ? '1' : '0');
      return res;
    }
  }
  if (sim.value(c.bad) != Tri::T) {
    res.obligation = kObligationTraceReplay;
    res.detail = "the trace does not drive the property signal to 1 at cycle " +
                 std::to_string(depth);
    return res;
  }
  res.ok = true;
  res.detail = "trace replays to bad = 1 at cycle " + std::to_string(depth);
  return res;
}

}  // namespace

CheckResult check_certificate(const Netlist& m, const Certificate& cert) {
  CheckResult res;
  if (design_hash(m) != cert.design_hash) {
    res.obligation = kObligationDesignHash;
    res.detail = "certificate was issued for a different design (hash " +
                 design_hash_hex(m) + " expected)";
    return res;
  }
  if (cert.bad >= m.size()) {
    res.obligation = kObligationFormat;
    res.detail = "property root " + std::to_string(cert.bad) +
                 " does not exist in the design";
    return res;
  }
  for (GateId r : cert.registers) {
    if (r >= m.size() || !m.is_reg(r)) {
      res.obligation = kObligationFormat;
      res.detail = "scope id " + std::to_string(r) + " is not a register";
      return res;
    }
  }
  return cert.kind == CertKind::HoldsInvariant ? check_holds(m, cert)
                                               : check_fails(m, cert);
}

}  // namespace rfn::cert
