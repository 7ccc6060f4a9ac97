// AIGER serialization and witness export.
//
// write_aiger assigns literals in a single ascending-GateId sweep — sound
// because Netlist construction only ever adds gates whose combinational
// fanins already exist (registers are patched later but are sources here).
// Gate types outside the and-inverter basis are decomposed on the fly:
//   Or(a,b)   = ~(~a & ~b)           Nand/Nor  = complement of And/Or
//   Xor(a,b)  = ~(~(a & ~b) & ~(~a & b))
//   Mux(s,a,b)= ~(~(s & b) & ~(~s & a))        (b = sel-true branch)
// with n-ary And/Or left-folded into 2-input chains. mk_and constant-folds
// (0, 1, a&a, a&~a) so no and line ever references a constant or repeats an
// operand — one of the invariants the reader's normalization relies on for
// read-after-write idempotence. And gates are emitted in the order they are
// created, which for an already-normalized netlist is exactly its GateId
// order; reading the output back therefore replays the same creation
// sequence and reproduces the same design_hash.

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "aiger/aiger.hpp"
#include "util/log.hpp"

namespace rfn::aiger {

namespace {

void push_varint(std::string* out, uint64_t x) {
  while (x >= 0x80) {
    out->push_back(static_cast<char>(0x80 | (x & 0x7F)));
    x >>= 7;
  }
  out->push_back(static_cast<char>(x));
}

}  // namespace

std::string write_aiger(const Netlist& n, bool binary) {
  const uint64_t I = n.num_inputs();
  const uint64_t L = n.num_regs();
  constexpr uint64_t kUnassigned = ~uint64_t{0};
  std::vector<uint64_t> lit(n.size(), kUnassigned);
  for (uint64_t k = 0; k < I; ++k) lit[n.inputs()[k]] = 2 * (k + 1);
  for (uint64_t k = 0; k < L; ++k) lit[n.regs()[k]] = 2 * (I + 1 + k);

  std::vector<std::pair<uint64_t, uint64_t>> ands;  // (rhs0, rhs1), rhs0>=rhs1
  // Structural hashing mirrors the reader's NetBuilder: decompositions of
  // distinct gates may produce the same operand pair, and emitting it twice
  // would let the reader merge lines (changing gate creation order between
  // a file and its re-serialization, which breaks hash idempotence).
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> strash;
  auto mk_and = [&](uint64_t a, uint64_t b) -> uint64_t {
    if (a == 0 || b == 0) return 0;
    if (a == 1) return b;
    if (b == 1) return a;
    if (a == b) return a;
    if ((a ^ b) == 1) return 0;
    if (a < b) std::swap(a, b);
    const auto [it, fresh] = strash.try_emplace({a, b}, 0);
    if (!fresh) return it->second;
    ands.emplace_back(a, b);
    it->second = 2 * (I + L + ands.size());
    return it->second;
  };

  for (GateId g = 0; g < n.size(); ++g) {
    if (lit[g] != kUnassigned) continue;  // inputs and registers
    const GateType type = n.type(g);
    const std::span<const GateId> fanins = n.fanins(g);
    auto f = [&](size_t i) { return lit[fanins[i]]; };
    switch (type) {
      case GateType::Const0:
        lit[g] = 0;
        break;
      case GateType::Const1:
        lit[g] = 1;
        break;
      case GateType::Buf:
        lit[g] = f(0);
        break;
      case GateType::Not:
        lit[g] = f(0) ^ 1;
        break;
      case GateType::And:
      case GateType::Nand: {
        uint64_t acc = f(0);
        for (size_t i = 1; i < fanins.size(); ++i) acc = mk_and(acc, f(i));
        lit[g] = type == GateType::Nand ? acc ^ 1 : acc;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        uint64_t acc = f(0) ^ 1;
        for (size_t i = 1; i < fanins.size(); ++i)
          acc = mk_and(acc, f(i) ^ 1);
        lit[g] = type == GateType::Nor ? acc : acc ^ 1;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        const uint64_t a = f(0), b = f(1);
        const uint64_t x =
            mk_and(mk_and(a, b ^ 1) ^ 1, mk_and(a ^ 1, b) ^ 1) ^ 1;
        lit[g] = type == GateType::Xnor ? x ^ 1 : x;
        break;
      }
      case GateType::Mux: {
        const uint64_t s = f(0), d0 = f(1), d1 = f(2);
        lit[g] = mk_and(mk_and(s, d1) ^ 1, mk_and(s ^ 1, d0) ^ 1) ^ 1;
        break;
      }
      case GateType::Input:
      case GateType::Reg:
        RFN_CHECK(false, "gate %u of type %s has no literal", g,
                  gate_type_name(type));
        break;
    }
  }

  const uint64_t A = ands.size();
  const uint64_t M = I + L + A;
  const uint64_t B = n.outputs().size();

  std::string out = binary ? "aig " : "aag ";
  auto push_num = [&out](uint64_t x) { out += std::to_string(x); };
  push_num(M);
  out += ' ';
  push_num(I);
  out += ' ';
  push_num(L);
  out += " 0 ";  // O = 0: every output ships as a bad-state property
  push_num(A);
  if (B > 0) {
    out += ' ';
    push_num(B);
  }
  out += '\n';

  if (!binary) {
    for (uint64_t k = 0; k < I; ++k) {
      push_num(2 * (k + 1));
      out += '\n';
    }
  }
  for (uint64_t k = 0; k < L; ++k) {
    const GateId r = n.regs()[k];
    const uint64_t self = 2 * (I + 1 + k);
    if (!binary) {
      push_num(self);
      out += ' ';
    }
    push_num(lit[n.reg_data(r)]);
    const Tri init = n.reg_init(r);
    if (init == Tri::T) {
      out += " 1";
    } else if (init == Tri::X) {
      out += ' ';
      push_num(self);  // own literal: uninitialized power-up
    }
    out += '\n';
  }
  for (const auto& [name, g] : n.outputs()) {
    push_num(lit[g]);
    out += '\n';
  }
  if (binary) {
    for (uint64_t j = 0; j < A; ++j) {
      const uint64_t lhs = 2 * (I + L + j + 1);
      push_varint(&out, lhs - ands[j].first);
      push_varint(&out, ands[j].first - ands[j].second);
    }
  } else {
    for (uint64_t j = 0; j < A; ++j) {
      push_num(2 * (I + L + j + 1));
      out += ' ';
      push_num(ands[j].first);
      out += ' ';
      push_num(ands[j].second);
      out += '\n';
    }
  }

  // The reader rejects duplicate names within a symbol class, but a Netlist
  // can carry them (e.g. the same output registered twice). Skip repeated
  // gate names and suffix repeated property names so the output always
  // reads back.
  std::set<std::string> gate_names, prop_names;
  for (uint64_t k = 0; k < I; ++k) {
    const GateId g = n.inputs()[k];
    if (!n.has_name(g) || !gate_names.insert(n.name(g)).second) continue;
    out += 'i';
    push_num(k);
    out += ' ';
    out += n.name(g);
    out += '\n';
  }
  for (uint64_t k = 0; k < L; ++k) {
    const GateId r = n.regs()[k];
    if (!n.has_name(r) || !gate_names.insert(n.name(r)).second) continue;
    out += 'l';
    push_num(k);
    out += ' ';
    out += n.name(r);
    out += '\n';
  }
  for (uint64_t k = 0; k < B; ++k) {
    std::string name = n.outputs()[k].first;
    while (!prop_names.insert(name).second) name += "_b" + std::to_string(k);
    out += 'b';
    push_num(k);
    out += ' ';
    out += name;
    out += '\n';
  }
  return out;
}

std::string write_witness_fails(const Netlist& n, size_t property_index,
                                const Trace& trace) {
  std::string out = "1\nb" + std::to_string(property_index) + "\n";
  // Initial latch state: registers the trace leaves open fall back to their
  // reset value ('x' when the reset itself is unconstrained).
  const Cube empty;
  const Cube& s0 = trace.steps.empty() ? empty : trace.steps[0].state;
  for (const GateId r : n.regs()) {
    Tri v = cube_lookup(s0, r);
    if (v == Tri::X) v = n.reg_init(r);
    out += tri_char(v);
  }
  out += '\n';
  for (const TraceStep& step : trace.steps) {
    for (const GateId i : n.inputs()) out += tri_char(cube_lookup(step.inputs, i));
    out += '\n';
  }
  out += ".\n";
  return out;
}

std::string write_witness_holds(size_t property_index) {
  return "0\nb" + std::to_string(property_index) + "\n.\n";
}

}  // namespace rfn::aiger
