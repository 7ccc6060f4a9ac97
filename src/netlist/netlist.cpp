#include "netlist/netlist.hpp"

#include <algorithm>
#include <functional>

namespace rfn {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::Input: return "input";
    case GateType::Const0: return "const0";
    case GateType::Const1: return "const1";
    case GateType::Buf: return "buf";
    case GateType::Not: return "not";
    case GateType::And: return "and";
    case GateType::Or: return "or";
    case GateType::Nand: return "nand";
    case GateType::Nor: return "nor";
    case GateType::Xor: return "xor";
    case GateType::Xnor: return "xnor";
    case GateType::Mux: return "mux";
    case GateType::Reg: return "reg";
  }
  return "?";
}

namespace {

bool arity_ok(GateType t, size_t n) {
  switch (t) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      return n == 0;
    case GateType::Buf:
    case GateType::Not:
    case GateType::Reg:
      return n == 1;
    case GateType::And:
    case GateType::Or:
    case GateType::Nand:
    case GateType::Nor:
      return n >= 2;
    case GateType::Xor:
    case GateType::Xnor:
      return n == 2;
    case GateType::Mux:
      return n == 3;
  }
  return false;
}

}  // namespace

GateId Netlist::add(GateType type, std::initializer_list<GateId> fanins, Tri init) {
  return add(type, std::span<const GateId>(fanins.begin(), fanins.size()), init);
}

GateId Netlist::add(GateType type, std::span<const GateId> fanins, Tri init) {
  // Registers may be created with a placeholder data input (kNullGate) that
  // is patched later via set_reg_data; everything else must be fully wired.
  const bool placeholder = type == GateType::Reg && fanins.empty();
  const size_t arity = placeholder ? 1 : fanins.size();
  RFN_CHECK(arity_ok(type, arity), "bad arity %zu for %s", arity, gate_type_name(type));
  RFN_CHECK(pool_.size() + arity <= UINT32_MAX, "fanin pool overflow");
  const GateId id = static_cast<GateId>(size());
  const Tri reg_init = type == GateType::Reg ? init : Tri::F;
  kinds_.push_back(static_cast<uint8_t>(static_cast<uint8_t>(type) |
                                        static_cast<uint8_t>(reg_init) << 4));
  if (placeholder) {
    pool_.push_back(kNullGate);
  } else if (!pool_.empty() && std::less_equal<>()(pool_.data(), fanins.data()) &&
             std::less<>()(fanins.data(), pool_.data() + pool_.size())) {
    // A view of this pool: copy by index, since growing the pool moves it.
    const size_t from = static_cast<size_t>(fanins.data() - pool_.data());
    for (size_t i = 0; i < arity; ++i) pool_.push_back(pool_[from + i]);
  } else {
    pool_.insert(pool_.end(), fanins.begin(), fanins.end());
  }
  ends_.push_back(static_cast<uint32_t>(pool_.size()));
  if (type == GateType::Input) inputs_.push_back(id);
  if (type == GateType::Reg) regs_.push_back(id);
  return id;
}

void Netlist::set_reg_data(GateId reg, GateId data) {
  RFN_CHECK(is_reg(reg), "set_reg_data on non-register %u", reg);
  RFN_CHECK(data < size(), "dangling data fanin %u", data);
  pool_[ends_[reg] - 1] = data;
}

void Netlist::set_name(GateId g, const std::string& name) {
  names_[g] = name;
  by_name_[name] = g;
}

void Netlist::add_output(const std::string& name, GateId g) {
  RFN_CHECK(g < size(), "output %s references dangling gate", name.c_str());
  outputs_.emplace_back(name, g);
  // Give the gate the output's name only if it has none: a register named
  // "state" exported as output "p" keeps its own name.
  if (by_name_.find(name) == by_name_.end() && !has_name(g)) set_name(g, name);
}

size_t Netlist::num_gates() const {
  size_t n = 0;
  for (GateId g = 0; g < size(); ++g)
    if (is_comb(g)) ++n;
  return n;
}

size_t Netlist::heap_bytes() const {
  // Per hash-map entry: the node (next pointer, key/value pair, cached hash)
  // plus its bucket slot; string payloads only past the small-string buffer.
  auto str_bytes = [](const std::string& s) {
    return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
  };
  size_t bytes = kinds_.capacity() + ends_.capacity() * sizeof(uint32_t) +
                 pool_.capacity() * sizeof(GateId) +
                 (inputs_.capacity() + regs_.capacity()) * sizeof(GateId) +
                 outputs_.capacity() * sizeof(outputs_[0]);
  for (const auto& [name, g] : outputs_) bytes += str_bytes(name);
  bytes += names_.bucket_count() * sizeof(void*) + by_name_.bucket_count() * sizeof(void*);
  for (const auto& [g, name] : names_)
    bytes += 2 * sizeof(void*) + sizeof(std::pair<const GateId, std::string>) + str_bytes(name);
  for (const auto& [name, g] : by_name_)
    bytes += 2 * sizeof(void*) + sizeof(std::pair<const std::string, GateId>) + str_bytes(name);
  return bytes;
}

const std::string& Netlist::name(GateId g) const {
  static const std::string empty;
  const auto it = names_.find(g);
  return it == names_.end() ? empty : it->second;
}

bool Netlist::has_name(GateId g) const { return names_.count(g) > 0; }

GateId Netlist::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNullGate : it->second;
}

GateId Netlist::output(const std::string& name) const {
  for (const auto& [n, g] : outputs_)
    if (n == name) return g;
  return kNullGate;
}

void Netlist::check() const {
  for (GateId g = 0; g < size(); ++g) {
    const std::span<const GateId> fi = fanins(g);
    RFN_CHECK(arity_ok(type(g), fi.size()), "gate %u (%s) has arity %zu", g,
              gate_type_name(type(g)), fi.size());
    for (GateId f : fi) RFN_CHECK(f < size(), "gate %u has dangling fanin %u", g, f);
  }
  // Combinational acyclicity via iterative DFS over comb gates only
  // (register data inputs break the cycles by construction: we do not
  // traverse *through* a register's output here, we start from every gate).
  enum : uint8_t { White, Grey, Black };
  std::vector<uint8_t> color(size(), White);
  std::vector<std::pair<GateId, size_t>> stack;
  for (GateId root = 0; root < size(); ++root) {
    if (color[root] != White || !is_comb(root)) continue;
    stack.emplace_back(root, 0);
    color[root] = Grey;
    while (!stack.empty()) {
      auto& [g, next] = stack.back();
      const std::span<const GateId> fi = fanins(g);
      if (next < fi.size()) {
        const GateId f = fi[next++];
        if (!is_comb(f)) continue;
        RFN_CHECK(color[f] != Grey, "combinational cycle through gate %u", f);
        if (color[f] == White) {
          color[f] = Grey;
          stack.emplace_back(f, 0);
        }
      } else {
        color[g] = Black;
        stack.pop_back();
      }
    }
  }
}

Tri eval_gate3(GateType type, const Tri* vals, size_t n) {
  auto and_all = [&]() {
    bool any_x = false;
    for (size_t i = 0; i < n; ++i) {
      if (vals[i] == Tri::F) return Tri::F;
      any_x |= vals[i] == Tri::X;
    }
    return any_x ? Tri::X : Tri::T;
  };
  auto or_all = [&]() {
    bool any_x = false;
    for (size_t i = 0; i < n; ++i) {
      if (vals[i] == Tri::T) return Tri::T;
      any_x |= vals[i] == Tri::X;
    }
    return any_x ? Tri::X : Tri::F;
  };
  auto neg = [](Tri v) { return v == Tri::X ? Tri::X : (v == Tri::T ? Tri::F : Tri::T); };

  switch (type) {
    case GateType::Const0: return Tri::F;
    case GateType::Const1: return Tri::T;
    case GateType::Buf: return vals[0];
    case GateType::Not: return neg(vals[0]);
    case GateType::And: return and_all();
    case GateType::Or: return or_all();
    case GateType::Nand: return neg(and_all());
    case GateType::Nor: return neg(or_all());
    case GateType::Xor:
      if (vals[0] == Tri::X || vals[1] == Tri::X) return Tri::X;
      return tri_of(vals[0] != vals[1]);
    case GateType::Xnor:
      if (vals[0] == Tri::X || vals[1] == Tri::X) return Tri::X;
      return tri_of(vals[0] == vals[1]);
    case GateType::Mux:
      // X-optimistic mux: if both data inputs agree on a binary value, the
      // select being X does not matter. This tightens 3-valued simulation
      // without losing conservatism.
      if (vals[0] == Tri::F) return vals[1];
      if (vals[0] == Tri::T) return vals[2];
      if (vals[1] == vals[2] && vals[1] != Tri::X) return vals[1];
      return Tri::X;
    case GateType::Input:
    case GateType::Reg:
      break;
  }
  fatal("eval_gate3 on input/register");
}

bool eval_gate2(GateType type, const bool* vals, size_t n) {
  Tri tmp[3];
  RFN_CHECK(n <= 3 || type == GateType::And || type == GateType::Or ||
                type == GateType::Nand || type == GateType::Nor,
            "eval_gate2 arity");
  if (n <= 3) {
    for (size_t i = 0; i < n; ++i) tmp[i] = tri_of(vals[i]);
    return eval_gate3(type, tmp, n) == Tri::T;
  }
  // Wide and/or/nand/nor.
  bool acc = (type == GateType::And || type == GateType::Nand);
  for (size_t i = 0; i < n; ++i) {
    if (type == GateType::And || type == GateType::Nand)
      acc = acc && vals[i];
    else
      acc = acc || vals[i];
  }
  if (type == GateType::Nand || type == GateType::Nor) acc = !acc;
  return acc;
}

Tri cube_lookup(const Cube& c, GateId signal) {
  for (const Literal& lit : c)
    if (lit.signal == signal) return tri_of(lit.value);
  return Tri::X;
}

bool cube_add(Cube& c, Literal lit) {
  for (const Literal& existing : c) {
    if (existing.signal == lit.signal) return existing.value == lit.value;
  }
  c.push_back(lit);
  return true;
}

bool cube_subsumes(const Cube& sup, const Cube& sub) {
  return std::all_of(sub.begin(), sub.end(), [&](const Literal& lit) {
    return cube_lookup(sup, lit.signal) == tri_of(lit.value);
  });
}

std::string cube_to_string(const Netlist& n, const Cube& c) {
  std::string out = "{";
  for (size_t i = 0; i < c.size(); ++i) {
    if (i) out += ", ";
    if (n.has_name(c[i].signal))
      out += n.name(c[i].signal);
    else
      out += "g" + std::to_string(c[i].signal);
    out += c[i].value ? "=1" : "=0";
  }
  out += "}";
  return out;
}

}  // namespace rfn
