#include "netlist/analysis.hpp"

#include <algorithm>
#include <deque>

namespace rfn {

std::vector<GateId> topo_order(const Netlist& n) {
  std::vector<GateId> order;
  order.reserve(n.size());
  std::vector<uint8_t> done(n.size(), 0);
  // Sources first.
  for (GateId g = 0; g < n.size(); ++g) {
    if (!n.is_comb(g)) {
      order.push_back(g);
      done[g] = 1;
    }
  }
  // Iterative post-order DFS over combinational gates.
  std::vector<std::pair<GateId, size_t>> stack;
  for (GateId root = 0; root < n.size(); ++root) {
    if (done[root]) continue;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [g, next] = stack.back();
      if (done[g]) {
        stack.pop_back();
        continue;
      }
      const std::span<const GateId> fi = n.fanins(g);
      if (next < fi.size()) {
        const GateId f = fi[next++];
        if (!done[f]) stack.emplace_back(f, 0);
      } else {
        done[g] = 1;
        order.push_back(g);
        stack.pop_back();
      }
    }
  }
  return order;
}

FanoutTable fanout_lists(const Netlist& n) {
  // Count each driver's fanouts, turn the counts into range ends, then fill
  // every range back to front from the highest reader down: each list ends
  // up ascending and each offset at its range's start. Unpatched register
  // placeholders (kNullGate) have no driver to list.
  FanoutTable t;
  t.offsets.assign(n.size() + 1, 0);
  for (GateId g = 0; g < n.size(); ++g)
    for (GateId f : n.fanins(g))
      if (f != kNullGate) ++t.offsets[f];
  for (size_t g = 1; g <= n.size(); ++g) t.offsets[g] += t.offsets[g - 1];
  t.edges.resize(t.offsets[n.size()]);
  for (GateId g = static_cast<GateId>(n.size()); g-- > 0;)
    for (GateId f : n.fanins(g))
      if (f != kNullGate) t.edges[--t.offsets[f]] = g;
  return t;
}

TopoIndex::TopoIndex(const Netlist& n) : net(n), order(topo_order(n)), rank(n.size()) {
  for (uint32_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
  while (sources < order.size() && !n.is_comb(order[sources])) ++sources;
  readers = fanout_lists(n);
  for (GateId g = 0; g < n.size(); ++g)
    std::sort(readers.edges.begin() + readers.offsets[g],
              readers.edges.begin() + readers.offsets[g + 1],
              [&](GateId a, GateId b) { return rank[a] < rank[b]; });
}

std::vector<bool> comb_fanin_cone(const Netlist& n, const std::vector<GateId>& roots) {
  std::vector<bool> mask(n.size(), false);
  std::vector<GateId> stack;
  for (GateId r : roots) {
    if (!mask[r]) {
      mask[r] = true;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (!n.is_comb(g)) continue;  // stop at registers / inputs / constants
    for (GateId f : n.fanins(g)) {
      if (!mask[f]) {
        mask[f] = true;
        stack.push_back(f);
      }
    }
  }
  return mask;
}

std::vector<bool> coi(const Netlist& n, const std::vector<GateId>& roots) {
  std::vector<bool> mask(n.size(), false);
  std::vector<GateId> stack;
  for (GateId r : roots) {
    if (!mask[r]) {
      mask[r] = true;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId f : n.fanins(g)) {  // registers traversed through their data input
      if (f != kNullGate && !mask[f]) {
        mask[f] = true;
        stack.push_back(f);
      }
    }
  }
  return mask;
}

std::vector<GateId> coi_registers(const Netlist& n, const std::vector<GateId>& roots) {
  const std::vector<bool> mask = coi(n, roots);
  std::vector<GateId> regs;
  for (GateId r : n.regs())
    if (mask[r]) regs.push_back(r);
  return regs;
}

std::pair<size_t, size_t> count_regs_gates(const Netlist& n, const std::vector<bool>& mask) {
  size_t regs = 0, gates = 0;
  for (GateId g = 0; g < n.size(); ++g) {
    if (!mask[g]) continue;
    if (n.is_reg(g))
      ++regs;
    else if (n.is_comb(g))
      ++gates;
  }
  return {regs, gates};
}

std::vector<GateId> support_registers(const Netlist& n, const std::vector<GateId>& roots) {
  const std::vector<bool> cone = comb_fanin_cone(n, roots);
  std::vector<GateId> regs;
  for (GateId r : n.regs())
    if (cone[r]) regs.push_back(r);
  return regs;
}

std::vector<GateId> support_inputs(const Netlist& n, const std::vector<GateId>& roots) {
  const std::vector<bool> cone = comb_fanin_cone(n, roots);
  std::vector<GateId> ins;
  for (GateId i : n.inputs())
    if (cone[i]) ins.push_back(i);
  return ins;
}

std::vector<int> register_bfs_distance(const Netlist& n, const std::vector<GateId>& roots) {
  std::vector<int> dist(n.size(), -1);
  std::deque<GateId> frontier;
  for (GateId r : support_registers(n, roots)) {
    dist[r] = 1;
    frontier.push_back(r);
  }
  while (!frontier.empty()) {
    const GateId r = frontier.front();
    frontier.pop_front();
    const GateId data = n.reg_data(r);
    if (data == kNullGate) continue;
    for (GateId next : support_registers(n, {data})) {
      if (dist[next] == -1) {
        dist[next] = dist[r] + 1;
        frontier.push_back(next);
      }
    }
  }
  return dist;
}

std::vector<GateId> closest_registers(const Netlist& n, const std::vector<GateId>& roots,
                                      size_t k) {
  const std::vector<int> dist = register_bfs_distance(n, roots);
  std::vector<GateId> regs;
  for (GateId r : n.regs())
    if (dist[r] >= 0) regs.push_back(r);
  std::sort(regs.begin(), regs.end(), [&](GateId a, GateId b) {
    return dist[a] != dist[b] ? dist[a] < dist[b] : a < b;
  });
  if (regs.size() > k) regs.resize(k);
  return regs;
}

namespace {

struct Fnv1a {
  uint64_t h = 0xCBF29CE484222325ull;

  void byte(uint8_t b) { h = (h ^ b) * 0x00000100000001B3ull; }
  void u32(uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u32(static_cast<uint32_t>(s.size()));
    for (char c : s) byte(static_cast<uint8_t>(c));
  }
};

}  // namespace

uint64_t design_hash(const Netlist& n) {
  Fnv1a f;
  f.u32(static_cast<uint32_t>(n.size()));
  for (GateId g = 0; g < n.size(); ++g) {
    f.byte(static_cast<uint8_t>(n.type(g)));
    f.byte(n.is_reg(g) ? static_cast<uint8_t>(n.reg_init(g)) : 0);
    f.u32(static_cast<uint32_t>(n.fanins(g).size()));
    for (GateId in : n.fanins(g)) f.u32(in);
  }
  f.u32(static_cast<uint32_t>(n.outputs().size()));
  for (const auto& [name, g] : n.outputs()) {
    f.str(name);
    f.u32(g);
  }
  return f.h;
}

std::string design_hash_hex(const Netlist& n) {
  const uint64_t h = design_hash(n);
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i)
    out[15 - i] = "0123456789abcdef"[(h >> (4 * i)) & 0xF];
  return out;
}

}  // namespace rfn
