#include "atpg/unroll.hpp"

#include "netlist/analysis.hpp"

namespace rfn {

Unrolled unroll_cone(const Netlist& m, size_t frames,
                     const std::vector<std::vector<GateId>>& needed) {
  RFN_CHECK(frames >= 1, "unroll of zero frames");
  RFN_CHECK(needed.size() == frames, "needed has %zu entries for %zu frames",
            needed.size(), frames);

  // Backward pass: which cells must exist at each frame. A register in
  // frame f's cone requires its data cone in frame f-1.
  std::vector<std::vector<bool>> cone(frames);
  for (size_t f = frames; f >= 1; --f) {
    std::vector<GateId> roots = needed[f - 1];
    if (f < frames) {
      for (GateId r : m.regs())
        if (cone[f][r]) roots.push_back(m.reg_data(r));
    }
    cone[f - 1] = comb_fanin_cone(m, roots);
  }

  // Size the flat model exactly: every cone cell but an aliased register
  // becomes one flat cell, and only combinational cells carry fanins.
  size_t cells = 0, pool = 0;
  for (size_t f = 1; f <= frames; ++f) {
    for (GateId g = 0; g < m.size(); ++g) {
      if (!cone[f - 1][g] || (f > 1 && m.is_reg(g))) continue;
      ++cells;
      if (m.is_comb(g)) pool += m.fanins(g).size();
    }
  }

  Unrolled u;
  u.frames = frames;
  u.map.assign(frames, std::vector<GateId>(m.size(), kNullGate));
  u.net.reserve(cells, pool);
  const std::vector<GateId> order = topo_order(m);
  std::vector<GateId> fanins;  // one gate's flat fanins, reused

  for (size_t f = 1; f <= frames; ++f) {
    auto& map_f = u.map[f - 1];
    for (GateId g : order) {
      if (!cone[f - 1][g]) continue;
      switch (m.type(g)) {
        case GateType::Input: {
          const GateId nw = u.net.add(GateType::Input);
          if (m.has_name(g))
            u.net.set_name(nw, m.name(g) + "@" + std::to_string(f));
          map_f[g] = nw;
          break;
        }
        case GateType::Const0:
        case GateType::Const1:
          map_f[g] = u.net.add(m.type(g));
          break;
        case GateType::Reg: {
          if (f == 1) {
            switch (m.reg_init(g)) {
              case Tri::F: map_f[g] = u.net.add(GateType::Const0); break;
              case Tri::T: map_f[g] = u.net.add(GateType::Const1); break;
              case Tri::X: {
                const GateId nw = u.net.add(GateType::Input);
                if (m.has_name(g)) u.net.set_name(nw, m.name(g) + "@init");
                map_f[g] = nw;
                break;
              }
            }
          } else {
            // Alias: the register output at frame f IS the data net at f-1.
            const GateId prev = u.map[f - 2][m.reg_data(g)];
            RFN_CHECK(prev != kNullGate, "register %u data missing at frame %zu", g,
                      f - 1);
            map_f[g] = prev;
          }
          break;
        }
        default: {  // combinational gate
          fanins.clear();
          for (GateId fi : m.fanins(g)) {
            RFN_CHECK(map_f[fi] != kNullGate, "fanin %u missing at frame %zu", fi, f);
            fanins.push_back(map_f[fi]);
          }
          map_f[g] = u.net.add(m.type(g), fanins);
          break;
        }
      }
    }
  }
  // Valid by construction: add() checks every gate's arity, and every flat
  // fanin is a gate added earlier (the RFN_CHECKs above), so the model is
  // acyclic.
  return u;
}

Unrolled unroll_full(const Netlist& m, size_t frames) {
  std::vector<GateId> all;
  for (GateId g = 0; g < m.size(); ++g) all.push_back(g);
  return unroll_cone(m, frames, std::vector<std::vector<GateId>>(frames, all));
}

}  // namespace rfn
