#pragma once
// Seeded random sequential netlists for the property and fuzz tests.

#include <algorithm>
#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "util/rng.hpp"

namespace rfn {

/// Random sequential netlist whose last gate is exported as the property
/// signal `bad`. By default all registers are binary-initialized so every
/// engine agrees on the (single) initial state; with `x_init` each register
/// powers up 0, 1 or X with equal odds. A register's next state is one of
/// the last eight cells made, so with few gates registers feed registers.
inline Netlist random_netlist(Rng& rng, size_t nins, size_t nregs, int gates,
                              bool x_init = false) {
  NetBuilder b;
  std::vector<GateId> regs, pool;
  for (size_t i = 0; i < nins; ++i) pool.push_back(b.input("i" + std::to_string(i)));
  for (size_t i = 0; i < nregs; ++i) {
    static constexpr Tri kInits[] = {Tri::F, Tri::T, Tri::X};
    const Tri init = x_init ? kInits[rng.below(3)] : (rng.flip() ? Tri::F : Tri::T);
    regs.push_back(b.reg("r" + std::to_string(i), init));
    pool.push_back(regs.back());
  }
  for (int i = 0; i < gates; ++i) {
    const GateId x = pool[rng.below(pool.size())];
    const GateId y = pool[rng.below(pool.size())];
    const GateId z = pool[rng.below(pool.size())];
    switch (rng.below(5)) {
      case 0: pool.push_back(b.and_(x, y)); break;
      case 1: pool.push_back(b.or_(x, y)); break;
      case 2: pool.push_back(b.xor_(x, y)); break;
      case 3: pool.push_back(b.not_(x)); break;
      case 4: pool.push_back(b.mux(x, y, z)); break;
    }
  }
  for (GateId r : regs)
    b.set_next(r, pool[pool.size() - 1 - rng.below(std::min<size_t>(8, pool.size()))]);
  b.output("bad", pool.back());
  return b.take();
}

}  // namespace rfn
