#pragma once
// Time-frame expansion (iterative logic array) for sequential ATPG.
//
// The sequential design is flattened into a purely combinational model of k
// frames. Registers disappear: a register's output at frame f aliases its
// data net at frame f-1; at frame 1 it is the initial value (a constant, or
// a fresh free input for X-initialized registers). Only the backward cone of
// the signals the caller needs at each frame is materialized, which keeps
// deep unrollings of large designs tractable.
//
// Memory: unroll_cone sizes the flat netlist exactly before filling it and
// appends each gate without a heap block of its own (see Netlist's
// storage). The paper-scale processor's error_flag cone at depth 28 is
// 1.01M flat gates in 14.0 MB (13.9 B per gate); the implication engine's
// CSR fanout table over it adds 12.5 MB (5.9 B per fanout entry), and
// `map` 5.6 MB (frames x design size x 4 B).

#include <vector>

#include "netlist/netlist.hpp"

namespace rfn {

struct Unrolled {
  Netlist net;
  size_t frames = 0;
  /// map[f][g] = unrolled gate for original signal g at frame f (1-based
  /// frames stored at index f-1); kNullGate when not materialized.
  std::vector<std::vector<GateId>> map;

  GateId at(size_t frame, GateId g) const {
    RFN_CHECK(frame >= 1 && frame <= frames, "frame %zu out of range", frame);
    return map[frame - 1][g];
  }
};

/// Unrolls `m` for `frames` cycles, materializing per frame only the cone of
/// `needed[f-1]` (signals required at frame f) plus whatever earlier frames
/// must provide for register data. `needed` must have `frames` entries.
Unrolled unroll_cone(const Netlist& m, size_t frames,
                     const std::vector<std::vector<GateId>>& needed);

/// Full unroll: every signal materialized in every frame.
Unrolled unroll_full(const Netlist& m, size_t frames);

}  // namespace rfn
