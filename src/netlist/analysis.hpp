#pragma once
// Structural analyses over netlists: topological order, fanout lists,
// transitive fanin, cone-of-influence, and register BFS distances.
//
// These are the graph primitives behind abstract-model generation (Step 1 of
// RFN), COI reduction for the plain-MC baseline, and the BFS abstraction
// baseline of Ho et al. [8].

#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace rfn {

/// Topological order of all cells: inputs, constants and registers first
/// (they are sources for combinational evaluation), then combinational gates
/// in dependency order. Evaluating gates in this order visits every fanin
/// before its fanout.
std::vector<GateId> topo_order(const Netlist& n);

/// Fanout adjacency in compressed-sparse-row form: fanouts[g] lists, in
/// ascending id order, every cell that has g as a fanin (register data
/// inputs included; a cell that reads g twice is listed twice). Two
/// allocations in all: 4 B per cell plus 4 B per fanin edge. Views stay
/// valid as long as the table; the table does not follow later edits of
/// the netlist.
struct FanoutTable {
  std::vector<uint32_t> offsets;  // size()+1 entries into `edges`
  std::vector<GateId> edges;

  std::span<const GateId> operator[](GateId g) const {
    return {edges.data() + offsets[g], offsets[g + 1] - offsets[g]};
  }
  size_t heap_bytes() const {
    return offsets.capacity() * sizeof(uint32_t) + edges.capacity() * sizeof(GateId);
  }
};

FanoutTable fanout_lists(const Netlist& n);

/// A design's topological tables, built once per design by the run that
/// verifies it and shared read-only by every FrameView, Sim3 and abstract-
/// model extraction over it: topo_order(net), each cell's rank in it, and
/// each cell's fanout list in rank order. `net` must outlive the index.
struct TopoIndex {
  explicit TopoIndex(const Netlist& n);
  explicit TopoIndex(Netlist&&) = delete;  // `net` is kept by reference

  const Netlist& net;
  std::vector<GateId> order;   // topo_order(net)
  size_t sources = 0;          // order[0, sources): every non-combinational cell
  std::vector<uint32_t> rank;  // rank[order[i]] == i
  FanoutTable readers;         // readers[g] in rank order

  std::span<const GateId> comb_order() const {
    return std::span(order).subspan(sources);
  }
};

/// Transitive fanin of `roots` *through combinational gates only*: traversal
/// stops at (and includes) registers, primary inputs, and constants.
/// Returns a membership mask indexed by GateId. This is the paper's
/// "transitive fanins up to register outputs".
std::vector<bool> comb_fanin_cone(const Netlist& n, const std::vector<GateId>& roots);

/// Cone of influence of `roots`: all cells that can affect the roots through
/// any number of register boundaries. Returns a membership mask.
std::vector<bool> coi(const Netlist& n, const std::vector<GateId>& roots);

/// Registers contained in the COI of `roots`.
std::vector<GateId> coi_registers(const Netlist& n, const std::vector<GateId>& roots);

/// Counts (registers, combinational gates) inside a membership mask.
std::pair<size_t, size_t> count_regs_gates(const Netlist& n, const std::vector<bool>& mask);

/// Registers whose outputs feed the combinational cone of `roots` directly,
/// i.e. the support registers of the next-cycle functions of the roots.
std::vector<GateId> support_registers(const Netlist& n, const std::vector<GateId>& roots);

/// Primary inputs in the combinational cone of `roots`.
std::vector<GateId> support_inputs(const Netlist& n, const std::vector<GateId>& roots);

/// BFS register distance from `roots` (paper [8]'s "closest k registers"):
/// distance 1 = registers in the combinational cone of the roots; distance
/// d+1 = registers in the combinational cone of the data inputs of
/// distance-<=d registers. Returns distances indexed by GateId
/// (only meaningful for registers; -1 when unreachable).
std::vector<int> register_bfs_distance(const Netlist& n, const std::vector<GateId>& roots);

/// The `k` registers closest to `roots` per register_bfs_distance, ties
/// broken by GateId for determinism. May return fewer than k if the COI is
/// smaller.
std::vector<GateId> closest_registers(const Netlist& n, const std::vector<GateId>& roots,
                                      size_t k);

/// FNV-1a structural fingerprint of a design: gate types, fanin lists,
/// register initial values, and the named-output table. Two elaborations of
/// the same source hash equal, and any edit that can change verification
/// semantics changes the hash. Certificates (cert/format.hpp) embed it so a
/// witness can never be checked against the wrong design.
uint64_t design_hash(const Netlist& n);

/// design_hash rendered as 16 lowercase hex digits.
std::string design_hash_hex(const Netlist& n);

}  // namespace rfn
