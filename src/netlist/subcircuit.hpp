#pragma once
// Subcircuit / abstract-model extraction (Step 1 of RFN).
//
// An abstract model N of a design M is the subcircuit containing a chosen
// set of *included registers*, their transitive fanin cones up to register
// outputs, and the fanin cones of the property signals. Registers of M that
// feed the subcircuit but are not included become fresh primary inputs of N
// ("primary inputs of N but register outputs of M" in the paper's Figure 1).
// Because those pseudo-inputs are unconstrained in N, N over-approximates M:
// a property True on N is True on M.

#include <unordered_map>
#include <vector>

#include "netlist/analysis.hpp"

namespace rfn {

class Subcircuit {
 public:
  /// The extracted gate-level design N.
  Netlist net;

  /// new GateId -> original GateId.
  std::vector<GateId> old_of_new;

  /// Primary inputs of N that are register outputs of M (new ids). These are
  /// the refinement candidates of Step 4.
  std::vector<GateId> pseudo_inputs;

  /// Original ids of the registers kept in N (the "included" set).
  std::vector<GateId> kept_regs_old;

  GateId to_new(GateId old) const {
    const auto it = new_of_old_.find(old);
    return it == new_of_old_.end() ? kNullGate : it->second;
  }
  GateId to_old(GateId nw) const { return old_of_new[nw]; }
  bool contains_old(GateId old) const { return new_of_old_.count(old) > 0; }

  /// Translates a cube over N's signals to the corresponding cube over M's
  /// signals (all N signals map to M signals by construction).
  Cube cube_to_old(const Cube& c) const;
  /// Translates a cube over M's signals, dropping literals on signals absent
  /// from N.
  Cube cube_to_new(const Cube& c) const;
  Trace trace_to_old(const Trace& t) const;

  std::unordered_map<GateId, GateId> new_of_old_;  // filled by extract
};

/// Builds the abstract model containing `included_regs` (original register
/// ids) plus the combinational fanin cones of `property_roots` and of the
/// included registers' data inputs. Signal names and outputs present in the
/// cone are carried over. M's gates are read in the order of its TopoIndex.
Subcircuit extract_abstract_model(const TopoIndex& m,
                                  const std::vector<GateId>& property_roots,
                                  const std::vector<GateId>& included_regs);

/// Cone-of-influence reduction: the abstract model whose included registers
/// are all registers in the COI of the roots. The result has no
/// pseudo-inputs and is trace-equivalent to M w.r.t. the roots.
Subcircuit coi_reduce(const Netlist& m, const std::vector<GateId>& property_roots);

/// Generalized extraction with an arbitrary signal cut: the backward
/// traversal from `roots` stops at `cut_signals` (which become primary
/// inputs of the result, recorded in pseudo_inputs), at registers (which are
/// kept as registers, with their data cones included), and at the primary
/// inputs/constants of `m`. Used to build the min-cut design MC (paper
/// Section 2.2), whose primary inputs are internal signals of the abstract
/// model.
Subcircuit extract_with_cut(const Netlist& m, const std::vector<GateId>& roots,
                            const std::vector<GateId>& cut_signals);

}  // namespace rfn
