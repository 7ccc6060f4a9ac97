#pragma once
// Gate-level netlist: the common design representation of the whole tool.
//
// Terminology follows the paper (Section 2): a gate-level design M = (G, L)
// is a set of gates G and registers L. A *signal* is a gate output; every
// cell here produces exactly one output, so signals are identified with the
// GateId of their driver. Primary inputs are modeled as gates of type Input.
// The *transitive fanin* of a signal is the set of gates that transitively
// drive it through gates (stopping at registers and primary inputs);
// subcircuits/abstract models are built by cutting at register boundaries
// (see subcircuit.hpp).

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/log.hpp"

namespace rfn {

using GateId = uint32_t;
inline constexpr GateId kNullGate = 0xFFFFFFFFu;

/// Three-valued logic constant: the simulator, ATPG implication engine and
/// register initial values all use this domain.
enum class Tri : uint8_t { F = 0, T = 1, X = 2 };

inline Tri tri_of(bool b) { return b ? Tri::T : Tri::F; }
inline char tri_char(Tri v) { return v == Tri::F ? '0' : (v == Tri::T ? '1' : 'x'); }

enum class GateType : uint8_t {
  Input,   // primary input; no fanins
  Const0,  // constant false; no fanins
  Const1,  // constant true; no fanins
  Buf,     // 1 fanin
  Not,     // 1 fanin
  And,     // >= 2 fanins
  Or,      // >= 2 fanins
  Nand,    // >= 2 fanins
  Nor,     // >= 2 fanins
  Xor,     // exactly 2 fanins
  Xnor,    // exactly 2 fanins
  Mux,     // 3 fanins: sel, d0 (sel=0), d1 (sel=1)
  Reg,     // 1 fanin: next-state data input; has an initial value
};

const char* gate_type_name(GateType t);

/// A literal: signal `signal` carries value `value`.
struct Literal {
  GateId signal = kNullGate;
  bool value = false;

  friend bool operator==(const Literal&, const Literal&) = default;
};

/// A cube (partial valuation of signals), kept as a flat literal list.
/// Invariant maintained by producers: no signal appears twice.
using Cube = std::vector<Literal>;

/// One step of a trace: the (possibly partial) register state at the start
/// of the cycle and the (possibly partial) input vector applied during it.
struct TraceStep {
  Cube state;
  Cube inputs;
};

/// A k-cycle trace a1,v1,a2,v2,...,ak (paper Section 2). steps[i].state is
/// a_{i+1}; steps[i].inputs is v_{i+1} (empty for the final step).
struct Trace {
  std::vector<TraceStep> steps;

  size_t cycles() const { return steps.size(); }
  bool empty() const { return steps.empty(); }
};

/// Gate-level design. Construction happens through NetBuilder (builder.hpp)
/// or the RTL frontend; analyses live in analysis.hpp / subcircuit.hpp.
///
/// Storage: a cell (gate, register, or primary input; its output signal has
/// the cell's id) costs one byte of kind (type and register initial value)
/// and one 4-byte pool offset, and the fanin lists of all cells sit back to
/// back in one pool, in cell order: cell g's fanins end where cell g+1's
/// begin. A design therefore costs 5 B per cell plus 4 B per fanin, with
/// no heap block per cell.
///
/// Lifetime rule: fanins(g) is a view into the pool. add() may reallocate
/// the pool and so invalidates every view of this netlist; set_reg_data()
/// writes a register's single slot in place and invalidates none.
class Netlist {
 public:
  Netlist() = default;

  // --- construction (used by NetBuilder / subcircuit extraction) ---

  /// Appends a cell. Registers may omit their data input (a kNullGate
  /// placeholder is stored and patched later by set_reg_data). `init` is the
  /// register initial value: Tri::X means the register powers up
  /// unconstrained, i.e. the set of initial states is a cube, not a single
  /// state. Ignored for non-registers.
  GateId add(GateType type, std::initializer_list<GateId> fanins = {}, Tri init = Tri::F);
  /// Same, from any contiguous fanin list (it may be a view of this
  /// netlist's own fanins).
  GateId add(GateType type, std::span<const GateId> fanins, Tri init = Tri::F);

  /// Rebinds a register's data input. Registers are created before their
  /// next-state logic exists (sequential loops), so the data fanin is
  /// patched in afterwards.
  void set_reg_data(GateId reg, GateId data);

  void set_name(GateId g, const std::string& name);
  /// Marks a signal as a design output (observable point / property signal).
  void add_output(const std::string& name, GateId g);

  // --- structure access ---

  size_t size() const { return kinds_.size(); }
  GateType type(GateId g) const { return static_cast<GateType>(kinds_[g] & 0xF); }
  std::span<const GateId> fanins(GateId g) const {
    const uint32_t begin = g == 0 ? 0 : ends_[g - 1];
    return {pool_.data() + begin, ends_[g] - begin};
  }

  bool is_input(GateId g) const { return type(g) == GateType::Input; }
  bool is_reg(GateId g) const { return type(g) == GateType::Reg; }
  bool is_const(GateId g) const {
    return type(g) == GateType::Const0 || type(g) == GateType::Const1;
  }
  /// Combinational gate: not an input, register, or constant.
  bool is_comb(GateId g) const { return !is_input(g) && !is_reg(g) && !is_const(g); }

  GateId reg_data(GateId reg) const {
    RFN_CHECK(is_reg(reg), "gate %u is not a register", reg);
    return pool_[ends_[reg] - 1];
  }
  Tri reg_init(GateId reg) const {
    RFN_CHECK(is_reg(reg), "gate %u is not a register", reg);
    return static_cast<Tri>(kinds_[reg] >> 4);
  }

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& regs() const { return regs_; }

  size_t num_inputs() const { return inputs_.size(); }
  size_t num_regs() const { return regs_.size(); }
  /// Number of combinational gates (excludes inputs, registers, constants).
  size_t num_gates() const;

  // --- names and outputs ---

  const std::string& name(GateId g) const;
  bool has_name(GateId g) const;
  /// Returns kNullGate when no signal has this name.
  GateId find(const std::string& name) const;

  const std::vector<std::pair<std::string, GateId>>& outputs() const { return outputs_; }
  /// Looks up a design output by name; kNullGate if absent.
  GateId output(const std::string& name) const;

  /// Validates structural invariants (arities, fanin validity, acyclicity of
  /// combinational logic). Aborts with a diagnostic on violation; call after
  /// construction in tests and frontends.
  void check() const;

  /// Heap bytes held by the structure, from the vectors' capacities: cell
  /// records, fanin pool, input/register/output lists, and an estimate of
  /// the two name maps (one node per entry plus the bucket array; names
  /// that fit the small-string buffer add nothing).
  size_t heap_bytes() const;

 private:
  std::vector<uint8_t> kinds_;  // GateType in the low nibble, register init above
  std::vector<uint32_t> ends_;  // one past each cell's last fanin in pool_
  std::vector<GateId> pool_;
  std::vector<GateId> inputs_;
  std::vector<GateId> regs_;
  std::unordered_map<GateId, std::string> names_;
  std::unordered_map<std::string, GateId> by_name_;
  std::vector<std::pair<std::string, GateId>> outputs_;
};

/// Evaluates one gate over three-valued fanin values (X-pessimistic, i.e.
/// controlling values dominate X; see sim3.cpp for the simulator built on
/// this). `vals` must supply values for all fanins. Not meaningful for
/// Input/Reg (their values come from the environment/state).
Tri eval_gate3(GateType type, const Tri* vals, size_t n);

/// Convenience: evaluates a gate over binary fanin values.
bool eval_gate2(GateType type, const bool* vals, size_t n);

// --- Cube helpers (used by ATPG, the trace engines, and refinement) ---

/// Looks up a signal's value in a cube; Tri::X if unassigned.
Tri cube_lookup(const Cube& c, GateId signal);

/// Adds `lit` to the cube. Returns false (cube unchanged) on conflict with
/// an existing opposite-polarity literal; true otherwise (duplicate
/// same-polarity literals are not re-added).
bool cube_add(Cube& c, Literal lit);

/// True when every literal of `sub` appears in `sup` with the same polarity.
bool cube_subsumes(const Cube& sup, const Cube& sub);

std::string cube_to_string(const Netlist& n, const Cube& c);

}  // namespace rfn
