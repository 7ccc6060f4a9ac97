#pragma once
// Netlist-to-BDD encoder: variable management and symbolic signal functions.
//
// Every register gets a (current-state, next-state) variable pair, allocated
// adjacently so related variables stay close in the initial order; every
// primary input gets one variable. Signal functions are built bottom-up over
// the combinational logic and memoized.
//
// A second constructor builds an encoder for a subcircuit (e.g. the min-cut
// design MC) that *shares* the variables of a parent encoder through the
// subcircuit's old-id mapping: MC's registers reuse N's state/next vars and
// MC's cut inputs get fresh variables. Sharing is what lets the hybrid
// engine intersect MC pre-images with reachable-state rings computed on N.

#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/netlist.hpp"
#include "netlist/subcircuit.hpp"

namespace rfn {

class Encoder {
 public:
  /// Fresh encoding of `n` in `mgr`.
  Encoder(BddMgr& mgr, const Netlist& n);

  /// Encoding of subcircuit `sub.net` (a subcircuit of the parent encoder's
  /// netlist) sharing the parent's variables: registers map to the parent's
  /// state/next pairs; inputs whose original signal has a parent input
  /// variable reuse it; other inputs (internal cut signals) get fresh vars.
  Encoder(BddMgr& mgr, const Subcircuit& sub, const Encoder& parent);

  BddMgr& mgr() const { return *mgr_; }
  const Netlist& netlist() const { return *n_; }

  BddVar state_var(GateId reg) const;
  BddVar next_var(GateId reg) const;
  BddVar input_var(GateId input) const;
  /// All current-state variables (netlist register order).
  const std::vector<BddVar>& state_vars() const { return state_vars_flat_; }
  const std::vector<BddVar>& next_vars() const { return next_vars_flat_; }
  const std::vector<BddVar>& input_vars() const { return input_vars_flat_; }

  /// Register whose state (or next) variable is `v`; kNullGate otherwise.
  GateId reg_of_var(BddVar v) const;
  /// Input whose variable is `v`; kNullGate otherwise.
  GateId input_of_var(BddVar v) const;
  bool is_state_var(BddVar v) const;
  bool is_next_var(BddVar v) const;
  bool is_input_var(BddVar v) const;

  /// Symbolic function of a signal over state+input variables (memoized).
  /// Null, with nothing memoized for the failed gate, when the manager
  /// abandons an operation (its node cap or its cancel token): callers
  /// built for big designs (plain MC, image construction) treat a null as
  /// "resources exceeded" — the paper's expected outcome for plain symbolic
  /// MC on real-world designs.
  Bdd signal_fn(GateId g);
  /// Next-state function of a register.
  Bdd next_fn(GateId reg) { return signal_fn(netlist().reg_data(reg)); }

  /// Conjunction of initial register values (X-init registers unconstrained).
  Bdd initial_states();

  /// BDD of a cube over registers (state vars) and inputs (input vars).
  Bdd cube_bdd(const Cube& c);
  /// BDD of a cube over arbitrary signals: conjunction of signal_fn == value.
  Bdd constraint_bdd(const Cube& c);

  /// Translates BDD literals back into a netlist cube. Literals on next or
  /// unknown variables are rejected (check) unless `drop_unknown`.
  Cube lits_to_cube(const std::vector<BddLit>& lits) const;
  /// Splits BDD literals into (state cube, input cube); literals on other
  /// variables are returned in `other`.
  void split_lits(const std::vector<BddLit>& lits, Cube& state, Cube& inputs,
                  std::vector<BddLit>& other) const;

 private:
  void index_vars();

  BddMgr* mgr_;
  const Netlist* n_;
  std::unordered_map<GateId, BddVar> state_var_;
  std::unordered_map<GateId, BddVar> next_var_;
  std::unordered_map<GateId, BddVar> input_var_;
  std::vector<BddVar> state_vars_flat_, next_vars_flat_, input_vars_flat_;
  enum class VarKind : uint8_t { None, State, Next, Input };
  std::vector<VarKind> var_kind_;      // indexed by BddVar
  std::vector<GateId> var_gate_;       // indexed by BddVar
  std::vector<Bdd> signal_memo_;       // indexed by GateId
  std::vector<uint8_t> signal_ready_;  // indexed by GateId
};

}  // namespace rfn
