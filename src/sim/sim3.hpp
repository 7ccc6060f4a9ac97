#pragma once
// Three-valued (0/1/X) levelized gate-level simulator.
//
// This is the "simulation engine" of the paper's title: Step 4 replays the
// abstract error trace on the full design with unassigned registers and
// inputs held at X, and registers whose simulated value conflicts with the
// trace become crucial-register candidates. X propagation is pessimistic for
// plain gates and optimistic for muxes (see eval_gate3), so a binary value
// produced under X inputs is guaranteed for every completion of the Xs.

#include <span>
#include <vector>

#include "netlist/analysis.hpp"
#include "util/cancel.hpp"

namespace rfn {

class Sim3 {
 public:
  /// Simulates t.net in t's topological order; `t` must outlive it.
  explicit Sim3(const TopoIndex& t);
  explicit Sim3(TopoIndex&&) = delete;

  const Netlist& netlist() const { return *n_; }

  /// Installs a cooperative should-stop hook (nullptr to clear). eval()
  /// polls it at gate-batch boundaries and returns early when cancelled;
  /// callers that install a token must check stopped() before trusting
  /// values. Lets a cancelled run cut long replays short.
  void set_should_stop(const CancelToken* token) { cancel_ = token; }
  /// True when the last eval() was cut short by the hook.
  bool stopped() const { return stopped_; }

  /// Sets the value of an input or a register output for the current cycle.
  void set(GateId g, Tri v);
  /// Applies every literal of the cube (signals must be inputs/registers).
  void set_cube(const Cube& c);
  /// Sets all primary inputs to X.
  void clear_inputs();
  /// Loads register initial values (X-init registers get X).
  void load_initial_state();

  /// Evaluates all combinational gates in topological order.
  void eval() { eval(comb_); }
  /// Evaluates only `gates` (listed fanins first); the rest keep their values.
  void eval(std::span<const GateId> gates);

  Tri value(GateId g) const { return vals_[g]; }
  /// Reads the register state as a cube (X registers omitted).
  Cube state_cube() const;

  /// Advances one clock: every register takes the value of its data input
  /// (call after eval()).
  void step();

 private:
  const Netlist* n_;
  std::span<const GateId> comb_;  // combinational gates, topo order
  std::vector<Tri> vals_;
  const CancelToken* cancel_ = nullptr;
  bool stopped_ = false;
};

/// Replays `trace` (cubes over inputs/registers of `n`) from the initial
/// state and returns the value of `signal` at the final cycle after
/// evaluation. Unassigned inputs are X. Convenience for tests. A cancelled
/// replay (polled per cycle through `cancel`) returns Tri::X.
Tri simulate_trace(const Netlist& n, const Trace& trace, GateId signal,
                   const CancelToken* cancel = nullptr);

}  // namespace rfn
