#pragma once
// The one sequential-ATPG question RFN asks of an abstract error trace
// (paper Sections 2.3 and 2.4), read on the original design M in place.
//
// Step 3 asks it of M: the abstract trace bounds the depth (the real
// shortest trace is at least as long) and its cycle-by-cycle cubes steer
// the search, so RFN never computes images on M. Step 4's greedy phase asks
// it of the abstraction plus candidate registers: a register outside that
// set is a free input at every cycle, which is what a pseudo-input of the
// extracted abstract model is. The coverage loop asks both with no property
// signal, the trace's last state cube being the target.

#include <span>

#include "atpg/seq_atpg.hpp"

namespace rfn {

/// Is there a trace of abs_trace.cycles() cycles, over M keeping only the
/// registers in `kept` (m.net.regs() for M itself), that meets every literal of
/// `abs_trace` (state and input cubes, M ids; the input cubes may assign
/// cut registers) at its cycle and, unless `bad` is kNullGate, raises `bad`
/// at the last cycle? Sat carries the trace (see SeqAtpgResult).
SeqAtpgResult solve_abstract_trace(const TopoIndex& m, std::span<const GateId> kept,
                                   const Trace& abs_trace, GateId bad,
                                   const AtpgOptions& opt);

}  // namespace rfn
