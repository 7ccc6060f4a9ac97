#include "core/concretize.hpp"

namespace rfn {

SeqAtpgResult solve_abstract_trace(const TopoIndex& m, std::span<const GateId> kept,
                                   const Trace& abs_trace, GateId bad,
                                   const AtpgOptions& opt) {
  RFN_CHECK(!abs_trace.empty(), "ATPG question of an empty abstract trace");
  std::vector<Cube> cubes(abs_trace.steps.size());
  for (size_t c = 0; c < abs_trace.steps.size(); ++c) {
    for (const Literal& lit : abs_trace.steps[c].state) cube_add(cubes[c], lit);
    // Input literals of the abstract model are either real primary inputs
    // of M or outputs of cut registers; both are just signals of M here.
    for (const Literal& lit : abs_trace.steps[c].inputs) cube_add(cubes[c], lit);
  }
  if (bad != kNullGate && !cube_add(cubes.back(), {bad, true})) {
    SeqAtpgResult res;
    res.status = AtpgStatus::Unsat;
    return res;
  }
  return solve_cycle_cubes(m, kept, cubes, opt);
}

}  // namespace rfn
