#include "sat/bmc.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfn {

using sat::Lit;
using sat::Solver;

SatBmc::SatBmc(const Netlist& m) : m_(&m), enc_(m, solver_) {}

SatBmcResult SatBmc::check(GateId bad, size_t max_depth,
                           const std::vector<GateId>& included,
                           const CancelToken* cancel) {
  RFN_CHECK(max_depth >= 1, "BMC bound must be >= 1");
  Span span("sat.bmc");
  const sat::SolverStats before = solver_.stats();

  SatBmcResult result;
  enc_.add_root(bad);

  // Enable assumptions for the included registers that the cone knows about;
  // everything else in the cone stays a free pseudo-input.
  std::vector<Lit> enables;
  for (const GateId r : enc_.cone_registers())
    if (std::binary_search(included.begin(), included.end(), r))
      enables.push_back(enc_.enable(r));

  size_t k = 0;
  for (k = 1; k <= max_depth; ++k) {
    if (should_stop(cancel)) break;
    enc_.extend_to(k);
    std::vector<Lit> assumptions;
    assumptions.reserve(enables.size() + 1);
    assumptions.push_back(enc_.trigger(bad, k));
    assumptions.insert(assumptions.end(), enables.begin(), enables.end());
    const Solver::Result r = solver_.solve(assumptions, cancel);
    if (r == Solver::Result::Undef) break;
    if (r == Solver::Result::Sat) {
      result.status = AtpgStatus::Sat;
      result.depth = k;
      result.trace = enc_.decode_trace(k, included);
      break;
    }
  }
  if (result.status != AtpgStatus::Sat) {
    if (k > max_depth) {
      result.status = AtpgStatus::Unsat;
      result.depth = max_depth;
    } else {
      result.status = AtpgStatus::Abort;  // cancelled mid-deepening
      result.depth = k > 0 ? k - 1 : 0;
    }
  }

  const sat::SolverStats& after = solver_.stats();
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("sat.checks").add(1);
  reg.counter("sat.solve_calls").add(after.solves - before.solves);
  reg.counter("sat.conflicts").add(after.conflicts - before.conflicts);
  reg.counter("sat.decisions").add(after.decisions - before.decisions);
  reg.counter("sat.propagations").add(after.propagations - before.propagations);
  reg.counter("sat.restarts").add(after.restarts - before.restarts);
  reg.counter("sat.learned_clauses").add(after.learned_clauses - before.learned_clauses);
  reg.gauge("sat.frames").record_max(static_cast<int64_t>(enc_.frames()));
  // Arena bytes (flush-once, like every sat.* metric here): level = this
  // solver's footprint, max = the largest any solver reached this run
  // (rfn-prof-v1's sat.peak_bytes).
  reg.gauge("sat.heap_bytes").set(static_cast<int64_t>(solver_.heap_bytes()));
  reg.gauge("sat.heap_bytes")
      .record_max(static_cast<int64_t>(solver_.heap_bytes_peak()));
  // Same spelling as core/status.hpp's to_string(AtpgStatus) without the
  // include: sat/ stays self-contained below core/.
  span.annotate("status", result.status == AtpgStatus::Sat     ? "sat"
                          : result.status == AtpgStatus::Unsat ? "unsat"
                                                               : "abort");
  return result;
}

}  // namespace rfn
