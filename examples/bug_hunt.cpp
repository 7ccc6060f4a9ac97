// Hunting a deep bug with abstraction-guided sequential ATPG — the paper's
// error_flag scenario (Table 1, row 2; Section 2.3).
//
// The processor module hides a protocol bug ~30 cycles deep. Unguided
// sequential ATPG drowns in the search space; RFN's abstract error trace
// supplies cycle-by-cycle guidance that makes the concretization cheap.
// This example runs both and prints the comparison.
//
// Usage: bug_hunt [--units N] [--counter-bits N] [--unguided-backtracks N]

#include <cstdio>

#include "atpg/seq_atpg.hpp"
#include "core/rfn.hpp"
#include "core/status.hpp"
#include "designs/processor.hpp"
#include "netlist/writer.hpp"
#include "util/options.hpp"
#include "util/stopwatch.hpp"

using namespace rfn;
using namespace rfn::designs;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  ProcessorParams params;
  params.units = static_cast<size_t>(opts.get_int("units", 6));
  params.pipe_depth = static_cast<size_t>(opts.get_int("pipe-depth", 8));
  params.pipe_width = static_cast<size_t>(opts.get_int("pipe-width", 8));
  params.result_regs = static_cast<size_t>(opts.get_int("result-regs", 64));
  params.counter_bits = static_cast<size_t>(opts.get_int("counter-bits", 5));

  const ProcessorDesign proc = make_processor(params);
  std::printf("processor module: %zu registers, %zu gates\n", proc.netlist.num_regs(),
              proc.netlist.num_gates());

  // 1. RFN: abstraction refinement + guided concretization.
  Stopwatch rfn_watch;
  RfnOptions rfn_opts;
  rfn_opts.time_limit_s = opts.get_double("time-limit", 600.0);
  const RfnResult r = run_property(proc.netlist, proc.error_flag, rfn_opts);
  std::printf("\nRFN verdict: %s in %.2f s (%zu iterations, abstract model %zu regs)\n",
              to_string(r.verdict), rfn_watch.seconds(), r.iterations,
              r.final_abstract_regs);
  if (r.verdict == Verdict::Fails) {
    std::printf("error trace: %zu cycles\n", r.error_trace.cycles());
    if (opts.get_bool("dump-trace", false))
      std::fputs(trace_to_string(proc.netlist, r.error_trace).c_str(), stdout);
  }

  // 2. Unguided sequential ATPG at the same depth, with a bounded budget —
  // the paper's motivation for guidance (Section 2.3).
  const size_t depth = r.error_trace.cycles() ? r.error_trace.cycles() : 30;
  const CancelToken unguided_token(opts.get_double("unguided-time-limit", 30.0));
  AtpgOptions unguided;
  unguided.max_backtracks =
      static_cast<uint64_t>(opts.get_int("unguided-backtracks", 200000));
  unguided.cancel = &unguided_token;
  Stopwatch atpg_watch;
  const SeqAtpgResult direct =
      reach_target(TopoIndex(proc.netlist), depth, proc.error_flag, true, {}, unguided);
  std::printf(
      "\nunguided sequential ATPG at depth %zu: %s after %llu backtracks, %.2f s\n",
      depth, to_string(direct.status),
      static_cast<unsigned long long>(direct.backtracks), atpg_watch.seconds());
  std::printf("(the paper: \"sequential ATPG with guidance can search for an order of "
              "magnitude more cycles\")\n");
  return 0;
}
