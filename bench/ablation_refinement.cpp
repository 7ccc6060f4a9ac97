// Ablation — the two-phase refinement of Section 2.4.
//
// Instruments every RFN iteration on the Table 1 workloads and reports how
// many crucial-register candidates 3-valued simulation produced, how many
// survived the greedy sequential-ATPG minimization, and whether the trace
// was actually invalidated. Also compares against the naive alternative of
// adding *all* phase-1 candidates (no greedy pass): total registers the
// final abstraction would carry.

#include <algorithm>
#include <cstdio>

#include "core/abstraction.hpp"
#include "core/concretize.hpp"
#include "core/hybrid_trace.hpp"
#include "core/refine.hpp"
#include "core/rfn.hpp"
#include "designs/fifo.hpp"
#include "designs/processor.hpp"
#include "mc/image.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

using namespace rfn;
using namespace rfn::designs;

namespace {

struct LoopTotals {
  size_t final_regs_greedy = 0;
  size_t final_regs_naive = 0;
  size_t iterations = 0;
  Verdict verdict = Verdict::Unknown;
};

LoopTotals run_instrumented(const char* name, const Netlist& m, GateId bad, Table& table,
                            bool greedy, double time_limit) {
  LoopTotals totals;
  std::vector<GateId> included = initial_abstraction_registers(m, {bad});
  const std::vector<GateId> roots{bad};
  const CancelToken token(time_limit);

  for (size_t iter = 0; iter < 128 && !token.cancelled(); ++iter) {
    ++totals.iterations;
    std::sort(included.begin(), included.end());
    const Subcircuit sub = extract_abstract_model(TopoIndex(m), roots, included);
    BddMgr mgr;
    Encoder enc(mgr, sub.net);
    mgr.set_auto_reorder(true);
    mgr.set_cancel(&token);
    ImageComputer img(enc);
    const Bdd bad_set =
        mgr.exists(enc.signal_fn(sub.to_new(bad)), enc.input_vars());
    ReachOptions ropt;
    ropt.cancel = &token;
    const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set, ropt);
    if (reach.status == ReachStatus::Proved) {
      totals.verdict = Verdict::Holds;
      break;
    }
    if (reach.status != ReachStatus::BadReachable) break;
    const Trace abs_trace_n = hybrid_error_trace(enc, sub.net, reach, bad_set, &token);
    if (abs_trace_n.empty()) break;
    const Trace abs_trace = sub.trace_to_old(abs_trace_n);
    const SeqAtpgResult conc = solve_abstract_trace(TopoIndex(m), m.regs(), abs_trace, bad, {});
    if (conc.status == AtpgStatus::Sat) {
      totals.verdict = Verdict::Fails;
      break;
    }

    if (greedy) {
      RefineStats st;
      const std::vector<GateId> crucial =
          identify_crucial_registers(TopoIndex(m), bad, included, abs_trace, {}, &st);
      table.add_row({std::string(name) + " iter " + std::to_string(iter),
                     fmt_int(static_cast<int64_t>(abs_trace.cycles())),
                     fmt_int(static_cast<int64_t>(st.conflict_candidates)),
                     fmt_int(static_cast<int64_t>(st.final_count)),
                     st.trace_invalidated ? "yes" : "no",
                     fmt_int(static_cast<int64_t>(st.atpg_calls))});
      if (crucial.empty()) break;
      for (GateId r : crucial) included.push_back(r);
    } else {
      const std::vector<GateId> candidates =
          crucial_candidates_by_simulation(TopoIndex(m), abs_trace, included);
      if (candidates.empty()) break;
      for (GateId r : candidates) included.push_back(r);
    }
  }
  std::sort(included.begin(), included.end());
  included.erase(std::unique(included.begin(), included.end()), included.end());
  (greedy ? totals.final_regs_greedy : totals.final_regs_naive) = included.size();
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const double time_limit = opts.get_double("time-limit", 300.0);
  ProcessorParams proc_params;
  proc_params.units = 6;
  proc_params.pipe_depth = 8;
  proc_params.pipe_width = 8;
  proc_params.result_regs = 64;
  const ProcessorDesign proc = make_processor(proc_params);
  const FifoDesign fifo = make_fifo({});

  std::printf("Ablation: two-phase refinement (Section 2.4)\n\n");
  Table table({"refinement", "trace cycles", "phase-1 candidates", "kept after greedy",
               "trace invalidated", "ATPG calls"});

  struct Job {
    const char* name;
    const Netlist* m;
    GateId bad;
  };
  const Job jobs[] = {
      {"mutex", &proc.netlist, proc.bad_mutex},
      {"psh_full", &fifo.netlist, fifo.bad_push_full},
  };
  Table summary({"property", "verdict", "final regs (greedy)", "final regs (naive)"});
  for (const Job& job : jobs) {
    const LoopTotals g = run_instrumented(job.name, *job.m, job.bad, table, true,
                                          time_limit);
    const LoopTotals n = run_instrumented(job.name, *job.m, job.bad, table, false,
                                          time_limit);
    summary.add_row({job.name, to_string(g.verdict),
                     fmt_int(static_cast<int64_t>(g.final_regs_greedy)),
                     fmt_int(static_cast<int64_t>(n.final_regs_naive))});
  }
  table.print();
  std::printf("\nfinal abstraction sizes, greedy minimization vs adding all phase-1 "
              "candidates:\n");
  summary.print();
  return 0;
}
