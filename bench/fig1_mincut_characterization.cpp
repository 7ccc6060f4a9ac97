// Figure 1 — No-cut cubes and min-cut cubes.
//
// The paper's Figure 1 is a structural diagram of the abstract model N, its
// min-cut design MC, and which signals appear in no-cut vs min-cut cubes.
// We reproduce it as a *measured* characterization: for the abstract models
// RFN actually visits on the Table 1 workloads, report
//   * the number of primary inputs of N (what naive pre-image would face),
//   * the number of primary inputs in the registers' fanin cone,
//   * the number of primary inputs of MC (the min-cut), and
//   * how many trace-extraction cubes were no-cut vs min-cut (i.e. needed
//     combinational ATPG justification).
//
// The paper's headline: "the min-cut subcircuits of abstract models that
// contain thousands of primary inputs tend to contain less than a couple
// hundred primary inputs".

#include <algorithm>
#include <cstdio>

#include "core/abstraction.hpp"
#include "core/hybrid_trace.hpp"
#include "core/refine.hpp"
#include "core/rfn.hpp"
#include "designs/fifo.hpp"
#include "designs/processor.hpp"
#include "mc/image.hpp"
#include "mincut/mincut.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

using namespace rfn;
using namespace rfn::designs;

namespace {

// Runs RFN while instrumenting every iteration's abstract model with
// min-cut statistics (recomputed standalone so the numbers are exact even
// for Proved iterations that never ran the hybrid engine).
void characterize(const char* design_name, const Netlist& m, GateId bad, Table& table,
                  double time_limit) {
  std::vector<GateId> included = initial_abstraction_registers(m, {bad});
  const std::vector<GateId> roots{bad};
  const CancelToken token(time_limit);

  for (size_t iter = 0; iter < 64 && !token.cancelled(); ++iter) {
    std::sort(included.begin(), included.end());
    const Subcircuit sub = extract_abstract_model(TopoIndex(m), roots, included);
    const MinCutResult mcr = compute_mincut_design(sub.net);

    BddMgr mgr;
    Encoder enc(mgr, sub.net);
    mgr.set_auto_reorder(true);
    mgr.set_cancel(&token);
    ImageComputer img(enc);
    const GateId bad_new = sub.to_new(bad);
    const Bdd bad_set = mgr.exists(enc.signal_fn(bad_new), enc.input_vars());
    ReachOptions ropt;
    ropt.cancel = &token;
    const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set, ropt);

    HybridTraceStats st;
    st.model_inputs = sub.net.num_inputs();
    st.cone_inputs = mcr.cone_inputs;
    st.mc_inputs = mcr.mc.net.num_inputs();
    Trace abs_trace_n;
    if (reach.status == ReachStatus::BadReachable)
      abs_trace_n = hybrid_error_trace(enc, sub.net, reach, bad_set, &token, &st);

    table.add_row({std::string(design_name) + " iter " + std::to_string(iter),
                   fmt_int(static_cast<int64_t>(sub.net.num_regs())),
                   fmt_int(static_cast<int64_t>(st.model_inputs)),
                   fmt_int(static_cast<int64_t>(st.cone_inputs)),
                   fmt_int(static_cast<int64_t>(st.mc_inputs)),
                   fmt_int(static_cast<int64_t>(st.nocut_cubes)),
                   fmt_int(static_cast<int64_t>(st.mincut_cubes)),
                   to_string(reach.status)});

    if (reach.status != ReachStatus::BadReachable || abs_trace_n.empty()) break;
    const Trace abs_trace = sub.trace_to_old(abs_trace_n);
    const std::vector<GateId> crucial =
        identify_crucial_registers(TopoIndex(m), bad, included, abs_trace, {});
    if (crucial.empty()) break;
    for (GateId r : crucial) included.push_back(r);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const bool small = opts.get("scale", "paper") == "small";
  ProcessorParams proc_params = paper_scale_processor();
  if (small) {
    proc_params.units = 4;
    proc_params.pipe_depth = 6;
    proc_params.result_regs = 24;
  }
  const ProcessorDesign proc = make_processor(proc_params);
  const FifoDesign fifo = make_fifo({});

  std::printf("Figure 1 (measured): abstract-model inputs vs min-cut inputs, and\n"
              "no-cut vs min-cut cube counts during hybrid trace extraction\n\n");
  Table table({"abstract model", "regs", "N inputs", "cone inputs", "MC inputs",
               "no-cut cubes", "min-cut cubes", "step-2 status"});
  characterize("mutex", proc.netlist, proc.bad_mutex, table,
               opts.get_double("time-limit", 300.0));
  characterize("psh_full", fifo.netlist, fifo.bad_push_full, table,
               opts.get_double("time-limit", 300.0));
  table.print();
  std::printf("\nshape check: MC inputs should stay far below N inputs once the\n"
              "abstraction grows (paper: thousands of inputs -> a couple hundred).\n");
  return 0;
}
