// Table 1 — Property Verification Results.
//
// Reproduces the paper's first experiment: five safety properties, each
// modeled as an unreachability property with a watchdog register, verified
// by RFN; plain symbolic model checking with COI reduction runs alongside
// under the same resource budget (the paper: "Our symbolic model checker
// failed to verify any of the above five properties").
//
//   paper columns: property | regs in COI | gates in COI | time (s) |
//                  result | regs in abstract model
//
// Flags: --scale small|paper (default paper), --time-limit S, --mc-time S,
//        --mc-nodes N.

#include <algorithm>
#include <cstdio>

#include "core/certificate.hpp"
#include "core/plain_mc.hpp"
#include "core/rfn.hpp"
#include "designs/fifo.hpp"
#include "designs/processor.hpp"
#include "netlist/analysis.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

using namespace rfn;
using namespace rfn::designs;

namespace {

struct Row {
  const char* name;
  const Netlist* design;
  GateId bad;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const bool small = opts.get("scale", "paper") == "small";

  ProcessorParams proc_params = paper_scale_processor();
  FifoParams fifo_params;
  if (small) {
    proc_params.units = 4;
    proc_params.pipe_depth = 6;
    proc_params.pipe_width = 6;
    proc_params.result_regs = 24;
  }
  const ProcessorDesign proc = make_processor(proc_params);
  const FifoDesign fifo = make_fifo(fifo_params);

  const Row rows[] = {
      {"mutex", &proc.netlist, proc.bad_mutex},
      {"error_flag", &proc.netlist, proc.error_flag},
      {"psh_hf", &fifo.netlist, fifo.bad_push_hf},
      {"psh_af", &fifo.netlist, fifo.bad_push_af},
      {"psh_full", &fifo.netlist, fifo.bad_push_full},
  };

  std::printf("Table 1. Property Verification Results (RFN)\n");
  std::printf("designs: processor %zu regs / %zu gates; FIFO %zu regs / %zu gates\n\n",
              proc.netlist.num_regs(), proc.netlist.num_gates(), fifo.netlist.num_regs(),
              fifo.netlist.num_gates());

  Table table({"property", "regs in COI", "gates in COI", "time (s)", "result",
               "regs in abstract model", "certified"});
  std::vector<Verdict> verdicts;
  for (const Row& row : rows) {
    const auto mask = coi(*row.design, {row.bad});
    const auto [coi_regs, coi_gates] = count_regs_gates(*row.design, mask);

    RfnOptions rfn_opts;
    rfn_opts.time_limit_s = opts.get_double("time-limit", 900.0);
    const RfnResult r = run_property(*row.design, row.bad, rfn_opts);
    verdicts.push_back(r.verdict);
    // Every verdict is re-checked as an rfn-cert-v1 witness by the
    // independent SAT checker (trace replay for F, inductive invariant for
    // T).
    const CertificateArtifact cert = certify_with_witness(
        *row.design, row.bad, row.name, r.verdict, r.error_trace,
        r.final_registers);
    table.add_row({row.name, fmt_int(static_cast<int64_t>(coi_regs)),
                   fmt_int(static_cast<int64_t>(coi_gates)), fmt_double(r.seconds, 1),
                   to_string(r.verdict),
                   fmt_int(static_cast<int64_t>(r.final_abstract_regs)),
                   cert.checked ? "yes" : ("NO: " + cert.detail)});
    if (r.verdict == Verdict::Fails)
      std::printf("  [%s] violated: error trace of %zu cycles\n", row.name,
                  r.error_trace.cycles());
  }
  std::printf("\n");
  table.print();

  // Baseline: plain symbolic MC with COI reduction under a bounded budget.
  std::printf("\nBaseline: plain symbolic model checking with COI reduction "
              "(budget: %.0f s, %lld nodes)\n",
              opts.get_double("mc-time", 60.0),
              static_cast<long long>(opts.get_int("mc-nodes", 1 << 21)));
  Table mc_table({"property", "plain MC result", "time (s)", "fixpoint steps"});
  size_t mc_failures = 0;
  for (const Row& row : rows) {
    PlainMcOptions mc_opts;
    mc_opts.time_limit_s = opts.get_double("mc-time", 60.0);
    mc_opts.node_cap = static_cast<size_t>(opts.get_int("mc-nodes", 1 << 21));
    const PlainMcResult mc = plain_model_check(*row.design, row.bad, mc_opts);
    if (mc.verdict == Verdict::Unknown) ++mc_failures;
    mc_table.add_row({row.name,
                      mc.verdict == Verdict::Unknown ? "fails (resources)"
                                                     : to_string(mc.verdict),
                      fmt_double(mc.seconds, 1), fmt_int(static_cast<int64_t>(mc.steps))});
  }
  mc_table.print();
  std::printf("\nplain MC exhausted resources on %zu of 5 properties; "
              "RFN produced a verdict on %zu of 5.\n",
              mc_failures,
              static_cast<size_t>(std::count_if(verdicts.begin(), verdicts.end(),
                                                [](Verdict v) { return v != Verdict::Unknown; })));
  return 0;
}
