// Verifying the FIFO controller's flag properties — the paper's psh_hf /
// psh_af / psh_full workload (Table 1, rows 3-5).
//
// Demonstrates the full pipeline on a design that enters as Verilog source:
// the RTL frontend elaborates the generated FIFO controller, RFN verifies
// each watchdog, and the summary shows how small the final abstract models
// stay relative to the property COI.
//
// Usage: fifo_verification [--addr-bits N] [--data-bits N] [--dump-verilog]

#include <algorithm>
#include <cstdio>

#include "core/plain_mc.hpp"
#include "core/rfn.hpp"
#include "designs/fifo.hpp"
#include "netlist/analysis.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

using namespace rfn;
using namespace rfn::designs;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  FifoParams params;
  params.addr_bits = static_cast<size_t>(opts.get_int("addr-bits", 4));
  params.data_bits = static_cast<size_t>(opts.get_int("data-bits", 6));

  const FifoDesign fifo = make_fifo(params);
  if (opts.get_bool("dump-verilog", false)) std::fputs(fifo.verilog.c_str(), stdout);

  std::printf("FIFO controller: %zu registers, %zu gates (from %zu lines of Verilog)\n\n",
              fifo.netlist.num_regs(), fifo.netlist.num_gates(),
              1 + static_cast<size_t>(std::count(fifo.verilog.begin(),
                                                 fifo.verilog.end(), '\n')));

  Table table({"property", "COI regs", "result", "abstract regs", "iters", "time (s)"});
  const std::pair<const char*, GateId> properties[] = {
      {"psh_full", fifo.bad_push_full},
      {"psh_af", fifo.bad_push_af},
      {"psh_hf", fifo.bad_push_hf},
  };
  for (const auto& [name, bad] : properties) {
    const size_t coi = coi_registers(fifo.netlist, {bad}).size();
    RfnOptions rfn_opts;
    rfn_opts.time_limit_s = opts.get_double("time-limit", 300.0);
    const RfnResult r = run_property(fifo.netlist, bad, rfn_opts);
    table.add_row({name, fmt_int(static_cast<int64_t>(coi)), to_string(r.verdict),
                   fmt_int(static_cast<int64_t>(r.final_abstract_regs)),
                   fmt_int(static_cast<int64_t>(r.iterations)), fmt_double(r.seconds, 2)});
  }
  table.print();

  std::printf("\nFor comparison, plain symbolic model checking with COI reduction:\n");
  PlainMcOptions mc_opts;
  mc_opts.time_limit_s = opts.get_double("mc-time-limit", 10.0);
  const PlainMcResult mc = plain_model_check(fifo.netlist, fifo.bad_push_full, mc_opts);
  std::printf("psh_full via plain MC: %s after %.2f s (%zu COI registers)\n",
              to_string(mc.verdict), mc.seconds, mc.coi_regs);
  return 0;
}
