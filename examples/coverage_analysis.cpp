// Unreachable-coverage-state analysis on the USB controller — the paper's
// second experiment type (Table 2).
//
// Coverage signals are control-FSM registers; the analysis classifies each
// combination of their values as unreachable (proved on an abstract model),
// reachable (witnessed by a concrete trace), or unknown. The BFS topological
// baseline of Ho et al. [8] runs alongside for comparison.
//
// Usage: coverage_analysis [--set usb1|usb2] [--time-limit S] [--bfs-regs K]

#include <cstdio>

#include "core/bfs_baseline.hpp"
#include "core/status.hpp"
#include "core/coverage.hpp"
#include "designs/usb.hpp"
#include "netlist/analysis.hpp"
#include "util/options.hpp"

using namespace rfn;
using namespace rfn::designs;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const UsbDesign usb = make_usb({});
  const std::string set_name = opts.get("set", "usb1");
  const std::vector<GateId>& cov = set_name == "usb2" ? usb.usb2 : usb.usb1;

  std::printf("USB controller: %zu registers, %zu gates\n", usb.netlist.num_regs(),
              usb.netlist.num_gates());
  std::printf("coverage set %s: %zu signals -> %llu coverage states\n",
              set_name.c_str(), cov.size(),
              static_cast<unsigned long long>(1ull << cov.size()));
  std::printf("COI of the coverage signals: %zu registers\n\n",
              coi_registers(usb.netlist, cov).size());

  CoverageOptions cov_opts;
  cov_opts.time_limit_s = opts.get_double("time-limit", 120.0);
  const CoverageResult rfn_res = rfn_coverage_analysis(usb.netlist, cov, cov_opts);
  std::printf("RFN:  %zu unreachable, %zu witnessed reachable, %zu unknown "
              "(abstract model grew to %zu registers, %zu iterations, %.1f s)\n",
              rfn_res.unreachable, rfn_res.reachable, rfn_res.unknown,
              rfn_res.final_abstract_regs, rfn_res.iterations, rfn_res.seconds);

  BfsBaselineOptions bfs_opts;
  bfs_opts.num_registers = static_cast<size_t>(opts.get_int("bfs-regs", 60));
  bfs_opts.time_limit_s = cov_opts.time_limit_s;
  const BfsBaselineResult bfs = bfs_coverage_analysis(usb.netlist, cov, bfs_opts);
  std::printf("BFS:  %zu unreachable (abstract model %zu registers, fixpoint %s, %.1f s)\n",
              bfs.unreachable, bfs.abstract_regs, to_string(bfs.reach_status),
              bfs.seconds);

  if (rfn_res.unreachable >= bfs.unreachable)
    std::printf("\nRFN matched or beat the BFS baseline, as in the paper's Table 2.\n");
  return 0;
}
