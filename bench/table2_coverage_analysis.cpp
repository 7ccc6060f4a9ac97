// Table 2 — Unreachable-coverage-state analysis results.
//
// Reproduces the paper's second experiment: seven coverage-signal sets
// (IU1..IU5 with 10 signals / 1,024 coverage states each; USB1 with 6;
// USB2 with 21), analyzed by RFN under a time budget and by the BFS
// topological baseline of Ho et al. [8] with a fixed 60-register abstract
// model.
//
//   paper columns: set | regs in COI | gates in COI | RFN unreachable |
//                  RFN abstract regs | BFS unreachable | BFS time (s)
//
// The paper's qualitative claims to reproduce: "RFN uniformly beats or
// matches the BFS results" and "the time taken by BFS is more unpredictable
// than RFN".
//
// Flags: --scale small|paper, --time-limit S (RFN budget per set, paper
// used 1800), --bfs-regs K (paper used 60), --bfs-time S.

#include <algorithm>
#include <cstdio>

#include "core/bfs_baseline.hpp"
#include "core/coverage.hpp"
#include "designs/iu.hpp"
#include "designs/usb.hpp"
#include "netlist/analysis.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

using namespace rfn;
using namespace rfn::designs;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const bool small = opts.get("scale", "paper") == "small";

  IuParams iu_params = small ? IuParams{} : paper_scale_iu();
  UsbParams usb_params = small ? UsbParams{} : paper_scale_usb();
  const IuDesign iu = make_iu(iu_params);
  const UsbDesign usb = make_usb(usb_params);

  std::printf("Table 2. Unreachable-coverage-state analysis results\n");
  std::printf("designs: IU %zu regs / %zu gates; USB %zu regs / %zu gates\n",
              iu.netlist.num_regs(), iu.netlist.num_gates(), usb.netlist.num_regs(),
              usb.netlist.num_gates());
  const double rfn_budget = opts.get_double("time-limit", 120.0);
  const size_t bfs_regs = static_cast<size_t>(opts.get_int("bfs-regs", 60));
  std::printf("RFN budget %.0f s per set; BFS abstract models of %zu registers\n\n",
              rfn_budget, bfs_regs);

  struct SetRow {
    const char* name;
    const Netlist* design;
    const std::vector<GateId>* signals;
  };
  const SetRow sets[] = {
      {"IU1", &iu.netlist, &iu.coverage_sets[0]},
      {"IU2", &iu.netlist, &iu.coverage_sets[1]},
      {"IU3", &iu.netlist, &iu.coverage_sets[2]},
      {"IU4", &iu.netlist, &iu.coverage_sets[3]},
      {"IU5", &iu.netlist, &iu.coverage_sets[4]},
      {"USB1", &usb.netlist, &usb.usb1},
      {"USB2", &usb.netlist, &usb.usb2},
  };

  Table table({"set", "regs in COI", "gates in COI", "RFN unreach", "RFN abs regs",
               "RFN time (s)", "BFS unreach", "BFS time (s)"});
  size_t rfn_wins = 0, ties = 0;
  double bfs_min = 1e30, bfs_max = 0.0;
  for (const SetRow& set : sets) {
    const auto mask = coi(*set.design, *set.signals);
    const auto [coi_regs, coi_gates] = count_regs_gates(*set.design, mask);

    CoverageOptions cov_opts;
    cov_opts.time_limit_s = rfn_budget;
    const CoverageResult r = rfn_coverage_analysis(*set.design, *set.signals, cov_opts);

    BfsBaselineOptions bfs_opts;
    bfs_opts.num_registers = bfs_regs;
    bfs_opts.time_limit_s = opts.get_double("bfs-time", 300.0);
    const BfsBaselineResult bfs = bfs_coverage_analysis(*set.design, *set.signals, bfs_opts);

    table.add_row({set.name, fmt_int(static_cast<int64_t>(coi_regs)),
                   fmt_int(static_cast<int64_t>(coi_gates)),
                   fmt_int(static_cast<int64_t>(r.unreachable)),
                   fmt_int(static_cast<int64_t>(r.final_abstract_regs)),
                   fmt_double(r.seconds, 1), fmt_int(static_cast<int64_t>(bfs.unreachable)),
                   fmt_double(bfs.seconds, 1)});
    if (r.unreachable > bfs.unreachable) ++rfn_wins;
    if (r.unreachable == bfs.unreachable) ++ties;
    bfs_min = std::min(bfs_min, bfs.seconds);
    bfs_max = std::max(bfs_max, bfs.seconds);
  }
  table.print();
  std::printf("\nRFN beats BFS on %zu sets and matches it on %zu of 7 "
              "(paper: \"RFN uniformly beats or matches the BFS results\").\n",
              rfn_wins, ties);
  std::printf("BFS time spread: %.1f s .. %.1f s (paper: \"the time taken by BFS is "
              "more unpredictable\").\n",
              bfs_min, bfs_max);
  return 0;
}
