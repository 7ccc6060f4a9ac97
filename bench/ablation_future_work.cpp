// Ablation — the paper's two future-work directions (Section 5), both
// implemented in this repository:
//
//   1. "To prove the property on abstract models containing hundreds of
//      registers, we plan to use the overlapping partition technique from
//      [5][7]" — compare exact fixpoint vs the overlapping-partition
//      approximate traversal on abstractions of growing size.
//
//   2. "To enhance the capability of finding error traces on the original
//      design, we plan to develop techniques of guiding ATPG with a set of
//      error traces rather than a single error trace" — compare RFN with
//      1 vs 4 abstract traces per iteration on designs where the first
//      abstract trace is spurious.

#include <algorithm>
#include <cstdio>

#include "core/rfn.hpp"
#include "mc/approx_reach.hpp"
#include "mc/image.hpp"
#include "netlist/builder.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

using namespace rfn;

namespace {

// A bank of loosely-coupled gated counters: the exact reachable set needs
// the product space, while per-block traversal stays tiny.
Netlist make_counter_bank(size_t counters, size_t bits, GateId* bad_out) {
  NetBuilder b;
  std::vector<Word> banks;
  for (size_t c = 0; c < counters; ++c) {
    const GateId en = b.input("en" + std::to_string(c));
    const Word cnt = b.reg_word("c" + std::to_string(c), bits, 0);
    const GateId wrap = b.eq_const(cnt, (1u << bits) - 3);
    const Word next = b.mux_word(wrap, b.inc_word(cnt), b.constant_word(0, bits));
    b.set_next_word(cnt, b.mux_word(en, cnt, next));
    banks.push_back(cnt);
  }
  // Bad: any counter reaches its excluded top value.
  GateId bad_sig = b.constant(false);
  for (const Word& cnt : banks)
    bad_sig = b.or_(bad_sig, b.eq_const(cnt, (1u << bits) - 1));
  const GateId bad = b.reg("bad");
  b.set_next(bad, b.or_(bad, bad_sig));
  b.output("bad", bad);
  Netlist n = b.take();
  *bad_out = n.output("bad");
  return n;
}

// The multi-trace scenario: `spurious_cuts` stuck-at-0 registers and one
// real path feed an XOR-tree watchdog. Abstract traces that pick a stuck
// register are spurious; only traces through the live register concretize.
Netlist make_decoy_design(size_t decoys, GateId* bad_out) {
  NetBuilder b;
  const GateId in = b.input("in");
  // Stuck-at-0 decoys XORed against one live register: the fattest cube of
  // OR_i(decoy_i ^ live) is {decoy_0=1, live=0} — spurious, since decoys
  // can never rise. Only the {decoy_i=0, live=1} family concretizes.
  std::vector<GateId> xors;
  const GateId live = b.reg("live", Tri::X);
  b.set_next(live, in);
  for (size_t i = 0; i < decoys; ++i) {
    const GateId d = b.reg("decoy" + std::to_string(i));
    b.set_next(d, b.constant(false));
    xors.push_back(b.xor_(d, live));
  }
  GateId any = xors[0];
  for (size_t i = 1; i < xors.size(); ++i) any = b.or_(any, xors[i]);
  const GateId bad = b.reg("bad");
  b.set_next(bad, b.or_(bad, any));
  b.output("bad", bad);
  Netlist n = b.take();
  *bad_out = n.output("bad");
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  std::printf("Ablation: the paper's future-work features (Section 5)\n\n");

  // --- Part 1: exact vs overlapping-partition approximate traversal ---
  std::printf("1. Overlapping-partition traversal vs exact fixpoint\n");
  Table t1({"registers", "exact status", "exact time (s)", "approx status",
            "approx time (s)", "approx rounds"});
  for (size_t counters : {8u, 16u, 32u, 64u}) {
    GateId bad;
    Netlist n = make_counter_bank(counters, 4, &bad);
    BddMgr mgr;
    Encoder enc(mgr, n);
    mgr.set_auto_reorder(true);
    const Bdd bad_set = mgr.var(enc.state_var(bad));

    Stopwatch we;
    ReachOptions exact_opt;
    exact_opt.time_limit_s = opts.get_double("exact-time", 20.0);
    exact_opt.max_live_nodes = 1u << 20;
    ImageComputer img(enc);
    const ReachResult exact = forward_reach(img, enc.initial_states(), bad_set, exact_opt);
    const double exact_time = we.seconds();

    Stopwatch wa;
    ApproxReachOptions aopt;
    aopt.block_size = 10;
    aopt.overlap = 2;
    aopt.time_limit_s = opts.get_double("approx-time", 60.0);
    const ApproxReachResult approx =
        approx_forward_reach(enc, enc.initial_states(), bad_set, aopt);
    const double approx_time = wa.seconds();

    t1.add_row({fmt_int(static_cast<int64_t>(n.num_regs())),
                to_string(exact.status), fmt_double(exact_time, 2),
                approx_status_name(approx.status), fmt_double(approx_time, 2),
                fmt_int(static_cast<int64_t>(approx.rounds))});
  }
  t1.print();

  // --- Part 2: single vs multi-trace guided concretization ---
  std::printf("\n2. Guiding ATPG with a set of error traces\n");
  Table t2({"decoy registers", "traces/iter", "verdict", "iterations",
            "final abs regs", "time (s)"});
  for (size_t decoys : {2u, 4u, 8u}) {
    for (size_t traces : {1u, 4u}) {
      GateId bad;
      Netlist n = make_decoy_design(decoys, &bad);
      RfnOptions ropt;
      ropt.time_limit_s = 60.0;
      ropt.traces_per_iteration = traces;
      Stopwatch w;
      const RfnResult r = run_property(n, bad, ropt);
      t2.add_row({fmt_int(static_cast<int64_t>(decoys)),
                  fmt_int(static_cast<int64_t>(traces)), to_string(r.verdict),
                  fmt_int(static_cast<int64_t>(r.iterations)),
                  fmt_int(static_cast<int64_t>(r.final_abstract_regs)),
                  fmt_double(w.seconds(), 2)});
    }
  }
  t2.print();
  std::printf("\nshape check: approx stays cheap as registers grow; the multi-trace\n"
              "runs reach a verdict in no more iterations than single-trace.\n");
  return 0;
}
