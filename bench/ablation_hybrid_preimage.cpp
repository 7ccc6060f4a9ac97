// Ablation — the hybrid BDD-ATPG engine vs pure BDD pre-image (paper
// Section 2.2: "a subcircuit containing 50 registers might contain 1,000
// inputs. As a result, the pre-image computation cannot complete").
//
// Build abstract models with a growing number of pseudo-inputs (each
// register's next-state logic fans in from `fan` cut registers through a
// mixing tree), then time
//   (a) pure BDD pre-image with inputs on the model itself, and
//   (b) the min-cut pre-image the hybrid engine uses,
// both under the same node/time budget.

#include <cstdio>

#include "mc/image.hpp"
#include "mincut/mincut.hpp"
#include "netlist/builder.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

using namespace rfn;

namespace {

// Abstract-model shape: `regs` registers, each updated from a mixing tree
// over `fan` dedicated pseudo-inputs. The tree is input-only, so it lies
// outside the free-cut design and each register's logic funnels through a
// single waist signal: the min cut has one input per register while the
// model itself has regs*fan primary inputs — exactly the "50 registers,
// 1,000 inputs" shape of the paper.
Netlist make_wide_model(size_t regs, size_t fan, Rng& rng) {
  NetBuilder b;
  Word r(regs);
  for (size_t i = 0; i < regs; ++i) r[i] = b.reg("r" + std::to_string(i));
  for (size_t i = 0; i < regs; ++i) {
    GateId mix = b.input("x" + std::to_string(i) + "_0");
    for (size_t j = 1; j < fan; ++j) {
      const GateId in = b.input("x" + std::to_string(i) + "_" + std::to_string(j));
      switch (rng.below(3)) {
        case 0: mix = b.xor_(mix, in); break;
        case 1: mix = b.or_(mix, in); break;
        default: mix = b.and_(mix, b.not_(in)); break;
      }
    }
    const GateId funnel = mix;  // the narrow waist (one signal per register)
    b.set_next(r[i], b.mux(r[(i + 1) % regs], b.xor_(funnel, r[i]),
                           b.and_(funnel, r[(i + 2) % regs])));
  }
  b.output("anchor", r[0]);
  return b.take();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const double time_budget = opts.get_double("op-time", 15.0);
  const size_t node_budget = static_cast<size_t>(opts.get_int("nodes", 1 << 21));
  Rng rng(2024);

  std::printf("Ablation: pure BDD pre-image vs min-cut pre-image (Section 2.2)\n");
  std::printf("budget per pre-image: %.0f s / %zu nodes\n\n", time_budget, node_budget);

  Table table({"regs", "model inputs", "MC inputs", "pure pre-image",
               "pure time (s)", "mincut pre-image", "mincut time (s)"});

  for (size_t regs : {12u, 20u, 28u, 36u}) {
    const size_t fan = 24;
    const Netlist n = make_wide_model(regs, fan, rng);
    const MinCutResult mcr = compute_mincut_design(n);

    BddMgr mgr;
    Encoder enc(mgr, n);
    mgr.set_auto_reorder(true);
    mgr.set_node_budget(node_budget);

    // Target cube: a random valuation of half the registers.
    std::vector<BddLit> target_lits;
    for (size_t i = 0; i < regs; i += 2)
      target_lits.push_back({enc.state_var(n.regs()[i]), rng.flip()});
    const Bdd target = mgr.cube(target_lits);

    // (a) pure BDD pre-image on the model itself.
    std::string pure_result = "ok";
    double pure_time = 0.0;
    {
      const CancelToken token(time_budget);
      mgr.set_cancel(&token);
      Stopwatch w;
      ImageComputer img(enc);
      Bdd pre;
      if (img.aborted())
        pure_result = "blowup (build)";
      else
        pre = img.pre_image_with_inputs(target);
      if (pure_result == "ok" && pre.is_null()) pure_result = "blowup";
      pure_time = w.seconds();
      mgr.set_cancel(nullptr);
    }

    // (b) min-cut pre-image (fresh manager so (a)'s wreckage is not reused).
    std::string mc_result = "ok";
    double mc_time = 0.0;
    {
      BddMgr mgr2;
      Encoder enc2(mgr2, n);
      mgr2.set_auto_reorder(true);
      mgr2.set_node_budget(node_budget);
      Encoder enc_mc(mgr2, mcr.mc, enc2);
      const CancelToken token(time_budget);
      mgr2.set_cancel(&token);
      Stopwatch w;
      ImageComputer img_mc(enc_mc);
      std::vector<BddLit> lits2;
      for (size_t i = 0; i < regs; i += 2)
        lits2.push_back({enc2.state_var(n.regs()[i]), target_lits[i / 2].positive});
      const Bdd target2 = mgr2.cube(lits2);
      Bdd pre;
      if (img_mc.aborted())
        mc_result = "blowup (build)";
      else
        pre = img_mc.pre_image_with_inputs(target2);
      if (mc_result == "ok" && pre.is_null()) mc_result = "blowup";
      mc_time = w.seconds();
      mgr2.set_cancel(nullptr);
    }

    table.add_row({fmt_int(static_cast<int64_t>(regs)),
                   fmt_int(static_cast<int64_t>(n.num_inputs())),
                   fmt_int(static_cast<int64_t>(mcr.mc.net.num_inputs())), pure_result,
                   fmt_double(pure_time, 2), mc_result, fmt_double(mc_time, 2)});
  }
  table.print();
  std::printf("\nshape check: the pure pre-image should blow up (or slow down sharply)\n"
              "as model inputs grow, while the min-cut pre-image stays cheap.\n");
  return 0;
}
