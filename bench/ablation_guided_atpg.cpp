// Ablation — abstract-trace guidance for sequential ATPG (paper Section
// 2.3: "In some of our experiments, sequential ATPG with guidance can
// search for an order of magnitude more cycles").
//
// Sweep the required trace depth on a gated-counter design (each extra
// counter bit roughly doubles the depth) and compare unguided sequential
// ATPG against the same search guided by per-cycle constraint cubes of the
// kind an abstract error trace provides.

#include <cstdio>

#include "atpg/seq_atpg.hpp"
#include "core/status.hpp"
#include "netlist/builder.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

using namespace rfn;

namespace {

struct Target {
  Netlist netlist;
  GateId en = kNullGate;
  GateId hit = kNullGate;
};

// Gated counter with distracting side inputs: reaching `value` requires
// enable high for `value` consecutive cycles while the distractors make the
// unguided search space wide.
Target make_target(size_t bits, uint64_t value, size_t distractors) {
  NetBuilder b;
  Target t;
  t.en = b.input("en");
  std::vector<GateId> noise;
  for (size_t i = 0; i < distractors; ++i) noise.push_back(b.input("d" + std::to_string(i)));
  const Word cnt = b.reg_word("cnt", bits, 0);
  // Distractor registers shift the noise around; they gate nothing but give
  // the backtracer plenty of irrelevant X paths.
  Word shadow = b.reg_word("shadow", distractors, 0);
  for (size_t i = 0; i < distractors; ++i)
    b.set_next(shadow[i], b.xor_(noise[i], shadow[(i + 1) % distractors]));
  b.set_next_word(cnt, b.mux_word(t.en, cnt, b.inc_word(cnt)));
  t.hit = b.and_(b.eq_const(cnt, value), b.not_(b.and_(shadow[0], b.not_(shadow[0]))));
  b.output("hit", t.hit);
  t.netlist = b.take();
  t.en = t.netlist.find("en");
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const uint64_t backtrack_budget =
      static_cast<uint64_t>(opts.get_int("backtracks", 50000));
  const double time_budget = opts.get_double("atpg-time", 20.0);

  std::printf("Ablation: guided vs unguided sequential ATPG (Section 2.3)\n");
  std::printf("budget per run: %llu backtracks / %.0f s\n\n",
              static_cast<unsigned long long>(backtrack_budget), time_budget);

  Table table({"depth (cycles)", "unguided", "unguided backtracks", "unguided time (s)",
               "guided", "guided backtracks", "guided time (s)"});

  size_t deepest_unguided = 0, deepest_guided = 0;
  for (size_t bits = 3; bits <= 7; ++bits) {
    const uint64_t value = (1ull << bits) - 2;
    const size_t depth = static_cast<size_t>(value) + 1;
    Target t = make_target(bits, value, 6);

    // Each run gets its own backtrack limit and its own time-limited token.
    const auto run = [&](const std::vector<Cube>& guidance) {
      const CancelToken token(time_budget);
      AtpgOptions budget;
      budget.max_backtracks = backtrack_budget;
      budget.cancel = &token;
      return reach_target(TopoIndex(t.netlist), depth, t.hit, true, guidance, budget);
    };

    Stopwatch uw;
    const SeqAtpgResult unguided = run({});
    const double ut = uw.seconds();

    std::vector<Cube> guidance(depth);
    for (size_t c = 0; c + 1 < depth; ++c) guidance[c] = {{t.en, true}};
    Stopwatch gw;
    const SeqAtpgResult guided = run(guidance);
    const double gt = gw.seconds();

    if (unguided.status == AtpgStatus::Sat) deepest_unguided = depth;
    if (guided.status == AtpgStatus::Sat) deepest_guided = depth;

    table.add_row({fmt_int(static_cast<int64_t>(depth)), to_string(unguided.status),
                   fmt_int(static_cast<int64_t>(unguided.backtracks)), fmt_double(ut, 2),
                   to_string(guided.status),
                   fmt_int(static_cast<int64_t>(guided.backtracks)), fmt_double(gt, 2)});
  }
  table.print();
  std::printf("\ndeepest trace found: unguided %zu cycles, guided %zu cycles "
              "(%.1fx deeper with guidance)\n",
              deepest_unguided, deepest_guided,
              deepest_unguided ? static_cast<double>(deepest_guided) /
                                     static_cast<double>(deepest_unguided)
                               : 0.0);
  return 0;
}
