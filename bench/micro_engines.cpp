// Engine-level micro benchmarks (google-benchmark): BDD operations,
// simulators, ATPG justification, min-cut computation, and image steps.
// These are not paper artifacts; they track the performance of the
// substrates everything else is built on.
//
// In addition to the normal google-benchmark flags, `--json FILE` writes an
// "rfn-bench-v1" document: one record per benchmark (wall/cpu seconds per
// iteration plus the user counters) and the final metrics-registry dump.
// tools/bench_gate.py diffs that file against the checked-in
// BENCH_portfolio.json baseline in CI.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "atpg/comb_atpg.hpp"
#include "atpg/seq_atpg.hpp"
#include "bdd/bdd.hpp"
#include "core/abstraction.hpp"
#include "core/rfn.hpp"
#include "designs/fifo.hpp"
#include "designs/iu.hpp"
#include "designs/usb.hpp"
#include "mc/image.hpp"
#include "mc/reach.hpp"
#include "mincut/mincut.hpp"
#include "netlist/analysis.hpp"
#include "netlist/builder.hpp"
#include "sim/sim3.hpp"
#include "sim/sim64.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace rfn;

Netlist random_netlist(size_t inputs, size_t gates, uint64_t seed) {
  Rng rng(seed);
  NetBuilder b;
  std::vector<GateId> pool;
  for (size_t i = 0; i < inputs; ++i) pool.push_back(b.input("i" + std::to_string(i)));
  for (size_t i = 0; i < gates; ++i) {
    const GateId x = pool[rng.below(pool.size())];
    const GateId y = pool[rng.below(pool.size())];
    switch (rng.below(4)) {
      case 0: pool.push_back(b.and_(x, y)); break;
      case 1: pool.push_back(b.or_(x, y)); break;
      case 2: pool.push_back(b.xor_(x, y)); break;
      case 3: pool.push_back(b.not_(x)); break;
    }
  }
  b.output("root", pool.back());
  return b.take();
}

void BM_BddApply(benchmark::State& state) {
  const auto nvars = static_cast<uint32_t>(state.range(0));
  BddMgr mgr(nvars);
  Rng rng(7);
  std::vector<Bdd> pool;
  for (uint32_t v = 0; v < nvars; ++v) pool.push_back(mgr.var(v));
  for (auto _ : state) {
    const Bdd a = pool[rng.below(pool.size())];
    const Bdd b = pool[rng.below(pool.size())];
    Bdd r = rng.flip() ? (a & b) : (a ^ b);
    benchmark::DoNotOptimize(r.id());
    pool.push_back(std::move(r));
    // Random combination chains grow without bound; periodically restart
    // from the literals so the benchmark measures apply, not blowup.
    if (pool.size() > 256 || mgr.live_nodes() > 200000) {
      pool.resize(nvars);
      mgr.garbage_collect();
    }
  }
  state.counters["live_nodes"] = static_cast<double>(mgr.live_nodes());
}
BENCHMARK(BM_BddApply)->Arg(16)->Arg(64);

void BM_BddAndExists(benchmark::State& state) {
  BddMgr mgr(28);
  Rng rng(11);
  // Random clause conjunctions as relation/state stand-ins.
  auto random_fn = [&](int clauses) {
    Bdd acc = mgr.bdd_true();
    for (int i = 0; i < clauses; ++i) {
      Bdd clause = mgr.bdd_false();
      for (int j = 0; j < 3; ++j) {
        const BddVar v = static_cast<BddVar>(rng.below(28));
        clause |= rng.flip() ? mgr.var(v) : mgr.nvar(v);
      }
      acc &= clause;
    }
    return acc;
  };
  const Bdd f = random_fn(14);
  const Bdd g = random_fn(14);
  std::vector<BddVar> vars{0, 2, 4, 6, 8, 10, 12, 14};
  for (auto _ : state) {
    Bdd r = mgr.and_exists(f, g, vars);
    benchmark::DoNotOptimize(r.id());
  }
}
BENCHMARK(BM_BddAndExists);

void BM_BddSift(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BddMgr mgr(24);
    Bdd f = mgr.bdd_true();
    for (BddVar i = 0; i < 12; ++i) f &= !(mgr.var(i) ^ mgr.var(i + 12));
    state.ResumeTiming();
    mgr.reorder_sift();
    benchmark::DoNotOptimize(mgr.live_nodes());
  }
}
BENCHMARK(BM_BddSift);

// One sifting pass at the scale of table2-iu's first sifts, where BM_BddSift's
// 24 variables cannot show a change in the swap kernel: the Encoder's gate
// functions for paper-scale IU1's first coverage abstraction, built in
// topological order until the manager passes the 16k live nodes at which
// auto-reorder first fires. The counters are per pass and repeat exactly.
void BM_BddSiftPaperScale(benchmark::State& state) {
  const designs::IuDesign iu = designs::make_iu(designs::paper_scale_iu());
  const std::vector<GateId>& cov = iu.coverage_sets[0];
  std::vector<GateId> included = initial_abstraction_registers(iu.netlist, cov);
  included.insert(included.end(), cov.begin(), cov.end());
  std::sort(included.begin(), included.end());
  included.erase(std::unique(included.begin(), included.end()), included.end());
  const Subcircuit sub = extract_abstract_model(TopoIndex(iu.netlist), cov, included);
  const std::vector<GateId> gates = topo_order(sub.net);
  BddStats pass;
  size_t vars = 0, live_before = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BddMgr mgr;
    Encoder enc(mgr, sub.net);
    for (GateId g : gates) {
      enc.signal_fn(g);
      if (mgr.live_nodes() > (size_t{1} << 14)) break;
    }
    mgr.garbage_collect();
    vars = mgr.num_vars();
    live_before = mgr.live_nodes();
    state.ResumeTiming();
    mgr.reorder_sift();
    benchmark::DoNotOptimize(mgr.live_nodes());
    pass = mgr.stats();
  }
  state.counters["vars"] = static_cast<double>(vars);
  state.counters["live_before"] = static_cast<double>(live_before);
  state.counters["live_after"] = static_cast<double>(pass.live_nodes);
  state.counters["swaps"] = static_cast<double>(pass.sift_swaps);
  state.counters["rewrites"] = static_cast<double>(pass.sift_rewrites);
  state.counters["rollbacks"] = static_cast<double>(pass.sift_rollbacks);
  state.counters["journal_peak_bytes"] = static_cast<double>(pass.sift_journal_peak_bytes);
}
BENCHMARK(BM_BddSiftPaperScale)->Unit(benchmark::kMillisecond);

void BM_Sim3Cycle(benchmark::State& state) {
  const rfn::designs::IuDesign iu = rfn::designs::make_iu({});
  const TopoIndex topo(iu.netlist);
  Sim3 sim(topo);
  sim.load_initial_state();
  Rng rng(3);
  for (auto _ : state) {
    for (GateId in : iu.netlist.inputs())
      sim.set(in, rng.flip() ? Tri::T : Tri::F);
    sim.eval();
    sim.step();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(iu.netlist.num_gates()));
}
BENCHMARK(BM_Sim3Cycle);

void BM_Sim64Cycle(benchmark::State& state) {
  const rfn::designs::IuDesign iu = rfn::designs::make_iu({});
  Sim64 sim(iu.netlist);
  Rng rng(3);
  sim.load_initial_state(rng);
  for (auto _ : state) {
    sim.randomize_inputs(rng);
    sim.eval();
    sim.step();
  }
  // 64 patterns per pass.
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<int64_t>(iu.netlist.num_gates()));
}
BENCHMARK(BM_Sim64Cycle);

void BM_CombAtpgJustify(benchmark::State& state) {
  const Netlist n = random_netlist(48, 1200, 5);
  const GateId root = n.output("root");
  int polarity = 0;
  for (auto _ : state) {
    const CombAtpgResult r = justify(n, {{root, (polarity++ & 1) != 0}});
    benchmark::DoNotOptimize(r.status);
  }
}
BENCHMARK(BM_CombAtpgJustify);

void BM_MinCut(benchmark::State& state) {
  const rfn::designs::UsbDesign usb = rfn::designs::make_usb({});
  for (auto _ : state) {
    const MinCutResult r = compute_mincut_design(usb.netlist);
    benchmark::DoNotOptimize(r.cut_size);
  }
}
BENCHMARK(BM_MinCut);

void BM_PostImage(benchmark::State& state) {
  const rfn::designs::UsbDesign usb = rfn::designs::make_usb({});
  // Abstract the packet engine: a realistic Step-2 workload.
  std::vector<GateId> regs;
  for (GateId g : usb.usb2) regs.push_back(g);
  const Subcircuit sub = extract_abstract_model(TopoIndex(usb.netlist), regs, regs);
  BddMgr mgr;
  Encoder enc(mgr, sub.net);
  mgr.set_auto_reorder(true);
  ImageComputer img(enc);
  Bdd states = enc.initial_states();
  for (auto _ : state) {
    states = img.post_image(states) | states;
    benchmark::DoNotOptimize(states.id());
  }
  state.counters["live_nodes"] = static_cast<double>(mgr.live_nodes());
}
BENCHMARK(BM_PostImage);

// The RFN benches reset the global registry up front, so the raw snapshot
// at the end is this benchmark's own tally. bdd_peak_nodes is the
// deterministic capacity counter the CI regression gate keys on.
void export_run_counters(benchmark::State& state) {
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  state.counters["bdd_peak_nodes"] = s.value("bdd.peak_live_nodes.max");
  // Byte-exact arena peak (see util/prof and DESIGN.md "Resource
  // profiling"). Informational in the per-bench counters — the CI byte gate
  // runs on the batch summaries of deterministic CLI runs
  // (tools/bench_gate.py --prof-baseline), not on these.
  state.counters["bdd_peak_heap_bytes"] = s.value("bdd.heap_bytes.max");
}

// Full RFN runs on the FIFO psh_full property.
void BM_RfnPortfolioFifo(benchmark::State& state) {
  const rfn::designs::FifoDesign fifo =
      rfn::designs::make_fifo({.addr_bits = 3, .data_bits = 2});
  MetricsRegistry::global().reset();
  for (auto _ : state) {
    RfnOptions opt;
    const RfnResult res = run_property(fifo.netlist, fifo.bad_push_full, opt);
    if (res.verdict != Verdict::Holds) state.SkipWithError("psh_full must hold");
  }
  export_run_counters(state);
}
BENCHMARK(BM_RfnPortfolioFifo)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally captures every run for the
/// rfn-bench-v1 JSON document.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double real_seconds_per_iter = 0.0;  // wall seconds per iteration
    double cpu_seconds_per_iter = 0.0;
    int64_t iterations = 0;
    std::map<std::string, double> counters;
  };

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report) {
      if (r.error_occurred) continue;
      Captured c;
      c.name = r.benchmark_name();
      c.iterations = r.iterations;
      if (r.iterations > 0) {
        c.real_seconds_per_iter =
            r.real_accumulated_time / static_cast<double>(r.iterations);
        c.cpu_seconds_per_iter =
            r.cpu_accumulated_time / static_cast<double>(r.iterations);
      }
      for (const auto& [name, counter] : r.counters) c.counters[name] = counter;
      runs_.push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(report);
  }

  const std::vector<Captured>& runs() const { return runs_; }

 private:
  std::vector<Captured> runs_;
};

bool write_bench_json(const std::string& path,
                      const std::vector<CapturingReporter::Captured>& runs) {
  json::Value doc = json::Value::object();
  doc.set("schema", "rfn-bench-v1");
  json::Value benches = json::Value::array();
  for (const auto& r : runs) {
    json::Value b = json::Value::object();
    b.set("name", r.name);
    b.set("real_seconds_per_iter", r.real_seconds_per_iter);
    b.set("cpu_seconds_per_iter", r.cpu_seconds_per_iter);
    b.set("iterations", r.iterations);
    json::Value counters = json::Value::object();
    for (const auto& [name, v] : r.counters) counters.set(name, v);
    b.set("counters", std::move(counters));
    benches.push(std::move(b));
  }
  doc.set("benchmarks", std::move(benches));
  doc.set("metrics", MetricsRegistry::global().to_json());
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump(2) << "\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  // Pull our own `--json FILE` out of argv before google-benchmark sees it.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !write_bench_json(json_path, reporter.runs())) {
    std::fprintf(stderr, "micro_engines: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
