// rfn_e2ebench — runs one benchmark workload and prints its metrics.
//
//   rfn_e2ebench --workload table1-paper|table2-iu|builtin-batch
//                --seed N --seconds S --trace 0|1
//                [--scale paper|small] [--inject-wrong-verdict]
//                [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics (wall_s, setup_s, cpu_s,
// peak_rss_mb, final_regs); --trace 1 prints the per-layer metrics of a
// traced pass. The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,
//    "unit":..}}}
// A human-readable summary (including failed_frac = failed / attempted and
// every failure) goes to standard error. Exit status: 0 when every
// operation succeeded, 1 when any verdict, certificate, coverage count or
// trajectory check failed, 2 on usage errors.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "util/prof.hpp"

namespace {

using namespace e2e;

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--inject-wrong-verdict") {
      a->inject_wrong = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--scale") {
      if (v != "paper" && v != "small") return false;
      a->small = v == "small";
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "table1-paper") return make_table1(a);
  if (a.workload == "table2-iu") return make_table2(a);
  if (a.workload == "builtin-batch") return make_builtin_batch(a);
  return nullptr;
}

/// Sets the workload up several times, each time on a fresh object after
/// the previous one is gone, and keeps the last: the run then holds one
/// copy of the designs. Reports the median set-up time in `setup_s`: at
/// least five set-ups, more while they take under three seconds in total
/// (a one-second window spread about three times as much across runs).
std::unique_ptr<Workload> timed_setup(const Args& a, double* setup_s) {
  std::unique_ptr<Workload> w;
  std::vector<double> times;
  const rfn::Stopwatch total;
  while (times.size() < 5 || total.seconds() < 3.0) {
    w.reset();
    w = make_workload(a);
    const rfn::Stopwatch sw;
    w->setup();
    times.push_back(sw.seconds());
  }
  *setup_s = median(times);
  return w;
}

/// --seconds / pass_s() whole passes (at least one). wall_s and cpu_s are
/// the fastest pass: host slowdowns only ever add time, so the fastest of a
/// fixed number of passes repeats from run to run better than their median
/// (NOTES.md, Steadiness). The median pass goes to standard error.
Metrics measure(Workload& w, const Args& a, double setup_s, Tally& t) {
  const size_t passes = std::max<size_t>(1, static_cast<size_t>(a.seconds / w.pass_s()));
  std::vector<double> walls, cpus;
  size_t final_regs = 0;
  for (size_t i = 0; i < passes; ++i) {
    const int64_t cpu0 = rfn::prof::process_cpu_ns();
    const rfn::Stopwatch sw;
    const size_t regs = w.pass(t);
    walls.push_back(sw.seconds());
    cpus.push_back(static_cast<double>(rfn::prof::process_cpu_ns() - cpu0) * 1e-9);
    if (i > 0 && regs != final_regs)
      t.fail("final_regs changed between passes: " + std::to_string(final_regs) +
             " then " + std::to_string(regs));
    final_regs = regs;
    std::fprintf(stderr, "e2ebench: pass %zu: %.4f s\n", i + 1, walls.back());
  }
  std::fprintf(stderr, "e2ebench: %zu passes, median pass %.4f s\n", passes, median(walls));
  return {
      {"wall_s", *std::min_element(walls.begin(), walls.end()), "s"},
      {"setup_s", setup_s, "s"},
      {"cpu_s", *std::min_element(cpus.begin(), cpus.end()), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), "MB"},
      {"final_regs", static_cast<double>(final_regs), "count"},
  };
}

void print_result(const Tally& t, const Metrics& metrics) {
  for (const std::string& e : t.errors) std::fprintf(stderr, "e2ebench: FAILED %s\n", e.c_str());
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::fprintf(stderr, "  %-30s %14.6g frac (%zu of %zu operations)\n", "failed_frac",
               t.attempted == 0 ? 0.0
                                : static_cast<double>(t.failed) /
                                      static_cast<double>(t.attempted),
               t.failed, t.attempted);
  std::string line = "{\"correct\": ";
  line += t.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(t.attempted);
  line += ", \"failed\": " + std::to_string(t.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: rfn_e2ebench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--scale paper|small] [--inject-wrong-verdict] [--spans-out FILE]\n");
    return 2;
  }
  if (make_workload(a) == nullptr) {
    std::fprintf(stderr,
                 "rfn_e2ebench: unknown workload '%s' (table1-paper, table2-iu, "
                 "builtin-batch)\n",
                 a.workload.c_str());
    return 2;
  }
  try {
    Tally t;
    double setup_s = 0.0;
    const std::unique_ptr<Workload> w = timed_setup(a, &setup_s);
    Metrics metrics;
    if (a.trace) {
      SpanLog log;
      metrics = w->traced(t, log);
      if (!a.spans_out.empty() && !log.write_chrome(a.spans_out))
        std::fprintf(stderr, "e2ebench: could not write %s\n", a.spans_out.c_str());
    } else {
      metrics = measure(*w, a, setup_s, t);
    }
    print_result(t, metrics);
    return t.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfn_e2ebench: %s\n", e.what());
    return 1;
  }
}
