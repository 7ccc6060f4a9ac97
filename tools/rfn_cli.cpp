// rfn — command-line front door to the verifier.
//
//   rfn verify   <design> --bad SIGNAL [options]   property verification
//   rfn coverage <design> --signals a,b,c [options] unreachable-state analysis
//   rfn translate <design> [--format blif|aag|aig]  design format conversion
//   rfn stats    <design>                           design statistics
//
// <design> is a .v (Verilog subset), .blif, or AIGER 1.9 .aag/.aig file
// (format chosen by extension; --aiger forces AIGER for other names), or
// builtin:fifo|processor|iu|usb for the shipped generated designs (small
// parameterizations; CI's batch runs use these).
//
// Every verify run is a VerifySession over a property set, and one
// property is a set of one: repeat --bad, point --props at a file, or —
// for an AIGER design with neither — verify every bad-state property (or
// output, pre-1.9 style) of the file. With no selection at all a non-AIGER
// design verifies the signal named "bad". Engine and session options are
// the knobs of api::knobs() (src/api/api.hpp), checked and defaulted as
// their rfn-req-v1 keys are; verify and coverage refuse (exit 2) any other
// flag not listed here, before the design loads. Common options:
//   --time-limit S     wall-clock budget (default 300; negative: unlimited);
//                      every engine polls it, and on overrun the run
//                      degrades to resource-out with the trip named
//                      "wall-budget"
//   --max-iterations N abstraction-refinement iterations (default 1000)
//   --certify          build an rfn-cert-v1 witness for every HOLDS/VIOLATED
//                      verdict (an inductive invariant for HOLDS, the error
//                      trace for VIOLATED; see src/cert/format.hpp) and
//                      discharge it through the independent SAT checker —
//                      the same check tools/rfn_check.cpp runs out of
//                      process. Adds one "certificate" record per property
//                      to the --trace-json artifact
//   --cert-dir DIR     write each property's witness to
//                      DIR/<property>.cert.json (implies --certify)
//   --dump-trace       print the error trace of every VIOLATED property
//   --top NAME         top module for multi-module Verilog
//   --trace-json FILE  write the rfn-trace-v2 run trace as JSON Lines: one
//                      "property" record per property, each followed by the
//                      iteration records of the run that answered it, then
//                      certificates and a "batch-summary" that also
//                      reports the run's wall time, process CPU, peak RSS
//                      and metrics (schema in src/core/trace_json.hpp;
//                      validate with tools/trace_report.py --batch FILE)
//   --trace-spans FILE write a causal span trace in Chrome trace-event JSON
//                      (open in Perfetto / chrome://tracing, or analyze with
//                      tools/trace_report.py; collapsed stacks for
//                      flamegraph.pl come from trace_report.py --folded)
//   --budget-bdd-nodes N  cap on each iteration's BDD live nodes (memory
//                      proxy): the BDD manager refuses the allocation past
//                      it, the same one every run, and the run degrades to
//                      resource-out with the trip named "bdd-node-budget"
//   --budget-mem-mb N  watchdog budget on process RSS (MiB, sampled from
//                      /proc/self/statm); on overrun the run degrades to
//                      resource-out with the trip named "mem-budget"
//
// Property sets: --bad may repeat, and --props names a file with one
// property per line:
//   SIGNAL [name=LABEL] [time-limit=S] [max-iterations=N]
//          [budget-bdd-nodes=N] [budget-mem-mb=N]
//                                                    (# starts a comment)
// A property is named by its LABEL, else by its signal as written. Every
// property is verified on its own, by one abstraction-refinement run.
// Session options:
//   --session-workers N   properties verified concurrently (default 0:
//                         inline, in order)
//   --batch-budget-ms N   whole-run wall budget, split fair-share: it
//                         tightens each property's time limit
//
// AIGER-specific options:
//   --aiger               treat <design> as AIGER regardless of extension
//   --witness-dir DIR     drop an AIGER-convention witness per conclusive
//                         property into DIR/<property>.wit
//                         ("1\nb<k>\n<state>\n<inputs per cycle>...\n." for
//                         VIOLATED, "0\nb<k>\n." for HOLDS)
//
// Exit codes: 0 every verdict conclusive, 1 some verdict inconclusive, 2
// usage or I/O error, 3 a certificate failed its check.
//
// This binary is a thin front over rfn::api: the flags become a request
// through api::VerifyRequest::from_flags (the twin of the rfn-req-v1
// decoder), design loading is api::load_design, and the run is
// api::run_verify (the same run path rfn_serve drives from the socket — a
// command line and an rfn-req-v1 document are the same computation). What
// remains here is the stdout report and the file epilogues (the span
// trace, cert/witness exports).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "aiger/aiger.hpp"
#include "api/api.hpp"
#include "cert/format.hpp"
#include "core/coverage.hpp"
#include "netlist/analysis.hpp"
#include "netlist/blif.hpp"
#include "netlist/writer.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

using namespace rfn;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rfn <verify|coverage|translate|stats> <design.v|design.blif> "
               "[options]\n       see the header of tools/rfn_cli.cpp for options\n");
  return 2;
}

std::string sanitize_file_stem(const std::string& property) {
  std::string out;
  for (const char c : property) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += keep ? c : '_';
  }
  return out;
}

std::string cert_file_name(const std::string& property) {
  return sanitize_file_stem(property) + ".cert.json";
}

/// AIGER witnesses name properties by index ("b<k>"): the index within the
/// source file's bad list when the design came from AIGER, else the
/// property's position in the run.
size_t witness_index(const std::vector<aiger::AigerProperty>& aprops,
                     const std::string& name, size_t fallback) {
  for (size_t i = 0; i < aprops.size(); ++i)
    if (aprops[i].name == name) return i;
  return fallback;
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (out) out << body;
  if (!out) std::fprintf(stderr, "rfn: cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

/// --trace-spans around a run: tracing is enabled before the run and the
/// Chrome trace written once it has finished.
struct SpanScope {
  std::string path;

  explicit SpanScope(const Options& opts) : path(opts.get("trace-spans", "")) {
    if (path.empty()) return;
    SpanTracer::global().enable();
    SpanTracer::global().set_thread_name("main");
  }

  /// Writes the span trace; call once after the run's threads have joined
  /// (the span buffers are quiescent then). False on I/O errors.
  bool finish() {
    if (path.empty()) return true;
    SpanTracer::global().disable();
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "rfn: cannot write %s\n", path.c_str());
      return false;
    }
    SpanTracer::global().write_chrome_json(out);
    return true;
  }
};

const char* verdict_word(Verdict v) {
  return v == Verdict::Holds         ? "HOLDS"
         : v == Verdict::Fails       ? "VIOLATED"
         : v == Verdict::ResourceOut ? "RESOURCE-OUT"
                                     : "UNKNOWN";
}

/// Runs the request through api::run_verify — one property or many — and
/// writes the file epilogues and the stdout report.
int run_request(const api::LoadedDesign& design, const Options& opts,
                api::VerifyRequest req) {
  const std::string cert_dir = opts.get("cert-dir", "");
  req.certify = opts.get_bool("certify", false) || !cert_dir.empty();

  // The trace file opens before the run so an unwritable path fails before
  // minutes of engine work, not after.
  const std::string trace_path = opts.get("trace-json", "");
  std::ofstream trace_out;
  if (!trace_path.empty()) {
    trace_out.open(trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "rfn: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }
  api::StreamTraceSink file_sink(trace_out);

  SpanScope spans(opts);
  api::RunOutput out;
  std::string error;
  if (!api::run_verify(design, req, trace_path.empty() ? nullptr : &file_sink,
                       /*stream_properties=*/false, &out, &error)) {
    std::fprintf(stderr, "rfn: %s\n", error.c_str());
    return 2;
  }
  if (!spans.finish()) return 2;

  // --cert-dir: run_verify built and checked the witnesses (they are already
  // in the rfn-trace-v2 records); writing them to disk is CLI business.
  bool certified_ok = true, cert_io_ok = true;
  if (!cert_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cert_dir, ec);
  }
  for (size_t i = 0; i < out.cert_records.size(); ++i) {
    const CertificateRecord& rec = out.cert_records[i];
    if (!rec.ok) certified_ok = false;
    const CertificateArtifact& art = out.cert_artifacts[i];
    if (art.built && !cert_dir.empty()) {
      const std::string path = cert_dir + "/" + cert_file_name(rec.property);
      if (!write_text_file(path, cert::to_json(art.certificate)))
        cert_io_ok = false;
    }
  }

  // --witness-dir: conclusive verdicts additionally export AIGER-convention
  // witnesses, consumable by third-party checkers (aigsim-style stimulus for
  // VIOLATED, a claim line for HOLDS).
  const std::string wit_dir = opts.get("witness-dir", "");
  bool wit_io_ok = true;
  if (!wit_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(wit_dir, ec);
    for (size_t i = 0; i < out.results.size(); ++i) {
      const PropertyResult& r = out.results[i];
      const size_t idx = witness_index(design.aiger_properties, r.name, i);
      std::string body;
      if (r.verdict == Verdict::Holds) {
        body = aiger::write_witness_holds(idx);
      } else if (r.verdict == Verdict::Fails) {
        body = aiger::write_witness_fails(design.netlist, idx, r.trace);
      } else {
        continue;
      }
      const std::string path =
          wit_dir + "/" + sanitize_file_stem(r.name) + ".wit";
      if (!write_text_file(path, body)) wit_io_ok = false;
    }
  }

  std::printf("batch: %zu properties, %.2f s\n", out.results.size(),
              out.seconds);
  std::printf("%-24s %-12s %5s %6s %8s\n", "property", "verdict", "iters",
              "regs", "seconds");
  bool all_conclusive = true;
  for (const PropertyResult& r : out.results) {
    std::printf("%-24s %-12s %5zu %6zu %8.2f\n", r.name.c_str(),
                verdict_word(r.verdict), r.stats.iterations,
                r.stats.final_abstract_regs, r.stats.seconds);
    if (r.verdict != Verdict::Holds && r.verdict != Verdict::Fails)
      all_conclusive = false;
  }
  for (const PropertyResult& r : out.results) {
    const BudgetTrip& trip = r.stats.budget_trip;
    if (trip.tripped)
      std::printf("budget trip %s: %s at %.3f s (bdd nodes %lld, rss %.1f MiB)\n",
                  r.name.c_str(), trip.reason.c_str(), trip.at_seconds,
                  static_cast<long long>(trip.bdd_nodes),
                  static_cast<double>(trip.rss_bytes) / (1 << 20));
    if (!r.stats.note.empty())
      std::printf("note %s: %s\n", r.name.c_str(), r.stats.note.c_str());
    if (r.verdict == Verdict::Fails) {
      std::printf("error trace %s: %zu cycles\n", r.name.c_str(),
                  r.trace.cycles());
      if (opts.get_bool("dump-trace", false))
        std::fputs(trace_to_string(design.netlist, r.trace).c_str(), stdout);
    }
  }
  // Engine effort comes from the metrics registry.
  const MetricsSnapshot metrics =
      MetricsRegistry::global().snapshot().delta(out.baseline);
  std::printf("engines:\n");
  std::fputs(format_engine_stats(metrics).c_str(), stdout);
  for (size_t i = 0; i < out.cert_records.size(); ++i) {
    const CertificateRecord& rec = out.cert_records[i];
    if (rec.ok) {
      std::printf("certificate: OK %s (%s)\n", rec.property.c_str(),
                  rec.kind.c_str());
    } else {
      std::printf("certificate: FAILED %s — obligation %s: %s\n",
                  rec.property.c_str(), rec.obligation.c_str(),
                  out.cert_artifacts[i].detail.c_str());
    }
  }
  if (!cert_io_ok || !wit_io_ok) return 2;
  if (!certified_ok) return 3;
  return all_conclusive ? 0 : 1;
}

/// Prints the load summary; false (after the error) when the design does
/// not load.
bool load(const api::DesignRef& ref, api::LoadedDesign* design) {
  std::string error;
  if (!api::load_design(ref, design, &error)) {
    std::fprintf(stderr, "rfn: %s\n", error.c_str());
    return false;
  }
  std::printf("loaded %s: %s\n", ref.path.c_str(),
              stats_line(design->netlist).c_str());
  if (!design->aiger_properties.empty())
    std::printf("aiger: %zu propert%s (%zu bad, %zu outputs, %zu constraints%s)\n",
                design->aiger_properties.size(),
                design->aiger_properties.size() == 1 ? "y" : "ies",
                design->aiger_bad, design->aiger_outputs,
                design->aiger_constraints,
                design->aiger_constraints_folded ? ", folded" : "");
  return true;
}

/// The command line as an api::VerifyRequest (the struct a server request
/// parses to); false after a usage error.
bool request_from_flags(const Options& opts,
                        const std::vector<std::string>& own_flags,
                        api::VerifyRequest* req) {
  std::string error;
  if (api::VerifyRequest::from_flags(opts, own_flags, req, &error)) return true;
  std::fprintf(stderr, "rfn: %s\n", error.c_str());
  return false;
}

int cmd_verify(const Options& opts) {
  // Pointers for the flags of the retired single-property path (--cert-out
  // used to turn on certification), of the retired profile artifacts, whose
  // figures the --trace-json batch summary carries, of the retired
  // warm-state switch and of the retired second wall budget.
  static const struct {
    const char* flag;
    const char* instead;
  } kRemoved[] = {
      {"batch", "every verify run is a batch"},
      {"cert-out", "use --cert-dir DIR"},
      {"aiger-witness", "use --witness-dir DIR"},
      {"prof-json",
       "the --trace-json batch summary carries cpu_ms, peak_rss_bytes and "
       "the bdd.heap_bytes gauge"},
      {"prof-folded",
       "use --trace-spans FILE, then tools/trace_report.py --folded FILE"},
      {"metrics", "the --trace-json batch summary carries the metrics"},
      {"no-reuse", "every run is cold"},
      {"budget-ms", "use --time-limit S, the one wall-clock budget"}};
  for (const auto& [flag, instead] : kRemoved) {
    if (opts.has(flag)) {
      std::fprintf(stderr, "rfn: --%s was removed; %s\n", flag, instead);
      return 2;
    }
  }
  api::VerifyRequest req;
  if (!request_from_flags(opts,
                          {"witness-dir", "trace-json", "trace-spans",
                           "dump-trace"},
                          &req))
    return 2;
  api::LoadedDesign design;
  if (!load(req.design, &design)) return 2;
  return run_request(design, opts, std::move(req));
}

int cmd_coverage(const Options& opts) {
  api::VerifyRequest req;
  if (!request_from_flags(opts, {"signals", "list-unreachable"}, &req))
    return 2;
  const std::string list = opts.get("signals", "");
  if (list.empty()) {
    std::fprintf(stderr, "rfn: coverage needs --signals a,b,c\n");
    return 2;
  }
  api::LoadedDesign loaded;
  if (!load(req.design, &loaded)) return 2;
  const Netlist& design = loaded.netlist;
  std::vector<GateId> cov;
  std::stringstream ss(list);
  std::string name;
  while (std::getline(ss, name, ',')) {
    const GateId g = api::find_signal(design, name);
    if (g == kNullGate || !design.is_reg(g)) {
      std::fprintf(stderr, "rfn: coverage signal '%s' is not a register\n",
                   name.c_str());
      return 2;
    }
    cov.push_back(g);
  }

  CoverageOptions cov_opts;
  cov_opts.time_limit_s = req.options.time_limit_s;
  const CoverageResult r = rfn_coverage_analysis(design, cov, cov_opts);
  std::printf("coverage states: %zu total\n", r.total_states);
  std::printf("  unreachable: %zu (proved on the abstraction)\n", r.unreachable);
  std::printf("  reachable:   %zu (witnessed by concrete traces)\n", r.reachable);
  std::printf("  unknown:     %zu\n", r.unknown);
  std::printf("abstract model grew to %zu registers over %zu iterations (%.1f s)\n",
              r.final_abstract_regs, r.iterations, r.seconds);
  if (opts.get_bool("list-unreachable", false)) {
    for (size_t s = 0; s < r.state_class.size(); ++s) {
      if (r.state_class[s] != 1) continue;
      std::string bits;
      for (size_t i = 0; i < cov.size(); ++i) bits += ((s >> i) & 1) ? '1' : '0';
      std::printf("  unreachable: %s\n", bits.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.positionals().size() < 2) return usage();
  const std::string& command = opts.positionals()[0];
  if (command == "verify") return cmd_verify(opts);
  if (command == "coverage") return cmd_coverage(opts);

  api::DesignRef ref;
  ref.path = opts.positionals()[1];
  ref.top = opts.get("top", "");
  if (opts.get_bool("aiger", false)) ref.format = "aiger";
  api::LoadedDesign design;
  if (!load(ref, &design)) return 2;
  if (command == "translate") {
    const std::string format = opts.get("format", "blif");
    std::string body;
    if (format == "blif") {
      body = write_blif(design.netlist, "rfn_translated");
    } else if (format == "aag" || format == "aig") {
      body = aiger::write_aiger(design.netlist, format == "aig");
    } else {
      std::fprintf(stderr, "rfn: unknown translate format '%s'\n",
                   format.c_str());
      return 2;
    }
    const std::string out_path = opts.get("out", "");
    if (out_path.empty()) {
      std::fwrite(body.data(), 1, body.size(), stdout);  // .aig is raw bytes
    } else if (!write_text_file(out_path, body)) {
      return 2;
    }
    return 0;
  }
  if (command == "stats") {
    for (const auto& [name, g] : design.netlist.outputs()) {
      const auto regs = coi_registers(design.netlist, {g});
      std::printf("output %-24s COI: %zu registers\n", name.c_str(), regs.size());
    }
    return 0;
  }
  return usage();
}
