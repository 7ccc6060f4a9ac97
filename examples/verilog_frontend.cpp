// Driving the toolchain from Verilog source: parse -> elaborate -> verify.
//
// Reads a Verilog-subset module from a file (or uses a built-in traffic-
// light interlock demo), elaborates it to gates, and verifies the property
// named on the command line ("bad signal high is a violation").
//
// Usage: verilog_frontend [file.v] [--bad SIGNAL] [--dump-dot] [--emit-blif]

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/rfn.hpp"
#include "netlist/writer.hpp"
#include "netlist/blif.hpp"
#include "rtlv/elaborate.hpp"
#include "util/options.hpp"

using namespace rfn;

namespace {

const char* kDemo = R"(
// Two-phase traffic-light interlock: the crossing directions must never
// both show green. The watchdog register 'bad' latches any violation.
module traffic(clk, go_ns, go_ew);
  input clk;
  input go_ns;
  input go_ew;

  reg [1:0] ns = 0;   // 0 red, 1 yellow, 2 green
  reg [1:0] ew = 0;
  reg bad = 0;

  wire ns_green;
  wire ew_green;
  assign ns_green = ns == 2;
  assign ew_green = ew == 2;

  always @(posedge clk) begin
    if (ns == 0) begin
      if (go_ns & !ew_green & (ew == 0)) ns <= 2;
    end else if (ns == 2) ns <= 1;
    else ns <= 0;

    if (ew == 0) begin
      if (go_ew & !ns_green & (ns == 0) & !go_ns) ew <= 2;
    end else if (ew == 2) ew <= 1;
    else ew <= 0;

    bad <= bad | (ns_green & ew_green);
  end
endmodule
)";

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  std::string source = kDemo;
  std::string origin = "<built-in traffic-light demo>";
  if (!opts.positionals().empty()) {
    origin = opts.positionals()[0];
    std::ifstream in(origin);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", origin.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  const auto design = rtlv::elaborate_verilog(source);
  std::printf("elaborated module '%s' from %s: %s\n", design.module_name.c_str(),
              origin.c_str(), stats_line(design.netlist).c_str());
  if (opts.get_bool("dump-dot", false))
    std::fputs(to_dot(design.netlist).c_str(), stdout);
  if (opts.get_bool("emit-blif", false))
    std::fputs(write_blif(design.netlist, design.module_name).c_str(), stdout);

  const std::string bad_name = opts.get("bad", "bad");
  const GateId bad = design.netlist.find(bad_name);
  if (bad == kNullGate) {
    std::fprintf(stderr, "no signal named '%s' in the design\n", bad_name.c_str());
    return 1;
  }

  RfnOptions rfn_opts;
  rfn_opts.time_limit_s = opts.get_double("time-limit", 120.0);
  const RfnResult result = run_property(design.netlist, bad, rfn_opts);
  std::printf("property '!%s': %s (%zu iterations, abstract model %zu regs, %.2f s)\n",
              bad_name.c_str(),
              result.verdict == Verdict::Holds   ? "HOLDS"
              : result.verdict == Verdict::Fails ? "VIOLATED"
                                                 : "UNKNOWN",
              result.iterations, result.final_abstract_regs, result.seconds);
  if (result.verdict == Verdict::Fails)
    std::fputs(trace_to_string(design.netlist, result.error_trace).c_str(), stdout);
  return 0;
}
