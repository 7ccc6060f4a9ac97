// rfn_serve — verification as a service.
//
//   rfn_serve --socket PATH | --port N [options]
//
// A long-lived daemon on the rfn::api surface: newline-delimited rfn-req-v1
// verify requests in, streamed rfn-trace-v2 records plus one final
// rfn-resp-v1 verdict line out per request (see serve/server.hpp for the
// protocol, including the "ping" and "shutdown" control types).
//
// The server keeps no per-design state: every request loads its design and
// runs cold, exactly as `rfn verify` runs it, so the same request gives the
// same trajectory whatever the server served before. A bounded FairQueue
// schedules admitted jobs fair-share by tenant and rejects fast, with a
// named reason, when the declared budgets would oversubscribe the
// configured windows.
//
// Quickstart:
//
//   rfn_serve --socket /tmp/rfn.sock &
//   printf '%s\n' '{"type":"verify","version":"rfn-req-v1","id":"r1",
//     "design":{"path":"builtin:fifo"}}' | nc -U /tmp/rfn.sock
//
// Exit status: 0 clean shutdown, 2 usage or bind errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/server.hpp"

using namespace rfn;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: rfn_serve (--socket PATH | --port N) [options]\n"
      "  --socket PATH        listen on a Unix-domain socket\n"
      "  --port N             listen on loopback TCP port N (0 = ephemeral)\n"
      "  --workers N          queue-draining worker threads (default 1)\n"
      "  --queue-cap N        admitted-but-unfinished job bound (default 64)\n"
      "  --admit-ms X         wall-time admission window over outstanding\n"
      "                       time-limit demands (default off)\n"
      "  --admit-mem-mb N     admission window over outstanding\n"
      "                       budget-mem-mb demands (default off)\n"
      "  --admit-bdd-nodes N  admission window over outstanding\n"
      "                       budget-bdd-nodes demands (default off)\n"
      "  --default-demand-ms X  time demand assumed for requests that\n"
      "                       declare no time-limit (default 300000)\n");
  return 2;
}

bool parse_num(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](double* out) {
      if (i + 1 >= argc || !parse_num(argv[++i], out)) {
        std::fprintf(stderr, "rfn_serve: %s needs a numeric value\n",
                     arg.c_str());
        return false;
      }
      return true;
    };
    double num = 0;
    if (arg == "--socket" && i + 1 < argc) {
      opt.unix_socket = argv[++i];
    } else if (arg == "--port") {
      if (!value(&num)) return 2;
      opt.tcp_port = static_cast<int>(num);
    } else if (arg == "--workers") {
      if (!value(&num)) return 2;
      opt.workers = static_cast<size_t>(num);
    } else if (arg == "--queue-cap") {
      if (!value(&num)) return 2;
      opt.admission.queue_capacity = static_cast<size_t>(num);
    } else if (arg == "--admit-ms") {
      if (!value(&num)) return 2;
      opt.admission.time_window_ms = num;
    } else if (arg == "--admit-mem-mb") {
      if (!value(&num)) return 2;
      opt.admission.mem_window_mb = static_cast<int64_t>(num);
    } else if (arg == "--admit-bdd-nodes") {
      if (!value(&num)) return 2;
      opt.admission.bdd_node_window = static_cast<int64_t>(num);
    } else if (arg == "--default-demand-ms") {
      if (!value(&num)) return 2;
      opt.admission.default_demand_ms = num;
    } else {
      std::fprintf(stderr, "rfn_serve: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (opt.unix_socket.empty() && opt.tcp_port < 0) return usage();

  serve::Server server(opt);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "rfn_serve: %s\n", error.c_str());
    return 2;
  }
  if (!opt.unix_socket.empty()) {
    std::fprintf(stderr, "rfn_serve: listening on %s\n",
                 opt.unix_socket.c_str());
  }
  if (opt.tcp_port >= 0) {
    std::fprintf(stderr, "rfn_serve: listening on 127.0.0.1:%d\n",
                 server.tcp_port());
  }
  std::fflush(stderr);
  server.wait();
  server.stop();
  std::fprintf(stderr, "rfn_serve: served %zu requests\n", server.served());
  return 0;
}
