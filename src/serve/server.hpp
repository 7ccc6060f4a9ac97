#pragma once
// rfn_serve's engine room: a long-lived verification server on the rfn::api
// surface.
//
// Protocol (newline-delimited JSON over a Unix or loopback TCP socket):
//
//   client → server   one rfn-req-v1 document per line. Besides
//                     "type":"verify" the server answers two control types:
//                     "ping" (readiness probe) and "shutdown" (graceful
//                     stop; the response is written before the server winds
//                     down).
//   server → client   for a verify: zero or more rfn-trace-v2 records
//                     streamed AS PRODUCED (property records in completion
//                     order, then certificate records and the batch
//                     summary), then exactly one rfn-resp-v1 line. For
//                     control types and rejections: the single rfn-resp-v1
//                     line only.
//
// A connection handles one request at a time (the next line is read after
// the previous response), which is what keeps the streamed record
// interleaving unambiguous without per-record request tags. Concurrency
// lives across connections: admitted jobs go through a FairQueue and are
// drained by a util/executor worker pool, so two tenants on two connections
// share the machine fair-share while each sees an ordered stream.
//
// Request lifecycle: the connection thread parses (strict rfn-req-v1;
// "bad-request" on any codec error) and runs admission on the DECLARED
// demands (FairQueue's named rejects) → enqueue + drain token. Loading the
// design — up to 64 MB of inline Verilog/AIGER to parse and elaborate —
// happens on the worker, after admission, so a rejected or flooding
// request costs microseconds, never an elaboration ("load-failed" is
// written by the worker). The worker then runs api::run_verify on its own
// load with a streaming sink and writes the final line. The server keeps no
// per-design state: every request runs cold, exactly as `rfn verify` runs
// it, so two in-flight requests on one design run in parallel and a repeat
// request walks the first one's trajectory.
//
// Each request's run_verify executes under a MetricsScope binding a
// registry the request owns (the binding propagates to executor workers and
// the watchdog), so the batch-summary's metrics block is request-relative
// even with concurrent requests in flight — the same single-run reading the
// CLI gives. Server-level metrics (the admission queue) are recorded
// outside the scope and stay process-cumulative on purpose.

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/queue.hpp"
#include "util/executor.hpp"

namespace rfn::serve {

struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix listener. A stale
  /// socket file is unlinked before bind.
  std::string unix_socket;
  /// Loopback TCP port; -1 disables the TCP listener, 0 binds an ephemeral
  /// port (read it back with Server::tcp_port()).
  int tcp_port = -1;
  /// Executor workers draining the queue (clamped to >= 1: with zero the
  /// executor runs jobs inline inside submit(), which would deadlock the
  /// connection thread against its own future).
  size_t workers = 1;
  AdmissionLimits admission;
  /// Longest accepted request line (inline designs included).
  size_t max_line_bytes = 64u << 20;
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the accept threads. False with a
  /// one-line diagnostic on bind failure.
  bool start(std::string* error);

  /// Blocks until a shutdown request (or stop()) arrives.
  void wait();

  /// Stops listening, unblocks every connection, joins all threads. Queued
  /// jobs still drain (their responses go to already-shut sockets).
  /// Idempotent.
  void stop();

  /// Actual TCP port after start() (ephemeral binds resolve here).
  int tcp_port() const { return tcp_port_; }

  size_t served() const { return served_.load(); }

 private:
  struct Conn {
    int fd = -1;
    /// Guards fd writes and the close; the reader thread recvs unlocked
    /// (it is the only closer, and only after its last recv).
    std::mutex mu;
    /// The serving thread, joined by reap_connections() or stop().
    std::thread thread;
    /// Set by the serving thread as its last act, making the Conn reapable.
    std::atomic<bool> done{false};
  };

  void accept_loop(int listen_fd);
  /// Joins finished connection threads and drops their Conns; called from
  /// the accept loops so a long-lived daemon does not accumulate one thread
  /// handle per connection ever served.
  void reap_connections();
  void connection_loop(std::shared_ptr<Conn> conn);
  /// One request line, already parsed. Writes every reply itself.
  void handle_request(Conn& conn, const json::Value& doc);
  void process(Conn& conn, const api::VerifyRequest& req,
               const api::LoadedDesign& design);
  void write_line(Conn& conn, const std::string& line);
  void request_stop();

  ServerOptions opt_;
  FairQueue queue_;
  std::unique_ptr<Executor> exec_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<size_t> served_{0};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  std::vector<std::thread> accept_threads_;
  std::mutex conns_mu_;
  /// Live (unreaped) connections; each owns its serving thread.
  std::vector<std::shared_ptr<Conn>> conns_;
};

}  // namespace rfn::serve
