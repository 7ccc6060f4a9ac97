#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>
#include <utility>

#include "util/metrics.hpp"

namespace rfn::serve {

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), queue_(opt_.admission) {
  if (opt_.workers < 1) opt_.workers = 1;
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  if (opt_.unix_socket.empty() && opt_.tcp_port < 0) {
    *error = "no listener configured (need a socket path or a TCP port)";
    return false;
  }
  exec_ = std::make_unique<Executor>(opt_.workers);
  if (!opt_.unix_socket.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.unix_socket.size() >= sizeof(addr.sun_path)) {
      *error = "socket path too long: " + opt_.unix_socket;
      return false;
    }
    std::memcpy(addr.sun_path, opt_.unix_socket.c_str(),
                opt_.unix_socket.size() + 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(opt_.unix_socket.c_str());
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(unix_fd_, 64) < 0) {
      *error = "cannot listen on " + opt_.unix_socket + ": " +
               std::strerror(errno);
      ::close(unix_fd_);
      unix_fd_ = -1;
      return false;
    }
  }
  if (opt_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(opt_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(tcp_fd_, 64) < 0) {
      *error = "cannot listen on loopback port " +
               std::to_string(opt_.tcp_port) + ": " + std::strerror(errno);
      ::close(tcp_fd_);
      tcp_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      tcp_port_ = ntohs(bound.sin_port);
    }
  }
  if (unix_fd_ >= 0) {
    accept_threads_.emplace_back([this] { accept_loop(unix_fd_); });
  }
  if (tcp_fd_ >= 0) {
    accept_threads_.emplace_back([this] { accept_loop(tcp_fd_); });
  }
  return true;
}

void Server::accept_loop(int listen_fd) {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load() || (errno != EINTR && errno != ECONNABORTED)) {
        return;
      }
      continue;
    }
    reap_connections();
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lk(conns_mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    conns_.push_back(conn);
    conn->thread = std::thread([this, conn] { connection_loop(conn); });
  }
}

void Server::reap_connections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move((*it)->thread));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // done is the thread's last act, so these joins return immediately.
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

void Server::connection_loop(std::shared_ptr<Conn> conn) {
  const int fd = conn->fd;
  std::string buf;
  char chunk[4096];
  bool drop = false;
  while (!drop) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<size_t>(n));
    if (buf.size() > opt_.max_line_bytes && buf.find('\n') == std::string::npos) {
      write_line(*conn, api::VerifyResponse::reject("", "bad-request",
                                                    "request line too long")
                            .to_json()
                            .dump());
      break;
    }
    size_t start = 0;
    for (size_t nl = buf.find('\n', start); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string perr;
      json::Value doc = json::parse(line, &perr);
      if (doc.is_null()) {
        write_line(*conn, api::VerifyResponse::reject("", "bad-request",
                                                      "invalid JSON: " + perr)
                              .to_json()
                              .dump());
        continue;
      }
      handle_request(*conn, doc);
      if (stopping_.load()) {
        drop = true;  // a shutdown request ends the connection too
        break;
      }
    }
    buf.erase(0, start);
  }
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true);
}

void Server::handle_request(Conn& conn, const json::Value& doc) {
  std::string id;
  if (const json::Value* v = doc.find("id"); v != nullptr && v->is_string()) {
    id = v->as_string();
  }
  std::string type;
  if (const json::Value* v = doc.find("type"); v != nullptr && v->is_string()) {
    type = v->as_string();
  }
  if (type == "ping" || type == "shutdown") {
    json::Value resp = json::Value::object();
    resp.set("type", "response");
    resp.set("version", api::kResponseVersion);
    if (!id.empty()) resp.set("id", id);
    resp.set("ok", true);
    write_line(conn, resp.dump());
    if (type == "shutdown") request_stop();
    return;
  }
  auto req = std::make_shared<api::VerifyRequest>();
  std::string err;
  if (!api::VerifyRequest::from_json(doc, req.get(), &err)) {
    write_line(conn,
               api::VerifyResponse::reject(id, "bad-request", err)
                   .to_json()
                   .dump());
    return;
  }
  // Admission runs on the DECLARED demands before the design is loaded:
  // parsing/elaborating up to 64 MB of inline design text is real CPU, and
  // a rejected request must cost microseconds, not an elaboration. The
  // admitted job loads on the worker ("load-failed" is written from
  // there). One drain token per admitted job; the connection thread blocks
  // on the job's completion — the NEXT line is read only after this
  // request's response went out, which keeps the record stream unambiguous.
  auto done = std::make_shared<std::promise<void>>();
  Job job;
  job.tenant = req->tenant;
  job.demand_ms =
      request_demand_ms(*req, opt_.admission.default_demand_ms);
  job.demand_mem_mb =
      req->options.budget_mem_mb > 0 ? req->options.budget_mem_mb : 0;
  job.demand_bdd_nodes =
      req->options.budget_bdd_nodes > 0 ? req->options.budget_bdd_nodes : 0;
  job.run = [this, &conn, req, done] {
    api::LoadedDesign design;
    std::string lerr;
    if (!api::load_design(req->design, &design, &lerr)) {
      write_line(conn,
                 api::VerifyResponse::reject(req->id, "load-failed", lerr)
                     .to_json()
                     .dump());
    } else {
      process(conn, *req, design);
    }
    done->set_value();
  };
  std::string reason, detail;
  if (!queue_.try_push(std::move(job), &reason, &detail)) {
    write_line(conn, api::VerifyResponse::reject(req->id, reason, detail)
                         .to_json()
                         .dump());
    return;
  }
  exec_->submit([this] {
    Job j;
    if (!queue_.pop_fairest(&j)) return;
    j.run();
    queue_.finish(j);
  });
  done->get_future().wait();
}

void Server::process(Conn& conn, const api::VerifyRequest& req,
                     const api::LoadedDesign& design) {
  api::CallbackTraceSink sink(
      [this, &conn](const json::Value& rec) { write_line(conn, rec.dump()); });
  api::RunOutput out;
  std::string err;
  bool ok;
  {
    // Per-request metrics isolation: the whole run — executor workers and
    // the watchdog included, via binding propagation —
    // records into a registry this request owns, so the batch summary's
    // metrics block is request-relative even with concurrent requests
    // in flight. Server-level metrics (the queue) are recorded outside
    // this scope and stay process-cumulative.
    MetricsRegistry request_metrics;
    MetricsScope scope(&request_metrics);
    ok = api::run_verify(design, req, &sink, /*stream_properties=*/true,
                         &out, &err);
  }
  const api::VerifyResponse resp =
      ok ? std::move(out.response)
         : api::VerifyResponse::reject(req.id, "bad-request", err);
  // Counted before the response line goes out, so a client that has read
  // its response observes the request as served.
  served_.fetch_add(1);
  write_line(conn, resp.to_json().dump());
}

void Server::write_line(Conn& conn, const std::string& line) {
  std::lock_guard<std::mutex> lk(conn.mu);
  if (conn.fd < 0) return;
  std::string framed = line;
  framed.push_back('\n');
  size_t off = 0;
  while (off < framed.size()) {
    ssize_t n = ::send(conn.fd, framed.data() + off, framed.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; the job still finishes quietly
    off += static_cast<size_t>(n);
  }
}

void Server::request_stop() {
  stopping_.store(true);
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  stop_cv_.wait(lk, [this] { return stop_requested_ || stopped_; });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  stopping_.store(true);
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  for (auto& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  accept_threads_.clear();
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    std::lock_guard<std::mutex> lk(c->mu);
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  }
  // Joining a connection thread waits out its in-flight job (the executor
  // stays alive until the destructor), so no job outlives the server state
  // it touches. The accept loops are already joined, so no reaper races
  // these joins.
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(opt_.unix_socket.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  exec_.reset();
}

}  // namespace rfn::serve
