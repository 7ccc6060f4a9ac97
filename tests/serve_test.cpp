// rfn_serve tests: fair-share scheduling, admission control, strict
// rfn-req-v1 rejection, and — the acceptance check — CLI-vs-server
// equivalence through the shared rfn::api run path: every request, repeated
// or concurrent, walks the trajectory of the cold CLI run.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "serve/queue.hpp"

namespace rfn {
namespace {

// ---------------------------------------------------------------------------
// FairQueue

serve::Job job(const std::string& tenant, double ms = 0.0, int64_t mem = 0,
               int64_t bdd = 0) {
  serve::Job j;
  j.tenant = tenant;
  j.demand_ms = ms;
  j.demand_mem_mb = mem;
  j.demand_bdd_nodes = bdd;
  j.run = [] {};
  return j;
}

TEST(FairQueue, InterleavesTenantsByStartedCount) {
  serve::FairQueue q(serve::AdmissionLimits{});
  std::string reason, detail;
  // Tenant a floods four jobs, then tenant b files two.
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(q.try_push(job("a"), &reason, &detail));
  for (int i = 0; i < 2; ++i)
    ASSERT_TRUE(q.try_push(job("b"), &reason, &detail));
  std::vector<std::string> order;
  serve::Job j;
  while (q.pop_fairest(&j)) {
    order.push_back(j.tenant);
    q.finish(j);
  }
  // Fair share alternates until b drains; a's flood cannot starve b.
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b", "a", "a"}));
}

TEST(FairQueue, FifoWithinOneTenant) {
  serve::FairQueue q(serve::AdmissionLimits{});
  std::string reason, detail;
  for (double ms : {1.0, 2.0, 3.0})
    ASSERT_TRUE(q.try_push(job("t", ms), &reason, &detail));
  serve::Job j;
  for (double want : {1.0, 2.0, 3.0}) {
    ASSERT_TRUE(q.pop_fairest(&j));
    EXPECT_EQ(j.demand_ms, want);
    q.finish(j);
  }
  EXPECT_FALSE(q.pop_fairest(&j));
}

TEST(FairQueue, RejectsWithNamedReasons) {
  serve::AdmissionLimits lim;
  lim.queue_capacity = 2;
  lim.time_window_ms = 100.0;
  lim.mem_window_mb = 50;
  lim.bdd_node_window = 1000;
  std::string reason, detail;

  serve::FairQueue q2(lim);
  ASSERT_TRUE(q2.try_push(job("a", 60.0), &reason, &detail));
  EXPECT_FALSE(q2.try_push(job("b", 60.0), &reason, &detail));
  EXPECT_EQ(reason, "time-oversubscribed");
  EXPECT_NE(detail.find("window"), std::string::npos);

  serve::FairQueue q3(lim);
  ASSERT_TRUE(q3.try_push(job("a", 1.0, 30), &reason, &detail));
  EXPECT_FALSE(q3.try_push(job("b", 1.0, 30), &reason, &detail));
  EXPECT_EQ(reason, "mem-oversubscribed");

  serve::FairQueue q4(lim);
  ASSERT_TRUE(q4.try_push(job("a", 1.0, 0, 800), &reason, &detail));
  EXPECT_FALSE(q4.try_push(job("b", 1.0, 0, 800), &reason, &detail));
  EXPECT_EQ(reason, "bdd-oversubscribed");

  serve::FairQueue q5(lim);
  ASSERT_TRUE(q5.try_push(job("a", 1.0), &reason, &detail));
  ASSERT_TRUE(q5.try_push(job("b", 1.0), &reason, &detail));
  EXPECT_FALSE(q5.try_push(job("c", 1.0), &reason, &detail));
  EXPECT_EQ(reason, "queue-full");

  // finish() releases the demands: the queue admits again.
  serve::Job j;
  ASSERT_TRUE(q5.pop_fairest(&j));
  q5.finish(j);
  EXPECT_TRUE(q5.try_push(job("c", 1.0), &reason, &detail));
}

TEST(FairQueue, DropsIdleTenantRecords) {
  serve::FairQueue q(serve::AdmissionLimits{});
  std::string reason, detail;
  // Tenant names are client-controlled: a client cycling through unique
  // names must not grow the map for the daemon's lifetime.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        q.try_push(job("tenant-" + std::to_string(i)), &reason, &detail));
    serve::Job j;
    ASSERT_TRUE(q.pop_fairest(&j));
    q.finish(j);
    EXPECT_EQ(q.tenant_records(), 0u);
  }
  // A tenant with a queued or running job keeps its record.
  ASSERT_TRUE(q.try_push(job("t"), &reason, &detail));
  ASSERT_TRUE(q.try_push(job("t"), &reason, &detail));
  serve::Job j;
  ASSERT_TRUE(q.pop_fairest(&j));
  q.finish(j);
  EXPECT_EQ(q.tenant_records(), 1u);  // one job still queued
  ASSERT_TRUE(q.pop_fairest(&j));
  EXPECT_EQ(q.tenant_records(), 1u);  // popped but not finished: running
  q.finish(j);
  EXPECT_EQ(q.tenant_records(), 0u);
}

TEST(FairQueue, DemandFallsBackToTimeLimitThenDefault) {
  api::VerifyRequest req;
  req.options.time_limit_s = 2.0;
  EXPECT_EQ(serve::request_demand_ms(req, 999.0), 2000.0);
  req.options.time_limit_s = -1.0;
  EXPECT_EQ(serve::request_demand_ms(req, 999.0), 999.0);
}

// ---------------------------------------------------------------------------
// Strict rfn-req-v1 rejection

json::Value valid_request_doc() {
  api::VerifyRequest req;
  req.id = "r1";
  req.design.path = "builtin:fifo";
  api::PropertySpec spec;
  spec.signal = "bad_full_q";
  req.props.push_back(spec);
  return req.to_json();
}

/// A value for `k` other than its default, as the JSON the wire carries.
json::Value non_default(const api::Knob& k) {
  api::VerifyRequest defaults;
  return std::visit(
      [](auto* p) -> json::Value {
        using T = std::decay_t<decltype(*p)>;
        if constexpr (std::is_same_v<T, size_t>) {
          return static_cast<uint64_t>(*p + 3);
        } else {
          return *p + 3;
        }
      },
      k.field(defaults));
}

/// The minimal request for builtin:fifo's bad_full_q; `overrides`, when an
/// object, goes on the property.
json::Value minimal_doc(json::Value overrides = {}) {
  json::Value prop = json::Value::object();
  prop.set("signal", "bad_full_q");
  if (overrides.is_object()) prop.set("overrides", std::move(overrides));
  json::Value props = json::Value::array();
  props.push(std::move(prop));
  json::Value design = json::Value::object();
  design.set("path", "builtin:fifo");
  json::Value doc = json::Value::object();
  doc.set("type", "verify");
  doc.set("version", api::kRequestVersion);
  doc.set("design", std::move(design));
  doc.set("props", std::move(props));
  return doc;
}

/// The request `rfn ARGS...` builds.
bool request_from_args(const std::vector<std::string>& args,
                       api::VerifyRequest* out, std::string* error) {
  std::vector<std::string> words = {"rfn"};
  words.insert(words.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  const Options opts(static_cast<int>(argv.size()), argv.data());
  return api::VerifyRequest::from_flags(opts, {}, out, error);
}

/// What a request runs: its to_json() with each property's overrides
/// merged into the options it runs under.
std::string effective(api::VerifyRequest req) {
  for (api::PropertySpec& p : req.props) {
    req.options = merge_overrides(req.options, p.overrides);
    p.overrides = {};
  }
  return req.to_json().dump();
}

TEST(RequestCodec, RoundTripsThroughJson) {
  // Every key of the schema at a non-default value.
  json::Value overrides = json::Value::object();
  json::Value options = json::Value::object();
  json::Value session = json::Value::object();
  for (const api::Knob& k : api::knobs()) {
    (std::string(k.group) == "options" ? options : session)
        .set(k.key, non_default(k));
    if (k.override_field != nullptr) overrides.set(k.key, non_default(k));
  }
  json::Value prop = json::Value::object();
  prop.set("signal", "bad_full_q");
  prop.set("name", "full");
  prop.set("overrides", std::move(overrides));
  json::Value props = json::Value::array();
  props.push(std::move(prop));
  json::Value design = json::Value::object();
  design.set("path", "builtin:fifo");
  design.set("text", "module m; endmodule");
  design.set("format", "verilog");
  design.set("top", "m");
  // In to_json()'s key order, so the document itself is the expected
  // encoding.
  json::Value doc = json::Value::object();
  doc.set("type", "verify");
  doc.set("version", api::kRequestVersion);
  doc.set("id", "r1");
  doc.set("tenant", "t1");
  doc.set("design", std::move(design));
  doc.set("props", std::move(props));
  doc.set("options", std::move(options));
  doc.set("session", std::move(session));
  doc.set("certify", true);
  doc.set("inline-certificates", true);

  api::VerifyRequest req;
  std::string error;
  ASSERT_TRUE(api::VerifyRequest::from_json(doc, &req, &error)) << error;
  const json::Value before = req.to_json();
  const json::Value defaults = api::VerifyRequest{}.to_json();
  for (const api::Knob& k : api::knobs()) {
    const std::string path = std::string(k.group) + "." + k.key;
    ASSERT_NE(before.find_path(path), nullptr) << path;
    EXPECT_EQ(*before.find_path(path), non_default(k)) << path;
    EXPECT_FALSE(*before.find_path(path) == *defaults.find_path(path)) << path;
  }
  api::VerifyRequest back;
  ASSERT_TRUE(api::VerifyRequest::from_json(before, &back, &error)) << error;
  EXPECT_EQ(before.dump(), doc.dump());
  EXPECT_EQ(back.to_json().dump(), before.dump());
}

TEST(RequestCodec, EveryDoorSetsEveryKnob) {
  // Each knob at a non-default value through every door that reaches it:
  // its CLI flag, its "options"/"session" member, and — when overridable —
  // a --props line and an "overrides" member. Every door must run the same
  // request.
  const std::string props = ::testing::TempDir() + "/knob.props";
  api::VerifyRequest req;
  std::string error;
  const std::vector<std::string> bad = {"verify", "builtin:fifo", "--bad",
                                        "bad_full_q"};
  ASSERT_TRUE(request_from_args(bad, &req, &error)) << error;
  const std::string unset = effective(req);
  size_t overridable = 0;
  for (const api::Knob& k : api::knobs()) {
    SCOPED_TRACE(k.key);
    const json::Value v = non_default(k);
    std::vector<std::string> doors;

    std::vector<std::string> args = bad;
    args.insert(args.end(), {"--" + k.cli_flag(), v.dump()});
    ASSERT_TRUE(request_from_args(args, &req, &error)) << error;
    doors.push_back(effective(req));

    json::Value group = json::Value::object();
    group.set(k.key, v);
    json::Value doc = minimal_doc();
    doc.set(k.group, std::move(group));
    ASSERT_TRUE(api::VerifyRequest::from_json(doc, &req, &error)) << error;
    doors.push_back(effective(req));

    if (k.override_field != nullptr) {
      ++overridable;
      std::ofstream(props) << "bad_full_q " << k.key << "=" << v.dump() << "\n";
      ASSERT_TRUE(request_from_args(
          {"verify", "builtin:fifo", "--props", props}, &req, &error))
          << error;
      doors.push_back(effective(req));

      json::Value ov = json::Value::object();
      ov.set(k.key, v);
      ASSERT_TRUE(api::VerifyRequest::from_json(minimal_doc(std::move(ov)),
                                                &req, &error))
          << error;
      doors.push_back(effective(req));
    }
    EXPECT_NE(doors[0], unset);
    for (size_t d = 1; d < doors.size(); ++d)
      EXPECT_EQ(doors[d], doors[0]) << "door " << d;
  }
  EXPECT_EQ(api::knobs().size(), 6u);
  EXPECT_EQ(overridable, 4u);
  std::remove(props.c_str());
}

TEST(RequestCodec, FlagsAndMinimalDocumentAgree) {
  // `rfn verify D --bad s` and the minimal rfn-req-v1 document for the same
  // design and property are one request, defaults included (300 s limit).
  api::VerifyRequest flags, wire;
  std::string error;
  ASSERT_TRUE(request_from_args(
      {"verify", "builtin:fifo", "--bad", "bad_full_q"}, &flags, &error))
      << error;
  ASSERT_TRUE(api::VerifyRequest::from_json(minimal_doc(), &wire, &error))
      << error;
  EXPECT_EQ(flags.to_json().dump(), wire.to_json().dump());
  EXPECT_EQ(wire.options.time_limit_s, 300.0);
}

TEST(RequestCodec, FlagsAreStrict) {
  api::VerifyRequest req;
  std::string error;
  // A negative number is the value of the flag before it: -1 = unbounded.
  ASSERT_TRUE(request_from_args({"verify", "D", "--time-limit", "-1"}, &req,
                                &error))
      << error;
  EXPECT_EQ(req.options.time_limit_s, -1.0);
  const std::pair<std::vector<std::string>, const char*> refused[] = {
      {{"verify", "D", "--time-limit", "-1", "stray"}, "'stray'"},
      {{"verify", "D", "--time-limt", "5"}, "--time-limt"},
      {{"verify", "D", "--time-limit", "abc"}, "--time-limit"},
      {{"verify", "D", "--max-iterations", "1.7"}, "--max-iterations"},
      {{"verify", "D", "--no-reuse"}, "unknown flag --no-reuse"},
      {{"verify"}, "missing design"},
  };
  for (const auto& [args, named] : refused) {
    EXPECT_FALSE(request_from_args(args, &req, &error)) << named;
    EXPECT_NE(error.find(named), std::string::npos) << error;
  }
}

TEST(RequestCodec, RefusesFractionalCounts) {
  json::Value options = json::Value::object();
  options.set("max-iterations", 1.7);
  json::Value doc = minimal_doc();
  doc.set("options", std::move(options));
  api::VerifyRequest out;
  std::string error;
  EXPECT_FALSE(api::VerifyRequest::from_json(doc, &out, &error));
  EXPECT_NE(error.find("options.max-iterations"), std::string::npos) << error;

  json::Value ov = json::Value::object();
  ov.set("max-iterations", 1.7);
  EXPECT_FALSE(api::VerifyRequest::from_json(minimal_doc(std::move(ov)), &out,
                                             &error));
  EXPECT_NE(error.find("props[0].overrides"), std::string::npos) << error;
}

TEST(RequestCodec, RefusesRemovedOptionKeys) {
  // Knobs deleted with their mechanism are unknown keys, not ignored ones.
  const std::tuple<const char*, const char*, json::Value> removed[] = {
      {"options", "traces", json::Value(2.0)},
      {"options", "approx-fallback", json::Value(false)},
      {"options", "proof-shrink", json::Value(true)},
      {"options", "workers", json::Value(4.0)},
      {"options", "engines", json::Value::array()},
      {"options", "pdr-max-frames", json::Value(64.0)},
      {"options", "pdr-time", json::Value(5.0)},
      {"session", "cluster-overlap", json::Value(0.5)},
      {"session", "max-cluster", json::Value(4.0)},
      {"options", "budget-ms", json::Value(150.0)},
      {"session", "reuse", json::Value(false)}};
  for (const auto& [group, key, value] : removed) {
    json::Value members = json::Value::object();
    members.set(key, value);
    json::Value doc = minimal_doc();
    doc.set(group, std::move(members));
    api::VerifyRequest out;
    std::string error;
    EXPECT_FALSE(api::VerifyRequest::from_json(doc, &out, &error)) << key;
    EXPECT_NE(error.find("unknown key '" + std::string(group) + "." + key + "'"),
              std::string::npos)
        << error;
  }
  // The removed wall budget is no per-property override either.
  json::Value ov = json::Value::object();
  ov.set("budget-ms", 150.0);
  api::VerifyRequest out;
  std::string error;
  EXPECT_FALSE(
      api::VerifyRequest::from_json(minimal_doc(std::move(ov)), &out, &error));
  EXPECT_NE(error.find("unknown key 'budget-ms'"), std::string::npos) << error;
}

TEST(RequestCodec, RejectsMalformedDocuments) {
  // Deterministic mutations of a valid document: every one must be rejected
  // with a non-empty diagnostic, never accepted or crashed on.
  std::vector<json::Value> bad;
  {
    json::Value v = valid_request_doc();
    v.set("version", "rfn-req-v0");
    bad.push_back(v);
  }
  {
    json::Value v = valid_request_doc();
    v.set("type", "destroy");
    bad.push_back(v);
  }
  {
    json::Value v = valid_request_doc();
    v.set("surprise", 1.0);
    bad.push_back(v);
  }
  {
    json::Value v = valid_request_doc();
    v.set("props", "not-an-array");
    bad.push_back(v);
  }
  {
    json::Value v = valid_request_doc();
    v.set("id", 42.0);
    bad.push_back(v);
  }
  {
    json::Value v = valid_request_doc();
    json::Value opts = json::Value::object();
    opts.set("warp-speed", true);
    v.set("options", std::move(opts));
    bad.push_back(v);
  }
  {
    json::Value v = valid_request_doc();
    json::Value sess = json::Value::object();
    sess.set("batch-budget-ms", "lots");
    v.set("session", std::move(sess));
    bad.push_back(v);
  }
  {
    // No design at all.
    json::Value v = json::Value::object();
    v.set("type", "verify");
    v.set("version", api::kRequestVersion);
    bad.push_back(v);
  }
  bad.push_back(json::Value(3.0));
  bad.push_back(json::Value("verify"));
  for (size_t i = 0; i < bad.size(); ++i) {
    api::VerifyRequest out;
    std::string error;
    EXPECT_FALSE(api::VerifyRequest::from_json(bad[i], &out, &error))
        << "mutation " << i << " was accepted: " << bad[i].dump();
    EXPECT_FALSE(error.empty()) << "mutation " << i;
  }
}

/// valid_request_doc() with `overrides` on its one property.
json::Value request_with_overrides(json::Value overrides) {
  json::Value prop = json::Value::object();
  prop.set("signal", "bad_full_q");
  prop.set("overrides", std::move(overrides));
  json::Value props = json::Value::array();
  props.push(std::move(prop));
  json::Value doc = valid_request_doc();
  doc.set("props", std::move(props));
  return doc;
}

TEST(RequestCodec, RefusesNegativeOverrideCounts) {
  // std::stoul would wrap -1 to 2^64-1 iterations.
  json::Value ov = json::Value::object();
  ov.set("max-iterations", -1.0);
  api::VerifyRequest out;
  std::string error;
  EXPECT_FALSE(api::VerifyRequest::from_json(request_with_overrides(ov), &out,
                                             &error));
  EXPECT_NE(error.find("props[0]"), std::string::npos) << error;
  EXPECT_NE(error.find("max-iterations"), std::string::npos) << error;
}

TEST(RequestCodec, ValidatesEachPropertysMergedOptions) {
  // Overrides that parse but fail RfnOptions::validate() are refused by the
  // shared run path before any engine work, each named by its property.
  api::LoadedDesign design;
  std::string error;
  ASSERT_TRUE(api::load_design({"builtin:fifo", "", "", ""}, &design, &error))
      << error;
  const std::pair<const char*, double> cases[] = {
      {"max-iterations", 0.0}, {"budget-bdd-nodes", -5.0}};
  for (const auto& [key, value] : cases) {
    json::Value ov = json::Value::object();
    ov.set(key, value);
    api::VerifyRequest req;
    ASSERT_TRUE(api::VerifyRequest::from_json(request_with_overrides(ov), &req,
                                              &error))
        << error;
    const std::vector<std::string> errors = req.validate();
    ASSERT_EQ(errors.size(), 1u) << key;
    EXPECT_EQ(errors[0].rfind("props[0]: ", 0), 0u) << errors[0];
    api::RunOutput out;
    EXPECT_FALSE(api::run_verify(design, req, nullptr, false, &out, &error))
        << key;
    EXPECT_NE(error.find("props[0]"), std::string::npos) << error;
    EXPECT_TRUE(out.results.empty()) << key;
  }
}

TEST(RequestCodec, TruncationFuzz) {
  // Every strict prefix of a valid request either fails to parse as JSON or
  // fails the codec — a torn socket line can never half-apply.
  const std::string text = valid_request_doc().dump();
  for (size_t len = 0; len < text.size(); ++len) {
    std::string perr;
    const json::Value doc = json::parse(text.substr(0, len), &perr);
    if (doc.is_null()) continue;  // not JSON: rejected upstream
    api::VerifyRequest out;
    std::string error;
    EXPECT_FALSE(api::VerifyRequest::from_json(doc, &out, &error))
        << "prefix of length " << len << " was accepted";
  }
}

// ---------------------------------------------------------------------------
// End-to-end over a socket

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads records until the next rfn-resp-v1 line; returns it and stashes
  /// the streamed records in `records`.
  json::Value read_response(std::vector<json::Value>* records = nullptr) {
    std::string line;
    while (read_line(&line)) {
      std::string perr;
      json::Value doc = json::parse(line, &perr);
      EXPECT_TRUE(perr.empty()) << perr << " in: " << line;
      const json::Value* type = doc.find("type");
      if (type != nullptr && type->is_string() &&
          type->as_string() == "response") {
        return doc;
      }
      if (records != nullptr) records->push_back(std::move(doc));
    }
    ADD_FAILURE() << "connection closed before a response";
    return json::Value();
  }

  json::Value transact(const json::Value& req,
                       std::vector<json::Value>* records = nullptr) {
    send_line(req.dump());
    return read_response(records);
  }

 private:
  bool read_line(std::string* out) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

const std::vector<std::string> kFifoSignals = {"bad_full_q", "bad_af_q",
                                               "bad_hf_q"};

api::VerifyRequest verify_request(const std::string& design,
                                  const std::vector<std::string>& signals) {
  api::VerifyRequest req;
  req.design.path = design;
  for (const std::string& sig : signals) {
    api::PropertySpec spec;
    spec.signal = sig;
    req.props.push_back(spec);
  }
  return req;
}

json::Value fifo_request(const std::string& id, const std::string& tenant) {
  api::VerifyRequest req = verify_request("builtin:fifo", kFifoSignals);
  req.id = id;
  req.tenant = tenant;
  return req.to_json();
}

/// `v` without its timing members ("seconds", "cpu_ms"), at any depth.
json::Value untimed(const json::Value& v) {
  if (v.is_array()) {
    json::Value a = json::Value::array();
    for (const json::Value& item : v.items()) a.push(untimed(item));
    return a;
  }
  if (!v.is_object()) return v;
  json::Value o = json::Value::object();
  for (const auto& [key, val] : v.members())
    if (key != "seconds" && key != "cpu_ms") o.set(key, untimed(val));
  return o;
}

/// The trajectory a trace-v2 stream records: its property and iteration
/// records in order, timing aside, one dump per record.
std::vector<std::string> trajectory(const std::vector<json::Value>& records) {
  std::vector<std::string> out;
  for (const json::Value& rec : records) {
    const std::string& type = rec.find("type")->as_string();
    if (type == "property" || type == "iteration")
      out.push_back(untimed(rec).dump());
  }
  return out;
}

/// The records `rfn verify DESIGN --bad S... --trace-json` writes: the cold
/// CLI run of `signals`.
std::vector<json::Value> cold_cli_records(
    const std::string& design, const std::vector<std::string>& signals) {
  const api::VerifyRequest req = verify_request(design, signals);
  api::LoadedDesign loaded;
  std::string error;
  EXPECT_TRUE(api::load_design(req.design, &loaded, &error)) << error;
  api::CollectTraceSink sink;
  api::RunOutput out;
  EXPECT_TRUE(api::run_verify(loaded, req, &sink, /*stream_properties=*/false,
                              &out, &error))
      << error;
  return sink.records();
}

double num_at(const json::Value& doc, const char* path) {
  const json::Value* v = doc.find_path(path);
  EXPECT_NE(v, nullptr) << path << " missing in " << doc.dump();
  return v != nullptr && v->is_number() ? v->as_double() : -1.0;
}

TEST(ServeEndToEnd, RepeatRequestsWalkTheColdTrajectory) {
  // The server keeps no state across requests: bad_mutex, then error_flag,
  // then bad_mutex again, each its own request on one design, walk exactly
  // the trajectories of the cold CLI runs — verdict, iterations, every
  // iteration record and the final abstraction, timing aside.
  const std::vector<json::Value> mutex_cold =
      cold_cli_records("builtin:processor", {"bad_mutex"});
  const std::vector<json::Value> flag_cold =
      cold_cli_records("builtin:processor", {"error_flag"});
  ASSERT_FALSE(mutex_cold.empty());
  ASSERT_FALSE(flag_cold.empty());
  EXPECT_EQ(num_at(mutex_cold[0], "final_abstract_regs"), 11.0);
  EXPECT_EQ(num_at(flag_cold[0], "final_abstract_regs"), 7.0);

  serve::ServerOptions opt;
  opt.tcp_port = 0;  // ephemeral
  opt.admission.mem_window_mb = 100;
  serve::Server server(opt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.tcp_port(), 0);

  Client client(server.tcp_port());
  ASSERT_TRUE(client.connected());

  // Readiness probe.
  json::Value ping = json::Value::object();
  ping.set("type", "ping");
  ping.set("id", "p");
  json::Value pong = client.transact(ping);
  EXPECT_TRUE(pong.find("ok")->as_bool());

  const std::pair<const char*, const std::vector<json::Value>*> sequence[] = {
      {"bad_mutex", &mutex_cold},
      {"error_flag", &flag_cold},
      {"bad_mutex", &mutex_cold}};
  for (size_t i = 0; i < std::size(sequence); ++i) {
    const auto& [signal, cold] = sequence[i];
    SCOPED_TRACE("request " + std::to_string(i) + " (" + signal + ")");
    api::VerifyRequest req = verify_request("builtin:processor", {signal});
    req.id = "r" + std::to_string(i);
    std::vector<json::Value> records;
    json::Value resp = client.transact(req.to_json(), &records);
    ASSERT_TRUE(resp.find("ok") != nullptr && resp.find("ok")->as_bool())
        << resp.dump();
    EXPECT_EQ(resp.find("warm_cache"), nullptr);
    EXPECT_EQ(trajectory(records), trajectory(*cold));

    // Streamed records arrive before the response: one property record,
    // its iterations and the batch summary.
    size_t props = 0, summaries = 0;
    for (const json::Value& rec : records) {
      const json::Value* type = rec.find("type");
      ASSERT_NE(type, nullptr) << rec.dump();
      props += type->as_string() == "property";
      summaries += type->as_string() == "batch-summary";
    }
    EXPECT_EQ(props, 1u);
    EXPECT_EQ(summaries, 1u);
  }

  // Admission: a request whose declared mem budget oversubscribes the
  // window is rejected by name, before any engine work.
  api::VerifyRequest big;
  big.id = "big";
  big.design.path = "builtin:fifo";
  big.options.budget_mem_mb = 200;
  json::Value rejected = client.transact(big.to_json());
  EXPECT_FALSE(rejected.find("ok")->as_bool());
  EXPECT_EQ(rejected.find("reject_reason")->as_string(), "mem-oversubscribed");

  // Malformed line: named bad-request, connection stays usable.
  client.send_line("this is not json");
  json::Value bad = client.read_response();
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("reject_reason")->as_string(), "bad-request");
  EXPECT_NE(bad.find("error")->as_string().find("invalid JSON"),
            std::string::npos);

  // A negative override count: bad-request at parse time, before any
  // engine work.
  json::Value neg = json::Value::object();
  neg.set("max-iterations", -1.0);
  json::Value nr = client.transact(request_with_overrides(neg));
  EXPECT_FALSE(nr.find("ok")->as_bool());
  EXPECT_EQ(nr.find("reject_reason")->as_string(), "bad-request");
  EXPECT_NE(nr.find("error")->as_string().find("props[0]"), std::string::npos);

  // Unknown design: load-failed names the valid builtin set.
  api::VerifyRequest ghost;
  ghost.id = "ghost";
  ghost.design.path = "builtin:ghost";
  json::Value lf = client.transact(ghost.to_json());
  EXPECT_FALSE(lf.find("ok")->as_bool());
  EXPECT_EQ(lf.find("reject_reason")->as_string(), "load-failed");
  EXPECT_NE(lf.find("error")->as_string().find("fifo"), std::string::npos);
  server.stop();
}

TEST(ServeEndToEnd, BatchSummaryMetricsAreRequestRelative) {
  // Each request's run_verify executes under a per-request MetricsScope, so
  // the batch-summary metrics block counts that request alone. Two identical
  // requests must therefore report identical run counters — before the
  // isolation the second summary included the first request's work too.
  serve::ServerOptions opt;
  opt.tcp_port = 0;
  serve::Server server(opt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.tcp_port());
  ASSERT_TRUE(client.connected());

  auto summary_counter = [](const std::vector<json::Value>& records,
                            const char* name) {
    for (const json::Value& rec : records) {
      const json::Value* type = rec.find("type");
      if (type == nullptr || type->as_string() != "batch-summary") continue;
      const json::Value* counters = rec.find_path("metrics.counters");
      EXPECT_NE(counters, nullptr) << rec.dump();
      if (counters == nullptr) return -1.0;
      const json::Value* v = counters->find(name);
      return v != nullptr && v->is_number() ? v->as_double() : 0.0;
    }
    ADD_FAILURE() << "no batch-summary record";
    return -1.0;
  };

  std::vector<json::Value> rec1, rec2;
  json::Value r1 = client.transact(fifo_request("m1", "a"), &rec1);
  ASSERT_TRUE(r1.find("ok")->as_bool()) << r1.dump();
  json::Value r2 = client.transact(fifo_request("m2", "a"), &rec2);
  ASSERT_TRUE(r2.find("ok")->as_bool()) << r2.dump();

  const double runs1 = summary_counter(rec1, "rfn.runs");
  const double runs2 = summary_counter(rec2, "rfn.runs");
  EXPECT_GT(runs1, 0.0);
  EXPECT_EQ(runs1, runs2)
      << "second request's summary leaked the first request's counters";
  server.stop();
}

TEST(ServeEndToEnd, ConcurrentSummariesStayRequestRelative) {
  // The case the old process-global registry could not keep relative: two
  // requests in flight at once on two connections. Baseline subtraction
  // against a shared registry would fold the overlapping request's work into
  // each summary; per-request registries pin each summary to its own runs.
  serve::ServerOptions opt;
  opt.tcp_port = 0;
  opt.workers = 2;
  serve::Server server(opt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client a(server.tcp_port());
  Client b(server.tcp_port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  a.send_line(fifo_request("c1", "ta").dump());
  b.send_line(fifo_request("c2", "tb").dump());

  std::vector<json::Value> rec_a, rec_b;
  json::Value ra = a.read_response(&rec_a);
  json::Value rb = b.read_response(&rec_b);
  ASSERT_TRUE(ra.find("ok")->as_bool()) << ra.dump();
  ASSERT_TRUE(rb.find("ok")->as_bool()) << rb.dump();

  auto runs_of = [](const std::vector<json::Value>& records) {
    for (const json::Value& rec : records) {
      const json::Value* type = rec.find("type");
      if (type != nullptr && type->as_string() == "batch-summary") {
        const json::Value* counters = rec.find_path("metrics.counters");
        const json::Value* v =
            counters != nullptr ? counters->find("rfn.runs") : nullptr;
        return v != nullptr && v->is_number() ? v->as_double() : 0.0;
      }
    }
    return -1.0;
  };
  const double runs_a = runs_of(rec_a);
  const double runs_b = runs_of(rec_b);
  EXPECT_GT(runs_a, 0.0);
  // Identical requests: identical per-request counts, no cross-bleed from
  // the overlapping run.
  EXPECT_EQ(runs_a, runs_b);
  server.stop();
}

TEST(ServeEndToEnd, CliAndServerAgreeThroughSharedApi) {
  // The CLI path: api::run_verify with a collecting sink, post-run emission
  // (request order) — exactly what `rfn verify --trace-json` writes.
  api::VerifyRequest req = verify_request("builtin:fifo", kFifoSignals);
  api::LoadedDesign design;
  std::string error;
  ASSERT_TRUE(api::load_design(req.design, &design, &error)) << error;
  api::CollectTraceSink cli_sink;
  api::RunOutput cli_out;
  ASSERT_TRUE(api::run_verify(design, req, &cli_sink,
                              /*stream_properties=*/false, &cli_out, &error))
      << error;

  // The server path: the same request over a socket.
  serve::ServerOptions opt;
  opt.tcp_port = 0;
  serve::Server server(opt);
  ASSERT_TRUE(server.start(&error)) << error;
  Client client(server.tcp_port());
  ASSERT_TRUE(client.connected());
  req.id = "eq";
  std::vector<json::Value> served_records;
  json::Value resp = client.transact(req.to_json(), &served_records);
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  server.stop();

  // Same verdicts per property regardless of the emission mode (the server streams in completion order; compare as maps).
  auto verdicts_of = [](const std::vector<json::Value>& records) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const json::Value& rec : records) {
      const json::Value* type = rec.find("type");
      if (type == nullptr || type->as_string() != "property") continue;
      out.emplace_back(rec.find("name")->as_string(),
                       rec.find("verdict")->as_string());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(verdicts_of(cli_sink.records()), verdicts_of(served_records));

  // And the response document agrees with the CLI's RunOutput.
  EXPECT_EQ(num_at(resp, "verdicts.T"),
            static_cast<double>(cli_out.response.holds));
  EXPECT_EQ(num_at(resp, "properties"),
            static_cast<double>(cli_out.response.properties));
  EXPECT_EQ(resp.find("design_hash")->as_string(),
            cli_out.response.design_hash);

  // Both emitted exactly one batch summary with identical verdict counts.
  auto summary_of = [](const std::vector<json::Value>& records) {
    for (const json::Value& rec : records) {
      const json::Value* type = rec.find("type");
      if (type != nullptr && type->as_string() == "batch-summary")
        return rec.find("verdicts")->dump();
    }
    return std::string();
  };
  EXPECT_EQ(summary_of(cli_sink.records()), summary_of(served_records));
  EXPECT_FALSE(summary_of(served_records).empty());
}

TEST(ServeEndToEnd, ConcurrentRequestsOnOneDesignHash) {
  // Both requests of a round are in flight before either response is read,
  // so the two workers run the same design at once (watched under TSan).
  // Nothing is shared between them: each gives the cold CLI run's verdicts,
  // iterations and final registers.
  const std::vector<std::string> cold =
      trajectory(cold_cli_records("builtin:fifo", kFifoSignals));
  ASSERT_FALSE(cold.empty());
  serve::ServerOptions opt;
  opt.tcp_port = 0;
  opt.workers = 2;
  serve::Server server(opt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client a(server.tcp_port()), b(server.tcp_port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string r = std::to_string(round);
    a.send_line(fifo_request("a" + r, "a").dump());
    b.send_line(fifo_request("b" + r, "b").dump());
    std::vector<json::Value> rec_a, rec_b;
    json::Value ra = a.read_response(&rec_a);
    json::Value rb = b.read_response(&rec_b);
    ASSERT_TRUE(ra.find("ok")->as_bool()) << ra.dump();
    ASSERT_TRUE(rb.find("ok")->as_bool()) << rb.dump();
    EXPECT_EQ(trajectory(rec_a), cold);
    EXPECT_EQ(trajectory(rec_b), cold);
  }
  EXPECT_EQ(server.served(), 6u);
  server.stop();
}

TEST(ServeEndToEnd, TwoTenantsOnTwoConnections) {
  serve::ServerOptions opt;
  opt.tcp_port = 0;
  opt.workers = 2;
  serve::Server server(opt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client a(server.tcp_port()), b(server.tcp_port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  json::Value ra = a.transact(fifo_request("a1", "a"));
  json::Value rb = b.transact(fifo_request("b1", "b"));
  EXPECT_TRUE(ra.find("ok")->as_bool());
  EXPECT_TRUE(rb.find("ok")->as_bool());
  EXPECT_EQ(server.served(), 2u);
  server.stop();
}

}  // namespace
}  // namespace rfn
