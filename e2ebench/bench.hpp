#pragma once
// End-to-end benchmark of the RFN verifier on the paper's workloads.
//
// One process runs one workload: it builds the designs (set-up), then runs
// the whole suite a fixed number of times in a closed loop on one thread
// (inline engines, inline session). Every verdict is checked against an
// expected-result table and certified; every coverage analysis is checked
// against the expected per-set counts.
//
// The traced mode runs one untraced reference pass, then the same pass
// again with the program's own span tracer on and a fresh metrics registry
// bound, and folds what the program recorded into per-layer figures. It
// checks that the traced pass took the reference pass's trajectory.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small parameterizations of the paper designs (for the self-test).
  bool small = false;
  /// Flips one expected result, so a correct program must fail the check.
  bool inject_wrong = false;
  /// Chrome trace-event file the traced mode writes its spans to.
  std::string spans_out;
};

/// Operations attempted and failed, with a one-line reason per failure.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;

  void op(bool ok, const std::string& what) { ops(1, ok ? 0 : 1, what); }
  void ops(size_t n, size_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0) errors.push_back(what);
  }
  /// A check that is not an operation of its own (trajectory, span buffer).
  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

/// Metrics in print order: name, value, unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Spans the benchmark records around each call it makes into the program
/// (a session run, a coverage analysis, a certificate check). Kept in
/// memory and written out as Chrome trace-event JSON at exit.
class SpanLog {
 public:
  /// Runs `f` inside a span named `name` and returns its result.
  template <class F>
  auto time(const char* name, F&& f) {
    struct Closer {
      SpanLog* log;
      size_t id;
      ~Closer() { log->spans_[id].t1 = log->clock_.seconds(); }
    } closer{this, open(name)};
    return f();
  }

  /// Summed duration of the spans named `name`.
  double busy(const std::string& name) const;
  /// False on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0.0, t1 = 0.0;  // seconds since the log was created
  };
  size_t open(const char* name) {
    spans_.push_back({name, clock_.seconds(), 0.0});
    return spans_.size() - 1;
  }

  rfn::Stopwatch clock_;
  std::vector<Span> spans_;
};

/// The spans the program itself emits, folded from the process-wide span
/// tracer between start() and stop(): per span name the calls, inclusive
/// and self time, and per layer the time, calls and status annotations.
///
/// A layer is opened by one of the program's spans: the Step-2 jobs
/// bdd-reach and seq-atpg, mc.reach and bdd.reorder (reach); hybrid.walk
/// (hybrid); the
/// Step-3 job guided-atpg, concretize and atpg.seq (concretize); refine
/// (refine). A layer span nested inside another layer span belongs to the
/// outer one: refinement's own sequential-ATPG checks count as refine,
/// reordering during the hybrid walk as hybrid. A reordering outside every
/// layer — both loops build the encoder and image computer outside
/// forward_reach — counts as reach.
class ProgramSpans {
 public:
  struct Layer {
    double busy_s = 0.0;
    size_t calls = 0;
    /// Calls by their span's "status" annotation ("sat", "unsat", ...).
    std::map<std::string, size_t> status;
  };

  /// Enables the process-wide tracer with a fresh buffer.
  void start();
  /// Disables it and folds what it recorded into the totals.
  void stop();

  double self_s(const std::string& name) const;
  double inclusive_s(const std::string& name) const;
  size_t calls(const std::string& name) const;
  const Layer& layer(const std::string& name) const;
  /// Events the tracer's ring buffers overwrote (the totals then miss them).
  uint64_t dropped() const { return dropped_; }

 private:
  struct Totals {
    size_t calls = 0;
    double inclusive_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> by_name_;
  std::map<std::string, Layer> layers_;
  uint64_t dropped_ = 0;
};

/// What a traced pass observed, layer by layer.
struct Layers {
  ProgramSpans program;
  /// The program's metrics-registry counters, summed over observed calls,
  /// and the largest BDD manager it published. The coverage loop publishes
  /// no BDD manager statistics, so there these read 0.
  std::map<std::string, double> counters;
  size_t bdd_peak_nodes = 0;
  /// From RfnResult::per_iteration (session workloads). The coverage loop
  /// keeps no such records: there only `iterations` (from its result) and
  /// the concretize outcomes (from its ATPG spans) are known.
  size_t iterations = 0, trace_cycles = 0;
  size_t concretize_real = 0, concretize_spurious = 0, concretize_aborts = 0;
  size_t refine_candidates = 0, refine_kept = 0, refine_atpg_calls = 0;
  size_t cert_calls = 0, cert_refused = 0;
  size_t session_clusters = 0, session_clustered_props = 0;

  /// Runs `f` with the program's span tracer on and a fresh metrics
  /// registry bound to this thread, and adds what both recorded.
  template <class F>
  auto observe(F&& f) {
    rfn::MetricsRegistry reg;
    program.start();
    auto r = [&] {
      const rfn::MetricsScope scope(&reg);
      return f();
    }();
    program.stop();
    add(reg.snapshot());
    return r;
  }

  void add(const rfn::MetricsSnapshot& s);
  void add(const rfn::RfnIteration& it);
  double counter(const std::string& name) const;
};

/// The traced pass over one property suite: runs `props` through a fresh
/// VerifySession on `net` under Layers::observe, checks each result against
/// `ref` (same trajectory) and certifies it, timing the session ("session")
/// and each certificate check ("cert.fails_trace", "cert.holds_invariant").
/// Counts come from the per-iteration records, one per engine run
/// (clustered members share theirs).
void traced_session(const rfn::Netlist& net, const rfn::SessionOptions& so,
                    const std::vector<rfn::PropertyRequest>& props,
                    const std::vector<rfn::PropertyResult>& ref, SpanLog& log,
                    Layers& l, Tally& t);

/// The per-layer metrics of a traced pass. `loop_s` is the time of the
/// abstraction-refinement loop, which the layers divide; `reference_s` and
/// `traced_s` are the wall times of the untraced reference pass and of the
/// traced pass. Shares are of the traced pass. Fails `t` when the program's
/// span buffer overflowed (its totals would be short).
Metrics layer_metrics(const Layers& l, const SpanLog& log, double loop_s,
                      double reference_s, double traced_s, Tally& t);

/// Certifies a concluded property through api::certify_property, which
/// discharges the witness with cert::check_certificate. With a log the call
/// is timed as "cert.fails_trace" or "cert.holds_invariant" and counted in
/// `layers`. Returns the reason the verdict is not certified, or "".
std::string certify(const rfn::Netlist& net, const rfn::PropertyResult& p,
                    SpanLog* log = nullptr, Layers* layers = nullptr);

/// One operation: a verdict that must equal `expected` and be certified.
void check_verdict(Tally& t, const std::string& label, rfn::Verdict got,
                   rfn::Verdict expected, const std::string& cert_error);

double median(std::vector<double> v);
uint64_t peak_rss_bytes();

/// Deterministic permutation of `v` by `seed` (xorshift Fisher-Yates).
template <class T>
void shuffle(std::vector<T>& v, uint64_t seed) {
  uint64_t s = seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;
  for (size_t i = v.size(); i > 1; --i) {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    std::swap(v[i - 1], v[(s * 0x2545F4914F6CDD1Dull) % i]);
  }
}

/// One workload. setup() builds the designs; pass() runs the whole suite
/// once, untraced, checking every result into `t`, and returns the summed
/// final abstraction size; traced() runs an untraced reference pass and the
/// traced pass and returns the per-layer metrics. pass_s() is the nominal
/// wall time of one pass: a run makes --seconds / pass_s() passes, however
/// fast they actually go.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual size_t pass(Tally& t) = 0;
  virtual Metrics traced(Tally& t, SpanLog& log) = 0;
  virtual double pass_s() const = 0;
};

std::unique_ptr<Workload> make_table1(const Args& a);
std::unique_ptr<Workload> make_table2(const Args& a);
std::unique_ptr<Workload> make_builtin_batch(const Args& a);

}  // namespace e2e
