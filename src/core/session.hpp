#pragma once
// Batch verification sessions: many unreachability properties of one design
// answered in one call (the paper's industrial workload — Table 1 verifies
// whole property suites on a single gate-level netlist, each property on its
// own).
//
// A VerifySession accepts a design plus a list of PropertyRequests and
// returns per-property PropertyResults. Every property is one run_property()
// call (core/rfn.hpp) under the session defaults merged with its overrides,
// and one executor job: with SessionOptions::workers > 0 the jobs run
// concurrently, each on its own abstraction, so the results do not depend
// on completion order. A whole-batch wall budget is split fair-share across
// the properties (enforced by the per-run resource watchdog), so one hard
// property cannot starve the batch.
//
// A session keeps no state across runs: each property starts from its own
// initial abstraction, so its trajectory is that of a lone run_property()
// call, whatever ran before it in this session or this process.

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/rfn.hpp"
#include "netlist/netlist.hpp"

namespace rfn {

/// One unreachability obligation handed to a VerifySession: "`bad` never
/// rises on any trace of the session's design".
struct PropertyRequest {
  /// Label used in results, the batch trace, and logs. Empty: the signal's
  /// design name, or "p<index>" when the signal is unnamed.
  std::string name;
  /// Property signal of the session's design.
  GateId bad = kNullGate;
  /// Per-property overrides on top of SessionOptions::defaults; unset
  /// fields inherit.
  struct Overrides {
    std::optional<double> time_limit_s;
    std::optional<size_t> max_iterations;
    std::optional<int64_t> budget_bdd_nodes;
    std::optional<int64_t> budget_mem_mb;

    bool any() const {
      return time_limit_s || max_iterations || budget_bdd_nodes ||
             budget_mem_mb;
    }
  } overrides;
};

/// The options a property with overrides `o` runs under: `defaults` with
/// every set override applied. The session and the request validator
/// (api::VerifyRequest::validate) both merge through this.
RfnOptions merge_overrides(const RfnOptions& defaults,
                           const PropertyRequest::Overrides& o);

/// Per-property outcome of a session run.
struct PropertyResult {
  std::string name;
  GateId bad = kNullGate;
  Verdict verdict = Verdict::Unknown;
  /// Error trace on the session's design (Fails only).
  Trace trace;
  /// The property's own run record behind the verdict.
  RfnResult stats;

  // Unread shim for out-of-tree readers that still expect cone clustering:
  // every property runs solo, so this is always false.
  bool clustered = false;
};

struct SessionOptions {
  /// Baseline RfnOptions each property run starts from.
  RfnOptions defaults;
  /// Worker threads running property jobs concurrently (0 = inline, in
  /// request order).
  size_t workers = 0;
  /// Whole-batch wall budget, split fair-share across properties: each
  /// property run's time limit is tightened to budget / #properties, so one
  /// hard property cannot starve the batch. <= 0: no batch budget
  /// (defaults.time_limit_s still applies per run).
  double batch_budget_ms = -1.0;
  /// Invoked once per property, as its result is finalized (completion
  /// order, which for workers == 0 is request order).
  /// Runs under the session's emission mutex, so the callback itself needs
  /// no locking. This is how rfn_serve streams rfn-trace-v2 property
  /// records mid-run; null keeps the historical collect-then-report shape.
  std::function<void(const PropertyResult&)> on_property;

  // Unread shims for out-of-tree callers that still set the removed cone-
  // clustering knobs and the removed warm-state switch: every property runs
  // solo and cold whatever they hold.
  double cluster_overlap = 0.5;
  size_t max_cluster_size = 4;
  bool reuse = true;
};

class VerifySession {
 public:
  /// `m` must outlive the session.
  explicit VerifySession(const Netlist& m, SessionOptions opt = {});

  /// Verifies the batch and returns one result per request, in request
  /// order. Each run's options (the defaults merged with the property's
  /// overrides) are validated by run_property, which aborts on invalid
  /// ones.
  std::vector<PropertyResult> run(const std::vector<PropertyRequest>& props);

  // Unread shim for out-of-tree callers that still expect cone clustering:
  // one singleton {i} per property of the last run().
  std::vector<std::vector<size_t>> clusters() const;

 private:
  /// Answers `p` with one run_property() call into `out`, then notifies.
  void run_one(const PropertyRequest& p, double share_ms,
               PropertyResult& out) const;

  const Netlist* m_;
  SessionOptions opt_;
  size_t last_batch_ = 0;
  /// Serializes SessionOptions::on_property across property jobs.
  mutable std::mutex emit_mu_;
};

}  // namespace rfn
