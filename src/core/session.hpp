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
// The one cross-run state is SessionOptions::shared_cache, rfn_serve's
// per-design warm cache: a memoized subcircuit extraction, the last run's
// BDD variable order and the crucial registers refinement chose, carried
// from one property (and one request) to the next. It carries hints only,
// never verdicts.

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/abstraction.hpp"
#include "core/rfn.hpp"
#include "netlist/netlist.hpp"
#include "netlist/subcircuit.hpp"

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
    std::optional<double> budget_ms;
    std::optional<int64_t> budget_bdd_nodes;
    std::optional<int64_t> budget_mem_mb;

    bool any() const {
      return time_limit_s || max_iterations || budget_ms ||
             budget_bdd_nodes || budget_mem_mb;
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
  /// Warm-cache effects (SessionOptions::shared_cache): whether this run's
  /// first BDD manager was seeded with an earlier run's variable order, and
  /// how many crucial-register hints from earlier runs seeded the initial
  /// abstraction.
  bool order_seeded = false;
  size_t seeded_registers = 0;

  // Unread shim for out-of-tree readers that still expect cone clustering:
  // every property runs solo, so this is always false.
  bool clustered = false;
};

struct ReuseCache;

struct SessionOptions {
  /// Baseline RfnOptions each property run starts from.
  RfnOptions defaults;
  /// Worker threads running property jobs concurrently (0 = inline, in
  /// request order).
  size_t workers = 0;
  /// Whole-batch wall budget, split fair-share across properties: each
  /// property run gets budget / #properties, enforced through the per-run
  /// resource watchdog, so one hard property cannot starve the batch.
  /// <= 0: no batch budget (defaults.budget_ms still applies per run).
  double batch_budget_ms = -1.0;
  /// Lets the runs read and write shared_cache. Hints only — never
  /// verdicts — so this is a performance switch, not a soundness one.
  bool reuse = true;
  /// Invoked once per property, as its result is finalized (completion
  /// order, which for workers == 0 is request order).
  /// Runs under the session's emission mutex, so the callback itself needs
  /// no locking. This is how rfn_serve streams rfn-trace-v2 property
  /// records mid-run; null keeps the historical collect-then-report shape.
  std::function<void(const PropertyResult&)> on_property;
  /// Cross-request warm state (the server's per-design cache entry): with
  /// `reuse` on, every run reads and writes this ReuseCache, so SavedOrder /
  /// SubcircuitMemo / crucial hints survive into the next property and the
  /// next session on the same design. Honored only when workers == 0 (the
  /// memo and order are single-threaded by design). The caller must
  /// construct every warmed session over the SAME Netlist instance. Null:
  /// every run starts cold.
  ReuseCache* shared_cache = nullptr;

  // Unread shims for out-of-tree callers that still set the removed cone-
  // clustering knobs: every property runs solo whatever they hold.
  double cluster_overlap = 0.5;
  size_t max_cluster_size = 4;
};

/// Memoized subcircuit extraction keyed by (property roots, included
/// register set). Single-threaded by design: only an inline session
/// (workers == 0) touches one, so it is never shared across executor
/// threads.
class SubcircuitMemo {
 public:
  /// Returns the memoized extraction for (roots, included) or runs
  /// extract_abstract_model and stores it. `included` must be sorted.
  std::shared_ptr<const Subcircuit> get(const Netlist& m,
                                        const std::vector<GateId>& roots,
                                        const std::vector<GateId>& included);

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

  /// Resident-byte estimate of the memoized subcircuits (each netlist's
  /// Netlist::heap_bytes() plus the id maps and keys). Feeds the
  /// server's warm-state byte budget; exactness is not required there, only
  /// monotonicity in the cached volume.
  int64_t approx_bytes() const;

 private:
  std::unordered_map<std::string, std::shared_ptr<const Subcircuit>> map_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

/// Cross-run reuse state: rfn_serve's per-design warm cache.
struct ReuseCache {
  SubcircuitMemo subcircuits;
  /// Final variable order of the previous run (original-design ids).
  SavedOrder order;
  /// Union of crucial registers identified by refinement so far, in
  /// discovery order.
  std::vector<GateId> crucial_hints;

  /// Resident-byte estimate of the whole cache: structural estimates for
  /// the memo, order, and hints. The server's
  /// WarmStateCache charges each design entry by this figure.
  int64_t approx_bytes() const;
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
