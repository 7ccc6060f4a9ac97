#pragma once
// Batch verification sessions: many unreachability properties of one design
// answered by one stateful run (the paper's industrial workload — Table 1
// verifies whole property suites on a single gate-level netlist).
//
// A VerifySession accepts a design plus a list of PropertyRequests and
// returns per-property PropertyResults. Internally it:
//
//   1. computes each property's register cone (coi_registers) and greedily
//      clusters properties whose cones overlap above a Jaccard threshold;
//   2. answers each cluster through ONE abstraction-refinement run on the
//      design extended with a disjunction root "any member fails"
//      (append_disjunction): a Holds there proves every member; a Fails is
//      attributed to the members whose bad signal the concrete error trace
//      raises (3-valued replay) and the cluster re-runs on the rest; an
//      inconclusive run falls back to independent per-property runs;
//   3. carries a cross-property ReuseCache inside each cluster — memoized
//      subcircuit extraction keyed by (roots, register set), the final BDD
//      variable order of property k seeding property k+1's first manager,
//      and the crucial registers that mattered for property k seeding
//      property k+1's initial abstraction. The cache carries *hints* only
//      (orders, refinement seeds), never verdicts, so disabling it can only
//      change wall time, not results;
//   4. schedules cluster jobs across util/executor with fair-share wall/BDD
//      budgets per property (enforced by the per-run resource watchdog), so
//      one hard property cannot starve the batch.
//
// Every run here, solo or shared, is one run_property() call (core/rfn.hpp)
// with the reuse cache wired in through RunHooks.

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
  /// fields inherit. A property with any override set is never clustered
  /// (it runs solo), so the override applies to exactly this property.
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
  /// The full run record behind the verdict. For a property answered by a
  /// cluster's shared run this describes that shared run (its iterations,
  /// budget trip, metrics baseline); wall time of the run, not of the
  /// property alone.
  RfnResult stats;
  /// Index of the cone cluster the property was grouped into.
  size_t cluster = 0;
  /// True when the verdict came from the cluster's shared disjunction run;
  /// false for solo and fallback runs.
  bool clustered = false;
  /// Reuse-cache effects: whether this run's first BDD manager was seeded
  /// with an earlier property's variable order, and how many crucial-
  /// register hints from earlier properties seeded the initial abstraction.
  bool order_seeded = false;
  size_t seeded_registers = 0;
};

struct ReuseCache;

struct SessionOptions {
  /// Baseline RfnOptions each property run starts from.
  RfnOptions defaults;
  /// Cluster two properties when the Jaccard overlap of their register
  /// cones reaches this threshold; <= 0 disables clustering (every property
  /// runs solo), > 1 can never trigger.
  double cluster_overlap = 0.5;
  /// Upper bound on properties answered by one disjunction run.
  size_t max_cluster_size = 4;
  /// Worker threads running cluster jobs concurrently (0 = inline,
  /// deterministic cluster order).
  size_t workers = 0;
  /// Whole-batch wall budget, split fair-share across properties: each
  /// cluster run gets (budget / #properties) * #members, enforced through
  /// the per-run resource watchdog, so one hard property cannot starve the
  /// batch. <= 0: no batch budget (defaults.budget_ms still applies per
  /// run).
  double batch_budget_ms = -1.0;
  /// Enables the cross-property reuse cache (subcircuit memo, variable-
  /// order seeding, crucial-register hints). Hints only — never verdicts —
  /// so this is a performance switch, not a soundness one.
  bool reuse = true;
  /// Invoked once per property, as its result is finalized (completion
  /// order, which for workers == 0 is cluster order, not request order).
  /// Runs under the session's emission mutex, so the callback itself needs
  /// no locking. This is how rfn_serve streams rfn-trace-v2 property
  /// records mid-run; null keeps the historical collect-then-report shape.
  std::function<void(const PropertyResult&)> on_property;
  /// Cross-request warm state (the server's per-design cache entry): the
  /// session reads and writes this ReuseCache instead of a per-cluster one,
  /// so SavedOrder / SubcircuitMemo survive into the next session on the
  /// same design. Honored only when workers == 0 (the memo and order are
  /// single-threaded by design); runs on augmented disjunction copies still
  /// use a cluster-local memo, whose keys would collide with a later copy's
  /// gate ids. The caller must construct every warmed session over the
  /// SAME Netlist instance.
  ReuseCache* shared_cache = nullptr;
};

/// Memoized subcircuit extraction keyed by (property roots, included
/// register set). Single-threaded by design: each cluster job owns one
/// cache; caches are never shared across executor threads.
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

/// Cross-property reuse state carried along one cluster's runs.
struct ReuseCache {
  SubcircuitMemo subcircuits;
  /// Final variable order of the previous run (original-design ids —
  /// portable across the augmented and original netlists, whose ids
  /// coincide).
  SavedOrder order;
  /// Union of crucial registers identified by refinement so far, in
  /// discovery order.
  std::vector<GateId> crucial_hints;

  /// Resident-byte estimate of the whole cache: structural estimates for
  /// the memo, order, and hints. The server's
  /// WarmStateCache charges each design entry by this figure.
  int64_t approx_bytes() const;
};

/// Greedy cone clustering (exposed for tests): walks properties in index
/// order, joining property i to the first cluster whose representative
/// (first member) cone has Jaccard overlap >= threshold, subject to
/// max_cluster_size; otherwise i starts a new cluster. `cones[i]` must be
/// sorted. `solo[i]` (optional) forces property i into its own cluster.
std::vector<std::vector<size_t>> cluster_by_cone_overlap(
    const std::vector<std::vector<GateId>>& cones, double threshold,
    size_t max_cluster_size, const std::vector<bool>& solo = {});

class VerifySession {
 public:
  /// `m` must outlive the session.
  explicit VerifySession(const Netlist& m, SessionOptions opt = {});

  /// Verifies the batch and returns one result per request, in request
  /// order. Each run's options (the defaults merged with the property's
  /// overrides) are validated by run_property, which aborts on invalid
  /// ones.
  std::vector<PropertyResult> run(const std::vector<PropertyRequest>& props);

  /// Clusters computed by the last run(): request indices per cluster.
  const std::vector<std::vector<size_t>>& clusters() const { return clusters_; }

 private:
  void run_cluster(const std::vector<PropertyRequest>& props,
                   const std::vector<std::vector<GateId>>& cones,
                   const std::vector<size_t>& members, size_t cluster_id,
                   double share_ms, std::vector<PropertyResult>& results) const;

  /// Fires SessionOptions::on_property under emit_mu_ (no-op when unset).
  void notify(const PropertyResult& r) const;

  const Netlist* m_;
  SessionOptions opt_;
  std::vector<std::vector<size_t>> clusters_;
  /// Serializes SessionOptions::on_property across cluster jobs.
  mutable std::mutex emit_mu_;
};

}  // namespace rfn
