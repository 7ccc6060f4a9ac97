#include "core/session.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "netlist/analysis.hpp"
#include "sim/sim3.hpp"
#include "util/executor.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace rfn {

// ---------------------------------------------------------------------------
// SubcircuitMemo

std::shared_ptr<const Subcircuit> SubcircuitMemo::get(
    const Netlist& m, const std::vector<GateId>& roots,
    const std::vector<GateId>& included) {
  std::string key;
  key.reserve((roots.size() + included.size() + 1) * sizeof(GateId));
  const auto push_ids = [&key](const std::vector<GateId>& ids) {
    key.append(reinterpret_cast<const char*>(ids.data()),
               ids.size() * sizeof(GateId));
  };
  push_ids(roots);
  key.push_back('\0');  // sizeof(GateId) has no 1-byte representation: safe separator
  push_ids(included);

  MetricsRegistry& reg = MetricsRegistry::global();
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++hits_;
    reg.counter("session.subcircuit_memo.hits").add(1);
    return it->second;
  }
  ++misses_;
  reg.counter("session.subcircuit_memo.misses").add(1);
  // Bound the cache: a long refinement run visits a fresh register set every
  // iteration and would otherwise retain every abstract model it ever built.
  // Dropping everything is crude but keeps the memo O(1)-bounded while still
  // serving the cross-property case (repeated identical extractions land
  // well under the cap).
  if (map_.size() >= 16) map_.clear();
  auto sub = std::make_shared<Subcircuit>(extract_abstract_model(m, roots, included));
  map_.emplace(std::move(key), sub);
  return sub;
}

int64_t SubcircuitMemo::approx_bytes() const {
  // Each memoized Subcircuit owns a netlist plus two id maps sized by the
  // ORIGINAL design.
  int64_t total = 0;
  for (const auto& [key, sub] : map_) {
    total += static_cast<int64_t>(key.size());
    total += static_cast<int64_t>(sub->net.heap_bytes());
    total += static_cast<int64_t>(sub->old_of_new.size()) * sizeof(GateId) * 2;
  }
  return total;
}

// ---------------------------------------------------------------------------
// ReuseCache

int64_t ReuseCache::approx_bytes() const {
  return subcircuits.approx_bytes() +
         static_cast<int64_t>(order.tokens.size() * sizeof(SavedOrder::Token)) +
         static_cast<int64_t>(crucial_hints.size() * sizeof(GateId));
}

// ---------------------------------------------------------------------------
// Clustering

std::vector<std::vector<size_t>> cluster_by_cone_overlap(
    const std::vector<std::vector<GateId>>& cones, double threshold,
    size_t max_cluster_size, const std::vector<bool>& solo) {
  std::vector<std::vector<size_t>> clusters;
  if (max_cluster_size == 0) max_cluster_size = 1;
  for (size_t i = 0; i < cones.size(); ++i) {
    const bool force_solo =
        threshold <= 0.0 || (i < solo.size() && solo[i]);
    bool placed = false;
    if (!force_solo) {
      for (auto& cluster : clusters) {
        if (cluster.size() >= max_cluster_size) continue;
        const size_t rep = cluster.front();
        if (rep < solo.size() && solo[rep]) continue;
        if (jaccard_overlap(cones[rep], cones[i]) >= threshold) {
          cluster.push_back(i);
          placed = true;
          break;
        }
      }
    }
    if (!placed) clusters.push_back({i});
  }
  return clusters;
}

// ---------------------------------------------------------------------------
// VerifySession

RfnOptions merge_overrides(const RfnOptions& defaults,
                           const PropertyRequest::Overrides& o) {
  RfnOptions r = defaults;
  if (o.time_limit_s) r.time_limit_s = *o.time_limit_s;
  if (o.max_iterations) r.max_iterations = *o.max_iterations;
  if (o.budget_ms) r.budget_ms = *o.budget_ms;
  if (o.budget_bdd_nodes) r.budget_bdd_nodes = *o.budget_bdd_nodes;
  if (o.budget_mem_mb) r.budget_mem_mb = *o.budget_mem_mb;
  return r;
}

namespace {

/// Applies the fair-share wall budget for a run answering `props_covered`
/// properties: the run may never exceed its members' combined share (an
/// explicit per-run budget can only tighten it further).
void apply_fair_share(RfnOptions& opt, double share_ms, size_t props_covered) {
  if (share_ms <= 0.0) return;
  const double run_budget = share_ms * static_cast<double>(props_covered);
  opt.budget_ms = opt.budget_ms > 0.0 ? std::min(opt.budget_ms, run_budget)
                                      : run_budget;
}

}  // namespace

VerifySession::VerifySession(const Netlist& m, SessionOptions opt)
    : m_(&m), opt_(std::move(opt)) {}

void VerifySession::notify(const PropertyResult& r) const {
  if (!opt_.on_property) return;
  std::lock_guard<std::mutex> lk(emit_mu_);
  opt_.on_property(r);
}

void VerifySession::run_cluster(const std::vector<PropertyRequest>& props,
                                const std::vector<std::vector<GateId>>& cones,
                                const std::vector<size_t>& members,
                                size_t cluster_id, double share_ms,
                                std::vector<PropertyResult>& results) const {
  // Cluster-local state, plus — when the caller provided a cross-session
  // warm cache and the session runs inline — the shared base cache. The
  // workers == 0 restriction is load-bearing: memo and order are
  // single-threaded by design, and concurrent cluster jobs would race on
  // them.
  ReuseCache local;
  ReuseCache* base_cache = (opt_.shared_cache != nullptr && opt_.workers == 0)
                               ? opt_.shared_cache
                               : &local;

  // One engine run with the reuse cache wired in. `cone` filters the
  // crucial-register hints down to registers that can actually influence
  // this run's property (seeding anything else would only bloat the
  // abstraction).
  const auto run_one = [&](const Netlist& net, GateId bad_sig,
                           const RfnOptions& ro,
                           const std::vector<GateId>& cone,
                           bool* order_seeded, size_t* seeded) -> RfnResult {
    RunHooks hooks;
    std::vector<GateId> seeds;
    if (opt_.reuse) {
      // The memo must match the netlist the run sees: its keys reuse gate
      // ids, so entries for an augmented disjunction copy would collide
      // with a later copy's coincident ids. So only base-netlist runs touch the possibly-shared base
      // cache; the order and hints are original-design ids, portable across
      // both netlists, and always shared.
      ReuseCache& structural = &net == m_ ? *base_cache : local;
      for (GateId r : base_cache->crucial_hints)
        if (std::binary_search(cone.begin(), cone.end(), r)) seeds.push_back(r);
      hooks.subcircuits = &structural.subcircuits;
      hooks.order_io = &base_cache->order;
      hooks.order_seeded = order_seeded;
      hooks.seed_registers = &seeds;
      hooks.crucial_out = &base_cache->crucial_hints;
    }
    if (seeded != nullptr) *seeded = seeds.size();
    return run_property(net, bad_sig, ro, hooks);
  };

  const auto run_solo = [&](size_t idx, size_t fair_share_props) {
    const PropertyRequest& p = props[idx];
    RfnOptions ro = merge_overrides(opt_.defaults, p.overrides);
    apply_fair_share(ro, share_ms, fair_share_props);
    PropertyResult& out = results[idx];
    out.cluster = cluster_id;
    out.clustered = false;
    RfnResult rr = run_one(*m_, p.bad, ro, cones[idx], &out.order_seeded,
                           &out.seeded_registers);
    out.verdict = rr.verdict;
    out.trace = rr.error_trace;
    out.stats = std::move(rr);
    notify(out);
  };

  if (members.size() == 1) {
    run_solo(members.front(), 1);
    return;
  }

  // Shared run: one disjunction root answers the whole cluster at once. The
  // augmented design is a copy of the original plus OR gates above the
  // member properties, so every original GateId — and with it traces, cones,
  // hints, and saved variable orders — stays valid on both.
  Netlist aug = *m_;
  std::vector<size_t> remaining = members;
  // Cluster runs never carry per-property overrides (such properties are
  // forced solo by the clustering), so the shared run uses the defaults.
  for (size_t round = 0; !remaining.empty(); ++round) {
    // The union cone bounds which hint registers a shared run may seed.
    std::vector<GateId> union_cone;
    std::vector<GateId> bads;
    for (size_t idx : remaining) {
      bads.push_back(props[idx].bad);
      union_cone.insert(union_cone.end(), cones[idx].begin(), cones[idx].end());
    }
    std::sort(union_cone.begin(), union_cone.end());
    union_cone.erase(std::unique(union_cone.begin(), union_cone.end()),
                     union_cone.end());
    const GateId bad_any = append_disjunction(
        aug, bads,
        "session_any_c" + std::to_string(cluster_id) + "_r" + std::to_string(round));

    RfnOptions ro = opt_.defaults;
    apply_fair_share(ro, share_ms, remaining.size());
    bool order_seeded = false;
    size_t seeded = 0;
    RfnResult rr = run_one(aug, bad_any, ro, union_cone, &order_seeded, &seeded);
    MetricsRegistry::global().counter("session.cluster_runs").add(1);

    if (rr.verdict == Verdict::Holds) {
      // The disjunction never rises, so no member ever rises.
      for (size_t idx : remaining) {
        PropertyResult& out = results[idx];
        out.verdict = Verdict::Holds;
        out.stats = rr;
        out.cluster = cluster_id;
        out.clustered = true;
        out.order_seeded = order_seeded;
        out.seeded_registers = seeded;
        notify(out);
      }
      return;
    }

    if (rr.verdict == Verdict::Fails) {
      // Attribute the concrete error trace: a member fails iff its own bad
      // signal is a definite 1 at the trace's final cycle under 3-valued
      // replay (at least one must be — the disjunction is).
      std::vector<size_t> keep;
      size_t attributed = 0;
      for (size_t idx : remaining) {
        if (simulate_trace(aug, rr.error_trace, props[idx].bad) == Tri::T) {
          PropertyResult& out = results[idx];
          out.verdict = Verdict::Fails;
          out.trace = rr.error_trace;
          out.stats = rr;
          out.cluster = cluster_id;
          out.clustered = true;
          out.order_seeded = order_seeded;
          out.seeded_registers = seeded;
          notify(out);
          ++attributed;
        } else {
          keep.push_back(idx);
        }
      }
      if (attributed == 0) {
        // Replay could not pin the failure on any member (an X-heavy trace);
        // the shared run is inconclusive for attribution — answer the rest
        // independently rather than loop forever.
        RFN_WARN("cluster %zu: error trace attribution failed; falling back",
                 cluster_id);
        break;
      }
      remaining = std::move(keep);
      // The survivors re-run on a fresh disjunction (minus the failed
      // members), inheriting the cache the failed run warmed up.
      continue;
    }

    // Unknown / ResourceOut: the shared run could not answer the cluster;
    // fall back to independent per-property runs (still cache-warmed).
    break;
  }

  MetricsRegistry::global().counter("session.cluster_fallbacks").add(!remaining.empty());
  for (size_t idx : remaining) run_solo(idx, 1);
}

std::vector<PropertyResult> VerifySession::run(
    const std::vector<PropertyRequest>& props) {
  std::vector<PropertyResult> results(props.size());
  clusters_.clear();
  if (props.empty()) return results;

  Span span("session.run");
  const Stopwatch watch;

  // Resolve names and register cones; properties carrying overrides are
  // pinned solo so the override applies to exactly one run.
  std::vector<std::vector<GateId>> cones(props.size());
  std::vector<bool> solo(props.size(), false);
  for (size_t i = 0; i < props.size(); ++i) {
    const PropertyRequest& p = props[i];
    RFN_CHECK(p.bad != kNullGate && p.bad < m_->size(),
              "property %zu: bad signal out of range", i);
    results[i].bad = p.bad;
    results[i].name = !p.name.empty()        ? p.name
                      : m_->has_name(p.bad)  ? m_->name(p.bad)
                                             : "p" + std::to_string(i);
    cones[i] = coi_registers(*m_, {p.bad});
    std::sort(cones[i].begin(), cones[i].end());
    solo[i] = p.overrides.any();
  }

  clusters_ = cluster_by_cone_overlap(cones, opt_.cluster_overlap,
                                      opt_.max_cluster_size, solo);
  const double share_ms =
      opt_.batch_budget_ms > 0.0
          ? opt_.batch_budget_ms / static_cast<double>(props.size())
          : -1.0;
  RFN_INFO("session: %zu properties in %zu clusters (overlap >= %.2f)",
           props.size(), clusters_.size(), opt_.cluster_overlap);

  // Cluster jobs across the shared executor. Each job writes only its own
  // members' result slots, so the vector needs no locking; the latch below
  // is the completion barrier (inline execution with zero workers).
  Executor exec(opt_.workers);
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = clusters_.size();
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    exec.submit([&, ci] {
      Span job_span("session.cluster");
      job_span.annotate("cluster", static_cast<double>(ci));
      run_cluster(props, cones, clusters_[ci], ci, share_ms, results);
      std::lock_guard<std::mutex> lk(mu);
      if (--pending == 0) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return pending == 0; });
  }

  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("session.batches").add(1);
  reg.counter("session.properties").add(props.size());
  reg.counter("session.clusters").add(clusters_.size());
  for (const PropertyResult& r : results) {
    reg.counter("session.clustered_verdicts").add(r.clustered ? 1 : 0);
    reg.counter("session.order_seeded").add(r.order_seeded ? 1 : 0);
    reg.counter("session.seeded_registers").add(r.seeded_registers);
  }
  reg.timer("session.run").record(watch.seconds());
  span.annotate("properties", static_cast<double>(props.size()));
  span.annotate("clusters", static_cast<double>(clusters_.size()));
  return results;
}

}  // namespace rfn
