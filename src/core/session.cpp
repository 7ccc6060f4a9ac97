#include "core/session.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "netlist/analysis.hpp"
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

VerifySession::VerifySession(const Netlist& m, SessionOptions opt)
    : m_(&m), opt_(std::move(opt)) {}

std::vector<std::vector<size_t>> VerifySession::clusters() const {
  std::vector<std::vector<size_t>> singletons(last_batch_);
  for (size_t i = 0; i < last_batch_; ++i) singletons[i] = {i};
  return singletons;
}

void VerifySession::run_one(const PropertyRequest& p, double share_ms,
                            PropertyResult& out) const {
  RfnOptions ro = merge_overrides(opt_.defaults, p.overrides);
  // The fair share may only tighten an explicit per-run budget.
  if (share_ms > 0.0)
    ro.budget_ms = ro.budget_ms > 0.0 ? std::min(ro.budget_ms, share_ms) : share_ms;

  // The warm cache is single-threaded, so only an inline session uses it.
  ReuseCache* cache = opt_.reuse && opt_.workers == 0 ? opt_.shared_cache : nullptr;
  RunHooks hooks;
  std::vector<GateId> seeds;
  if (cache != nullptr) {
    // Seed only the crucial-register hints that can influence this property
    // (anything else would only bloat the abstraction).
    std::vector<GateId> cone = coi_registers(*m_, {p.bad});
    std::sort(cone.begin(), cone.end());
    for (GateId r : cache->crucial_hints)
      if (std::binary_search(cone.begin(), cone.end(), r)) seeds.push_back(r);
    hooks.subcircuits = &cache->subcircuits;
    hooks.order_io = &cache->order;
    hooks.order_seeded = &out.order_seeded;
    hooks.seed_registers = &seeds;
    hooks.crucial_out = &cache->crucial_hints;
  }
  out.seeded_registers = seeds.size();
  RfnResult rr = run_property(*m_, p.bad, ro, hooks);
  out.verdict = rr.verdict;
  out.trace = rr.error_trace;
  out.stats = std::move(rr);
  if (!opt_.on_property) return;
  std::lock_guard<std::mutex> lk(emit_mu_);
  opt_.on_property(out);
}

std::vector<PropertyResult> VerifySession::run(
    const std::vector<PropertyRequest>& props) {
  std::vector<PropertyResult> results(props.size());
  last_batch_ = props.size();
  if (props.empty()) return results;

  Span span("session.run");
  const Stopwatch watch;
  for (size_t i = 0; i < props.size(); ++i) {
    const PropertyRequest& p = props[i];
    RFN_CHECK(p.bad != kNullGate && p.bad < m_->size(),
              "property %zu: bad signal out of range", i);
    results[i].bad = p.bad;
    results[i].name = !p.name.empty()        ? p.name
                      : m_->has_name(p.bad)  ? m_->name(p.bad)
                                             : "p" + std::to_string(i);
  }
  const double share_ms =
      opt_.batch_budget_ms > 0.0
          ? opt_.batch_budget_ms / static_cast<double>(props.size())
          : -1.0;
  RFN_INFO("session: %zu properties", props.size());

  // One job per property across the executor. Each job writes only its own
  // result slot, so the vector needs no locking; the latch below is the
  // completion barrier (inline execution with zero workers).
  Executor exec(opt_.workers);
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = props.size();
  for (size_t i = 0; i < props.size(); ++i) {
    exec.submit([&, i] {
      Span job_span("session.property");
      job_span.annotate("property", static_cast<double>(i));
      run_one(props[i], share_ms, results[i]);
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
  for (const PropertyResult& r : results) {
    reg.counter("session.order_seeded").add(r.order_seeded ? 1 : 0);
    reg.counter("session.seeded_registers").add(r.seeded_registers);
  }
  reg.timer("session.run").record(watch.seconds());
  span.annotate("properties", static_cast<double>(props.size()));
  return results;
}

}  // namespace rfn
