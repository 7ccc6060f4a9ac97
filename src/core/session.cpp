#include "core/session.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "util/executor.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace rfn {

// ---------------------------------------------------------------------------
// VerifySession

RfnOptions merge_overrides(const RfnOptions& defaults,
                           const PropertyRequest::Overrides& o) {
  RfnOptions r = defaults;
  if (o.time_limit_s) r.time_limit_s = *o.time_limit_s;
  if (o.max_iterations) r.max_iterations = *o.max_iterations;
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
  // The fair share may only tighten an explicit per-run time limit.
  if (share_ms > 0.0) {
    const double share_s = share_ms * 1e-3;
    ro.time_limit_s =
        ro.time_limit_s < 0.0 ? share_s : std::min(ro.time_limit_s, share_s);
  }

  RfnResult rr = run_property(*m_, p.bad, ro);
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
  reg.timer("session.run").record(watch.seconds());
  span.annotate("properties", static_cast<double>(props.size()));
  return results;
}

}  // namespace rfn
