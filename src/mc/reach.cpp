#include "mc/reach.hpp"

#include "core/status.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace rfn {

namespace {

/// Flushes one fixpoint's outcome into the registry ("mc.reach.*").
void record_reach_metrics(const ReachResult& res) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("mc.reach.calls").add(1);
  m.counter("mc.reach.image_steps").add(res.steps);
  m.timer("mc.reach").record(res.seconds);
  switch (res.status) {
    case ReachStatus::Proved: m.counter("mc.reach.proved").add(1); break;
    case ReachStatus::BadReachable: m.counter("mc.reach.bad_reachable").add(1); break;
    case ReachStatus::ResourceOut: m.counter("mc.reach.resource_out").add(1); break;
  }
}

}  // namespace

namespace {

ReachResult forward_reach_impl(ImageComputer& img, const Bdd& init, const Bdd& bad,
                               const ReachOptions& opt) {
  BddMgr& mgr = img.encoder().mgr();
  ReachResult res;
  if (img.aborted() || init.is_null() || bad.is_null()) {
    res.status = ReachStatus::ResourceOut;
    return res;
  }
  res.rings.push_back(init);
  res.reached = init;

  // A null conjunction is an abandoned operation (node cap or token), never
  // a hit: it ends the fixpoint as ResourceOut.
  const Bdd init_hit = init & bad;
  if (init_hit.is_null()) return res;
  if (!init_hit.is_false()) {
    res.status = ReachStatus::BadReachable;
    return res;
  }

  Bdd frontier = init;
  while (res.steps < opt.max_steps) {
    if (should_stop(opt.cancel)) return res;
    const Bdd img_states = img.post_image(frontier);
    const Bdd fresh = img_states.diff(res.reached);
    if (fresh.is_null()) return res;  // abandoned mid-step
    ++res.steps;
    if (fresh.is_false()) {
      res.status = ReachStatus::Proved;
      return res;
    }
    res.reached |= fresh;
    if (res.reached.is_null()) return res;
    res.rings.push_back(fresh);
    RFN_DEBUG("reach step %zu: reached nodes=%zu mgr=%zu", res.steps,
              mgr.node_count(res.reached), mgr.live_nodes());
    const Bdd hit = fresh & bad;
    if (hit.is_null()) return res;
    if (!hit.is_false()) {
      res.status = ReachStatus::BadReachable;
      return res;
    }
    frontier = fresh;
  }
  return res;
}

}  // namespace

ReachResult forward_reach(ImageComputer& img, const Bdd& init, const Bdd& bad,
                          const ReachOptions& opt) {
  Span span("mc.reach");
  const Stopwatch watch;
  ReachResult res = forward_reach_impl(img, init, bad, opt);
  res.seconds = watch.seconds();
  span.annotate("status", to_string(res.status));
  record_reach_metrics(res);
  return res;
}

}  // namespace rfn
