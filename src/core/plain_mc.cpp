#include "core/plain_mc.hpp"

#include "mc/image.hpp"
#include "netlist/subcircuit.hpp"
#include "util/stopwatch.hpp"

namespace rfn {

PlainMcResult plain_model_check(const Netlist& m, GateId bad, const PlainMcOptions& opt) {
  PlainMcResult res;
  const Stopwatch watch;

  const Subcircuit sub = coi_reduce(m, {bad});
  res.coi_regs = sub.net.num_regs();

  // The whole run — including transition-relation construction, which is
  // where plain MC typically dies on big designs — obeys the time limit and
  // the node cap, so "failed to verify" (the paper's outcome for all five
  // properties) is reported within the limit rather than hanging. The token
  // outlives the manager that polls it.
  const CancelToken token(opt.time_limit_s);
  BddMgr mgr;
  Encoder enc(mgr, sub.net);
  mgr.set_auto_reorder(true);
  mgr.set_node_budget(opt.node_cap);
  mgr.set_cancel(&token);
  ImageComputer img(enc);
  const GateId bad_new = sub.to_new(bad);
  const Bdd bad_set = mgr.exists(enc.signal_fn(bad_new), enc.input_vars());
  if (img.aborted() || bad_set.is_null()) {
    res.verdict = Verdict::Unknown;
    res.reach_status = ReachStatus::ResourceOut;
    res.seconds = watch.seconds();
    return res;
  }

  ReachOptions reach_opt;
  reach_opt.cancel = &token;
  const ReachResult reach = forward_reach(img, enc.initial_states(), bad_set, reach_opt);
  res.reach_status = reach.status;
  res.steps = reach.steps;
  switch (reach.status) {
    case ReachStatus::Proved: res.verdict = Verdict::Holds; break;
    case ReachStatus::BadReachable: res.verdict = Verdict::Fails; break;
    case ReachStatus::ResourceOut: res.verdict = Verdict::Unknown; break;
  }
  res.seconds = watch.seconds();
  return res;
}

}  // namespace rfn
