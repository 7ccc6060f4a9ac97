#include "core/bfs_baseline.hpp"

#include <algorithm>

#include "mc/image.hpp"
#include "netlist/analysis.hpp"
#include "netlist/subcircuit.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace rfn {

BfsBaselineResult bfs_coverage_analysis(const Netlist& m,
                                        const std::vector<GateId>& coverage_regs,
                                        const BfsBaselineOptions& opt) {
  BfsBaselineResult res;
  const Stopwatch watch;
  res.total_states = size_t{1} << coverage_regs.size();

  // The coverage registers themselves plus the closest registers to their
  // next-state logic, up to the size budget.
  std::vector<GateId> included(coverage_regs.begin(), coverage_regs.end());
  std::vector<GateId> bfs_roots;
  for (GateId r : coverage_regs) bfs_roots.push_back(m.reg_data(r));
  for (GateId r : closest_registers(m, bfs_roots, opt.num_registers)) {
    if (included.size() >= opt.num_registers) break;
    if (std::find(included.begin(), included.end(), r) == included.end())
      included.push_back(r);
  }
  const std::vector<GateId> roots(coverage_regs.begin(), coverage_regs.end());
  const Subcircuit sub = extract_abstract_model(TopoIndex(m), roots, included);
  res.abstract_regs = sub.net.num_regs();

  // The token outlives the manager that polls it.
  const CancelToken token(opt.time_limit_s);
  BddMgr mgr;
  Encoder enc(mgr, sub.net);
  mgr.set_auto_reorder(true);
  mgr.set_node_budget(kDefaultNodeBudget);
  mgr.set_cancel(&token);
  ImageComputer img(enc);
  ReachOptions reach_opt;
  reach_opt.cancel = &token;
  const ReachResult reach =
      forward_reach(img, enc.initial_states(), mgr.bdd_false(), reach_opt);
  res.reach_status = reach.status;
  if (reach.status != ReachStatus::Proved) {
    res.seconds = watch.seconds();
    return res;  // fixpoint incomplete: nothing can be classified soundly
  }

  std::vector<BddVar> cov_vars, non_cov;
  for (GateId r : coverage_regs) cov_vars.push_back(enc.state_var(sub.to_new(r)));
  for (BddVar v : enc.state_vars())
    if (std::find(cov_vars.begin(), cov_vars.end(), v) == cov_vars.end())
      non_cov.push_back(v);
  const Bdd projected = mgr.exists(reach.reached, non_cov);
  if (projected.is_null()) {  // cancelled or refused: classify nothing
    res.reach_status = ReachStatus::ResourceOut;
    res.seconds = watch.seconds();
    return res;
  }

  std::vector<bool> assign(mgr.num_vars(), false);
  for (size_t s = 0; s < res.total_states; ++s) {
    for (size_t i = 0; i < cov_vars.size(); ++i) assign[cov_vars[i]] = (s >> i) & 1;
    if (!mgr.eval(projected, assign)) ++res.unreachable;
  }
  res.seconds = watch.seconds();
  return res;
}

}  // namespace rfn
