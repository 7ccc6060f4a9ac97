#include "core/trace_json.hpp"

#include "util/metrics.hpp"
#include "util/prof.hpp"

namespace rfn {

json::Value iteration_json(const std::string& property, size_t index,
                           const RfnIteration& it) {
  using json::Value;
  Value o = Value::object();
  o.set("type", "iteration");
  o.set("property", property);
  o.set("iter", index);

  Value abstraction = Value::object();
  abstraction.set("regs", it.abstract_regs);
  abstraction.set("inputs", it.abstract_inputs);
  abstraction.set("gates", it.abstract_gates);
  o.set("abstraction", std::move(abstraction));

  Value reach = Value::object();
  reach.set("status", to_string(it.reach_status));
  reach.set("steps", it.reach_steps);
  reach.set("seconds", it.reach_seconds);
  o.set("reach", std::move(reach));

  Value bdd = Value::object();
  bdd.set("peak_nodes", it.bdd_peak_nodes);
  bdd.set("cache_lookups", it.bdd_cache_lookups);
  bdd.set("cache_hits", it.bdd_cache_hits);
  bdd.set("cache_hit_rate",
          it.bdd_cache_lookups == 0
              ? 0.0
              : static_cast<double>(it.bdd_cache_hits) /
                    static_cast<double>(it.bdd_cache_lookups));
  bdd.set("reorderings", it.bdd_reorderings);
  o.set("bdd", std::move(bdd));

  Value hybrid = Value::object();
  hybrid.set("nocut_cubes", it.hybrid.nocut_cubes);
  hybrid.set("mincut_cubes", it.hybrid.mincut_cubes);
  hybrid.set("atpg_calls", it.hybrid.atpg_calls);
  hybrid.set("atpg_rejects", it.hybrid.atpg_rejects);
  o.set("hybrid", std::move(hybrid));

  o.set("trace_cycles", it.trace_cycles);

  Value conc = Value::object();
  conc.set("status", it.trace_cycles == 0 ? "none" : to_string(it.concretize_status));
  conc.set("seconds", it.concretize_seconds);
  o.set("concretize", std::move(conc));

  Value refine = Value::object();
  refine.set("conflict_candidates", it.refine.conflict_candidates);
  refine.set("fallback_candidates", it.refine.fallback_candidates);
  refine.set("added_until_unsat", it.refine.added_until_unsat);
  refine.set("removed_by_greedy", it.refine.removed_by_greedy);
  refine.set("final_count", it.refine.final_count);
  refine.set("atpg_calls", it.refine.atpg_calls);
  refine.set("trace_invalidated", it.refine.trace_invalidated);
  o.set("refine", std::move(refine));

  o.set("seconds", it.seconds);
  return o;
}

json::Value property_json(const PropertyResult& r) {
  using json::Value;
  Value o = Value::object();
  o.set("type", "property");
  o.set("name", r.name);
  o.set("bad", static_cast<size_t>(r.bad));
  o.set("verdict", to_string(r.verdict));
  o.set("iterations", r.stats.iterations);
  o.set("final_abstract_regs", r.stats.final_abstract_regs);
  o.set("error_trace_cycles", r.trace.cycles());
  o.set("seconds", r.stats.seconds);
  o.set("cpu_ms", r.stats.cpu_seconds * 1e3);
  o.set("note", r.stats.note);
  if (r.stats.budget_trip.tripped) {
    Value trip = Value::object();
    trip.set("reason", r.stats.budget_trip.reason);
    trip.set("at_seconds", r.stats.budget_trip.at_seconds);
    trip.set("bdd_nodes", r.stats.budget_trip.bdd_nodes);
    trip.set("rss_bytes", r.stats.budget_trip.rss_bytes);
    o.set("budget_trip", std::move(trip));
  }
  return o;
}

json::Value certificate_json(const CertificateRecord& r) {
  using json::Value;
  Value o = Value::object();
  o.set("type", "certificate");
  o.set("property", r.property);
  o.set("kind", r.kind);
  o.set("ok", r.ok);
  o.set("clauses", r.clauses);
  o.set("trace_cycles", r.trace_cycles);
  o.set("obligation", r.obligation);
  o.set("seconds", r.seconds);
  return o;
}

json::Value batch_summary_json(const std::vector<PropertyResult>& results,
                               double seconds, double cpu_ms,
                               const MetricsSnapshot* baseline,
                               const std::vector<CertificateRecord>* certificates) {
  using json::Value;
  size_t holds = 0, fails = 0, unknown = 0, resource_out = 0;
  for (const PropertyResult& r : results) {
    switch (r.verdict) {
      case Verdict::Holds: ++holds; break;
      case Verdict::Fails: ++fails; break;
      case Verdict::Unknown: ++unknown; break;
      case Verdict::ResourceOut: ++resource_out; break;
    }
  }
  size_t cert_ok = 0, cert_failed = 0;
  if (certificates != nullptr)
    for (const CertificateRecord& r : *certificates) ++(r.ok ? cert_ok : cert_failed);
  Value o = Value::object();
  o.set("type", "batch-summary");
  o.set("trace_version", "rfn-trace-v2");
  o.set("properties", results.size());
  Value verdicts = Value::object();
  verdicts.set(to_string(Verdict::Holds), holds);
  verdicts.set(to_string(Verdict::Fails), fails);
  verdicts.set(to_string(Verdict::Unknown), unknown);
  verdicts.set(to_string(Verdict::ResourceOut), resource_out);
  o.set("verdicts", std::move(verdicts));
  if (certificates != nullptr) {
    Value certs = Value::object();
    certs.set("ok", cert_ok);
    certs.set("failed", cert_failed);
    o.set("certificates", std::move(certs));
  }
  o.set("seconds", seconds);
  o.set("cpu_ms", cpu_ms);
  o.set("peak_rss_bytes", prof::peak_rss_bytes());
  o.set("metrics", MetricsRegistry::global().to_json(baseline));
  return o;
}

}  // namespace rfn
