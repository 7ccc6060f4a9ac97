#pragma once
// JSON event trace for verification runs (trace version "rfn-trace-v2").
//
// Every run — one property or a whole suite — writes the same JSON Lines
// document (one object per line, so a consumer can stream a long run
// without a closing bracket ever arriving). rfn_cli exposes it as
// `--trace-json FILE`; rfn_serve streams the same records over its socket.
//
// Schema:
//   {"type":"property","name":"..","bad":..,
//    "verdict":"T|F|?|resource-out",
//    "iterations":..,"final_abstract_regs":..,"error_trace_cycles":..,
//    "seconds":..,"cpu_ms":..,"note":"..",
//    ["budget_trip":{"reason":"wall-budget|bdd-node-budget|mem-budget",
//                    "at_seconds":..,"bdd_nodes":..,"rss_bytes":..}]}
//                                                          // one per property
//   {"type":"iteration","property":"..","iter":k,        // after its property
//    "abstraction":{"regs":..,"inputs":..,"gates":..},
//    "reach":{"status":"proved|bad-reachable|resource-out","steps":..,
//             "seconds":..},
//    "bdd":{"peak_nodes":..,"cache_lookups":..,"cache_hits":..,
//           "cache_hit_rate":..,"reorderings":..},
//    "hybrid":{"nocut_cubes":..,"mincut_cubes":..,"atpg_calls":..,
//              "atpg_rejects":..},
//    "trace_cycles":..,
//    "concretize":{"status":"sat|unsat|abort|none","seconds":..},
//    "refine":{"conflict_candidates":..,"fallback_candidates":..,
//              "added_until_unsat":..,"removed_by_greedy":..,
//              "final_count":..,"atpg_calls":..,"trace_invalidated":..},
//    "seconds":..}
//   {"type":"certificate",...}              // --certify only, see below
//   {"type":"batch-summary","trace_version":"rfn-trace-v2",
//    "properties":..,
//    "verdicts":{"T":..,"F":..,"?":..,"resource-out":..},
//    ["certificates":{"ok":..,"failed":..},]
//    "seconds":..,"cpu_ms":..,"peak_rss_bytes":..,
//    "metrics":{<MetricsRegistry::to_json(run baseline)>}}
//
// Each property record is followed by the iteration records of its run,
// numbered densely from 0, exactly "iterations" of them. A property's
// "seconds" is the wall time of its run. An iteration's concretize status is
// "none" when Step 3 did not run (no abstract error trace: trace_cycles 0).
// "metrics" is serialized relative to the snapshot taken when the run
// started, so two runs in one process do not conflate.
//
// The batch summary is where a run reports what it cost: "seconds" is the
// batch's wall time and "cpu_ms" the process CPU over the same interval
// (api::run_verify, certification included); "peak_rss_bytes" is the
// process's resident-set high-water mark (getrusage ru_maxrss), and the
// BDD arena's peak bytes are metrics.gauges["bdd.heap_bytes"].max. Under
// rfn_serve, where requests share one process, "cpu_ms" and
// "peak_rss_bytes" are process-wide, not per request.

#include <string>
#include <vector>

#include "core/rfn.hpp"
#include "core/session.hpp"
#include "util/json.hpp"

namespace rfn {

/// CEGAR iteration `index` of the run that answered `property`, as a JSON
/// object (`"type":"iteration"`).
json::Value iteration_json(const std::string& property, size_t index,
                           const RfnIteration& it);

/// One session property outcome as a JSON object (`"type":"property"`).
json::Value property_json(const PropertyResult& r);

/// One certification outcome per conclusive property, written by --certify
/// runs after the property and iteration records, before the batch summary:
///   {"type":"certificate","property":"..","kind":"holds-invariant|fails-trace",
///    "ok":..,"clauses":..,"trace_cycles":..,"obligation":"..","seconds":..}
/// `obligation` is empty when ok; otherwise the failing checker obligation
/// (cert/check.hpp) or "extraction" when no witness could be built.
struct CertificateRecord {
  std::string property;
  std::string kind;
  bool ok = false;
  size_t clauses = 0;
  size_t trace_cycles = 0;
  std::string obligation;
  double seconds = 0.0;
};

json::Value certificate_json(const CertificateRecord& r);

/// The batch-summary record (`"type":"batch-summary"`): verdict counts over
/// `results`, certificate ok/failed counts when `certificates` is non-null,
/// the batch's wall `seconds` and process `cpu_ms`, the process's peak RSS
/// read now, and the metrics dump against `baseline`. The last record of
/// every rfn-trace-v2 document (api::run_verify writes it).
json::Value batch_summary_json(const std::vector<PropertyResult>& results,
                               double seconds, double cpu_ms,
                               const MetricsSnapshot* baseline = nullptr,
                               const std::vector<CertificateRecord>* certificates = nullptr);

}  // namespace rfn
