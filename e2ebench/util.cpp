#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <set>

#include "api/api.hpp"
#include "bench.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace e2e {

double SpanLog::busy(const std::string& name) const {
  double s = 0.0;
  for (const Span& sp : spans_)
    if (sp.name == name) s += sp.t1 - sp.t0;
  return s;
}

bool SpanLog::write_chrome(const std::string& path) const {
  rfn::json::Value events = rfn::json::Value::array();
  for (const Span& sp : spans_) {
    rfn::json::Value ev = rfn::json::Value::object();
    ev.set("name", sp.name);
    ev.set("ph", "X");
    ev.set("pid", 1);
    ev.set("tid", 1);
    ev.set("ts", sp.t0 * 1e6);
    ev.set("dur", (sp.t1 - sp.t0) * 1e6);
    events.push(std::move(ev));
  }
  rfn::json::Value doc = rfn::json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

// The ring holds every event of one window: a window is one session run or
// one coverage analysis.
constexpr size_t kProgramSpanEvents = 1u << 20;

const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> kLayers = {
      {"bdd-reach", "reach"},         {"seq-atpg", "reach"},
      {"mc.reach", "reach"},          {"bdd.reorder", "reach"},
      {"hybrid.walk", "hybrid"},
      {"guided-atpg", "concretize"},  {"concretize", "concretize"},
      {"atpg.seq", "concretize"},     {"refine", "refine"},
  };
  return kLayers;
}

void ProgramSpans::start() { rfn::SpanTracer::global().enable(kProgramSpanEvents); }

void ProgramSpans::stop() {
  rfn::SpanTracer& tracer = rfn::SpanTracer::global();
  tracer.disable();
  const rfn::json::Value doc = tracer.to_chrome_json();
  if (const rfn::json::Value* d = doc.find_path("otherData.dropped_events"))
    dropped_ += static_cast<uint64_t>(d->as_double());
  // Per thread: a stack of open spans. A span's self time is its duration
  // minus its children's; only the outermost of same-named nested spans
  // adds to the inclusive total, and only the outermost layer span to its
  // layer.
  struct Open {
    std::string name;
    double t0;
    double child_us;
  };
  const auto& layers = layer_of_span();
  std::map<double, std::vector<Open>> stacks;  // by tid
  const rfn::json::Value* events = doc.find("traceEvents");
  if (events == nullptr) return;
  for (const rfn::json::Value& ev : events->items()) {
    const rfn::json::Value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    const std::string& p = ph->as_string();
    if (p != "B" && p != "E") continue;
    std::vector<Open>& st = stacks[ev.find("tid")->as_double()];
    const double ts = ev.find("ts")->as_double();
    if (p == "B") {
      st.push_back({ev.find("name")->as_string(), ts, 0.0});
      continue;
    }
    if (st.empty()) continue;
    const Open top = st.back();
    st.pop_back();
    const double dur = ts - top.t0;
    Totals& t = by_name_[top.name];
    ++t.calls;
    t.self_s += (dur - top.child_us) * 1e-6;
    const bool nested_in_same = std::any_of(
        st.begin(), st.end(), [&](const Open& o) { return o.name == top.name; });
    if (!nested_in_same) t.inclusive_s += dur * 1e-6;
    if (!st.empty()) st.back().child_us += dur;

    const auto layer = layers.find(top.name);
    const bool in_layer = std::any_of(st.begin(), st.end(), [&](const Open& o) {
      return layers.count(o.name) > 0;
    });
    if (layer == layers.end() || in_layer) continue;
    Layer& l = layers_[layer->second];
    l.busy_s += dur * 1e-6;
    ++l.calls;
    if (const rfn::json::Value* status = ev.find_path("args.status"))
      ++l.status[status->as_string()];
  }
}

double ProgramSpans::self_s(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.self_s;
}

double ProgramSpans::inclusive_s(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.inclusive_s;
}

size_t ProgramSpans::calls(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.calls;
}

const ProgramSpans::Layer& ProgramSpans::layer(const std::string& name) const {
  static const Layer kNone;
  const auto it = layers_.find(name);
  return it == layers_.end() ? kNone : it->second;
}

void Layers::add(const rfn::MetricsSnapshot& s) {
  for (const auto& [name, v] : s.values) counters[name] += v;
  bdd_peak_nodes = std::max(bdd_peak_nodes,
                            static_cast<size_t>(s.value("bdd.peak_live_nodes.max")));
}

void Layers::add(const rfn::RfnIteration& it) {
  ++iterations;
  if (it.trace_cycles == 0) return;  // no abstract error trace: Steps 3-4 skipped
  trace_cycles += it.trace_cycles;
  switch (it.concretize_status) {
    case rfn::AtpgStatus::Sat: ++concretize_real; return;
    case rfn::AtpgStatus::Unsat: ++concretize_spurious; break;
    case rfn::AtpgStatus::Abort: ++concretize_aborts; break;
  }
  refine_candidates += it.refine.conflict_candidates + it.refine.fallback_candidates +
                       it.refine.hint_candidates;
  refine_kept += it.refine.final_count;
  refine_atpg_calls += it.refine.atpg_calls;
}

double Layers::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

namespace {

/// Fails `t` unless the traced run took the reference run's trajectory:
/// verdict, iteration count, per-iteration abstract model size and final
/// register set.
void check_same_trajectory(Tally& t, const std::string& label,
                           const rfn::RfnResult& ref, const rfn::RfnResult& got) {
  const auto sizes = [](const rfn::RfnResult& r) {
    std::vector<size_t> v;
    for (const rfn::RfnIteration& it : r.per_iteration) v.push_back(it.abstract_regs);
    return v;
  };
  std::string what;
  if (got.verdict != ref.verdict)
    what = "verdict";
  else if (got.iterations != ref.iterations)
    what = "iteration count " + std::to_string(got.iterations) + " vs " +
           std::to_string(ref.iterations);
  else if (sizes(got) != sizes(ref))
    what = "per-iteration abstract_regs";
  else if (got.final_registers != ref.final_registers)
    what = "final register set";
  if (!what.empty()) t.fail("traced pass diverged on " + label + ": " + what);
}

}  // namespace

void traced_session(const rfn::Netlist& net, const rfn::SessionOptions& so,
                    const std::vector<rfn::PropertyRequest>& props,
                    const std::vector<rfn::PropertyResult>& ref, SpanLog& log,
                    Layers& l, Tally& t) {
  size_t clusters = 0;
  const std::vector<rfn::PropertyResult> results = l.observe([&] {
    return log.time("session", [&] {
      rfn::VerifySession session(net, so);
      std::vector<rfn::PropertyResult> r = session.run(props);
      clusters = session.clusters().size();
      return r;
    });
  });
  l.session_clusters += clusters;
  std::set<uint64_t> runs;
  for (size_t i = 0; i < results.size(); ++i) {
    const rfn::PropertyResult& r = results[i];
    l.session_clustered_props += r.clustered ? 1 : 0;
    check_same_trajectory(t, r.name, ref[i].stats, r.stats);
    const std::string cert_error = certify(net, r, &log, &l);
    if (!cert_error.empty()) t.fail("traced " + r.name + ": " + cert_error);
    if (runs.insert(r.stats.metrics_epoch).second)
      for (const rfn::RfnIteration& it : r.stats.per_iteration) l.add(it);
  }
}

Metrics layer_metrics(const Layers& l, const SpanLog& log, double loop_s,
                      double reference_s, double traced_s, Tally& t) {
  if (l.program.dropped() > 0)
    t.fail("span buffer overflowed: " + std::to_string(l.program.dropped()) +
           " program span events dropped");
  const auto n = [](size_t v) { return static_cast<double>(v); };
  const auto share = [traced_s](double s) { return traced_s > 0.0 ? s / traced_s : 0.0; };
  const ProgramSpans::Layer& conc = l.program.layer("concretize");
  const ProgramSpans::Layer& reach = l.program.layer("reach");
  const ProgramSpans::Layer& hybrid = l.program.layer("hybrid");
  const ProgramSpans::Layer& refine = l.program.layer("refine");
  // Extraction has no span of its own: it is the loop's time outside the
  // four layers (extraction, bookkeeping and, for coverage, the encoder
  // set-up and the classification of coverage states).
  const double extract =
      std::max(0.0, loop_s - reach.busy_s - hybrid.busy_s - conc.busy_s - refine.busy_s);
  const double cert_fails = log.busy("cert.fails_trace");
  const double cert_holds = log.busy("cert.holds_invariant");
  const double session = log.busy("session");
  const double reorder = l.program.self_s("bdd.reorder");
  const double lookups = l.counter("bdd.cache_lookups");
  return {
      {"concretize.busy_s", conc.busy_s, "s"},
      {"concretize.calls", n(conc.calls), "count"},
      {"concretize.real", n(l.concretize_real), "count"},
      {"concretize.spurious", n(l.concretize_spurious), "count"},
      {"concretize.aborts", n(l.concretize_aborts), "count"},
      {"concretize.backtracks", l.counter("atpg.seq.backtracks"), "count"},
      {"cert.busy_s", cert_fails + cert_holds, "s"},
      {"cert.calls", n(l.cert_calls), "count"},
      {"cert.refused", n(l.cert_refused), "count"},
      {"cert.fails_trace.busy_s", cert_fails, "s"},
      {"cert.holds_invariant.busy_s", cert_holds, "s"},
      {"reach.busy_s", reach.busy_s, "s"},
      {"reach.calls", l.counter("mc.reach.calls"), "count"},
      {"reach.steps", l.counter("mc.reach.image_steps"), "count"},
      {"bdd.reorderings", n(l.program.calls("bdd.reorder")), "count"},
      {"bdd.reorder.self_s", reorder, "s"},
      {"bdd.peak_nodes", n(l.bdd_peak_nodes), "count"},
      {"bdd.cache_hit_ratio", lookups == 0 ? 0.0 : l.counter("bdd.cache_hits") / lookups,
       "ratio"},
      {"bdd.cache_lookups", lookups, "count"},
      {"hybrid.busy_s", hybrid.busy_s, "s"},
      {"hybrid.calls", n(hybrid.calls), "count"},
      {"hybrid.atpg_calls", l.counter("hybrid.atpg_calls"), "count"},
      {"hybrid.atpg_rejects", l.counter("hybrid.atpg_rejects"), "count"},
      {"hybrid.mincut_cubes", l.counter("hybrid.mincut_cubes"), "count"},
      {"hybrid.nocut_cubes", l.counter("hybrid.nocut_cubes"), "count"},
      {"refine.busy_s", refine.busy_s, "s"},
      {"refine.calls", n(refine.calls), "count"},
      {"refine.candidates", n(l.refine_candidates), "count"},
      {"refine.kept", n(l.refine_kept), "count"},
      {"refine.atpg_calls", n(l.refine_atpg_calls), "count"},
      {"core.iterations", n(l.iterations), "count"},
      {"core.trace_cycles_sum", n(l.trace_cycles), "count"},
      {"extract.busy_s", extract, "s"},
      {"extract.calls", n(l.iterations), "count"},
      {"session.busy_s", session, "s"},
      {"session.clusters", n(l.session_clusters), "count"},
      {"session.clustered_props", n(l.session_clustered_props), "count"},
      {"share.concretize", share(conc.busy_s), "frac"},
      {"share.reach", share(reach.busy_s), "frac"},
      {"share.bdd_reorder", share(reorder), "frac"},
      {"share.hybrid", share(hybrid.busy_s), "frac"},
      {"share.refine", share(refine.busy_s), "frac"},
      {"share.extract", share(extract), "frac"},
      {"share.cert", share(cert_fails + cert_holds), "frac"},
      {"share.cert_fails_trace", share(cert_fails), "frac"},
      {"trace.covered_frac",
       share(session + log.busy("coverage") + cert_fails + cert_holds), "frac"},
      {"trace.overhead_s", traced_s - reference_s, "s"},
  };
}

std::string certify(const rfn::Netlist& net, const rfn::PropertyResult& p,
                    SpanLog* log, Layers* layers) {
  using rfn::Verdict;
  if (p.verdict != Verdict::Holds && p.verdict != Verdict::Fails)
    return std::string("inconclusive (") + rfn::to_string(p.verdict) + ")";
  const auto run = [&] {
    rfn::CertificateRecord rec;
    return rfn::api::certify_property(
        net, p.bad, p.name, p.verdict, p.trace, p.stats.final_registers, &rec,
        p.stats.pdr_invariant.present ? &p.stats.pdr_invariant : nullptr);
  };
  rfn::CertificateArtifact art;
  if (log == nullptr) {
    art = run();
  } else {
    art = log->time(p.verdict == Verdict::Fails ? "cert.fails_trace"
                                                : "cert.holds_invariant",
                    run);
    ++layers->cert_calls;
    layers->cert_refused += art.checked ? 0 : 1;
  }
  const rfn::cert::CertKind want = p.verdict == Verdict::Holds
                                       ? rfn::cert::CertKind::HoldsInvariant
                                       : rfn::cert::CertKind::FailsTrace;
  if (!art.checked)
    return "certificate refused (" + (art.built ? art.obligation : "extraction") +
           (art.detail.empty() ? "" : ": " + art.detail) + ")";
  if (art.certificate.kind != want) return "certificate of the wrong kind";
  return "";
}

void check_verdict(Tally& t, const std::string& label, rfn::Verdict got,
                   rfn::Verdict expected, const std::string& cert_error) {
  std::string why;
  if (got != expected)
    why = label + ": verdict " + rfn::to_string(got) + ", expected " +
          rfn::to_string(expected);
  else if (!cert_error.empty())
    why = label + ": " + cert_error;
  t.op(why.empty(), why);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;  // ru_maxrss is in KiB
}

}  // namespace e2e
