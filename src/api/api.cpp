#include "api/api.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "cert/format.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/stopwatch.hpp"

namespace rfn::api {

namespace {

// --- the one value parser ---------------------------------------------------
//
// Every value — a JSON member, a flag's text, a props line's text — is
// checked by decode() on a json::Value; text first becomes the JSON value
// the same key would carry over the wire (from_text). decode() returns null
// on success, else what the value must be.

template <class T>
const char* decode(const json::Value& v, T* out) {
  const double d = v.as_double();
  // Integers are exact in a double up to 2^53.
  const bool integral = v.is_number() && std::floor(d) == d &&
                        std::fabs(d) <= 9007199254740992.0;
  if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) return "a number";
    *out = d;
  } else if constexpr (std::is_same_v<T, size_t>) {
    if (!integral || d < 0) return "a non-negative integer";
    *out = static_cast<size_t>(d);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    if (!integral) return "an integer";
    *out = static_cast<int64_t>(d);
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return "a boolean";
    *out = v.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) return "a string";
    *out = v.as_string();
  } else {  // an override slot: std::optional<U>
    typename T::value_type value{};
    if (const char* type = decode(v, &value)) return type;
    *out = value;
  }
  return nullptr;
}

// Text that is not a value of the knob's type stays a string, so decode()
// refuses it and the message quotes it.
template <class T>
json::Value from_text(const std::string& text, T*) {
  const json::Value v = json::parse(text);
  return v.is_number() ? v : json::Value(text);
}

template <class T>
json::Value from_text(const std::string& text, std::optional<T>*) {
  return from_text(text, static_cast<T*>(nullptr));
}

template <class T>
bool want(const json::Value& v, const std::string& ctx, T* out,
          std::string* error) {
  const char* type = decode(v, out);
  if (type != nullptr) *error = ctx + " must be " + type + ", got " + v.dump();
  return type == nullptr;
}

/// Sets a knob's field or override slot from a JSON value.
template <class Slot>
bool want_slot(const Slot& slot, const json::Value& v, const std::string& ctx,
               std::string* error) {
  return std::visit([&](auto* p) { return want(v, ctx, p, error); }, slot);
}

/// Sets a knob's field or override slot from a flag's or props line's text.
template <class Slot>
bool want_text(const Slot& slot, const std::string& text,
               const std::string& ctx, std::string* error) {
  return std::visit(
      [&](auto* p) { return want(from_text(text, p), ctx, p, error); }, slot);
}

template <class T>
json::Value encode(const T& v) {
  return v;
}

/// A knob's slots for reading only (the table's accessors bind mutable
/// structs).
Knob::Field read(const Knob& k, const VerifyRequest& req) {
  return k.field(const_cast<VerifyRequest&>(req));
}

Knob::Override read(const Knob& k, const PropertyRequest::Overrides& o) {
  return k.override_field(const_cast<PropertyRequest::Overrides&>(o));
}

const Knob* find_knob(const std::string& group, const std::string& key) {
  for (const Knob& k : knobs())
    if (group == k.group && key == k.key) return &k;
  return nullptr;
}

/// The knob an override key names; null with a message when there is none.
const Knob* override_knob(const std::string& key, std::string* error) {
  for (const Knob& k : knobs()) {
    if (key != k.key) continue;
    if (k.override_field != nullptr) return &k;
    *error = "'" + key + "' cannot be set per property";
    return nullptr;
  }
  *error = "unknown key '" + key + "'";
  return nullptr;
}

/// One key=value of a --props line ("name" included).
bool apply_override(const std::string& key, const std::string& value,
                    PropertySpec* out, std::string* error) {
  if (key == "name") {
    out->name = value;
    return true;
  }
  const Knob* k = override_knob(key, error);
  return k != nullptr &&
         want_text(k->override_field(out->overrides), value, key, error);
}

}  // namespace

// The knob list: an entry's accessors name the field it sets and, for the
// four overridable knobs, the per-property slot.
const std::vector<Knob>& knobs() {
  using R = VerifyRequest&;
  using O = PropertyRequest::Overrides&;
  using F = Knob::Field;
  using V = Knob::Override;
  static const std::vector<Knob> kKnobs = {
      {"options", "time-limit",
       [](R r) -> F { return &r.options.time_limit_s; },
       [](O o) -> V { return &o.time_limit_s; }},
      {"options", "max-iterations",
       [](R r) -> F { return &r.options.max_iterations; },
       [](O o) -> V { return &o.max_iterations; }},
      {"options", "budget-bdd-nodes",
       [](R r) -> F { return &r.options.budget_bdd_nodes; },
       [](O o) -> V { return &o.budget_bdd_nodes; }},
      {"options", "budget-mem-mb",
       [](R r) -> F { return &r.options.budget_mem_mb; },
       [](O o) -> V { return &o.budget_mem_mb; }},
      {"session", "workers",
       [](R r) -> F { return &r.session_workers; }, nullptr, "session-workers"},
      {"session", "batch-budget-ms",
       [](R r) -> F { return &r.batch_budget_ms; }},
  };
  return kKnobs;
}

GateId find_signal(const Netlist& n, const std::string& name) {
  GateId g = n.find(name);
  if (g == kNullGate) g = n.output(name);
  return g;
}

// ---------------------------------------------------------------------------
// VerifyRequest

std::vector<std::string> VerifyRequest::validate() const {
  // The single choke point: the engine knobs' own validation, of the
  // defaults and then of every property's merged options (what its run
  // will see), prefixed with the property's origin. Every value of a
  // session knob is valid.
  std::vector<std::string> errors = options.validate();
  for (std::string& e : errors) {
    // The defaults are valid, so a knob that raises the error on top of
    // them alone is the one to name.
    for (const Knob& k : knobs()) {
      VerifyRequest alone;
      std::visit(
          [&](auto* dst) { *dst = *std::get<decltype(dst)>(read(k, *this)); },
          k.field(alone));
      const std::vector<std::string> own = alone.options.validate();
      if (std::find(own.begin(), own.end(), e) == own.end()) continue;
      e = std::string(k.key) + ": " + e;
      break;
    }
  }
  if (!errors.empty()) return errors;
  for (size_t i = 0; i < props.size(); ++i) {
    const PropertySpec& p = props[i];
    if (!p.overrides.any()) continue;
    const std::string origin =
        p.origin.empty() ? "props[" + std::to_string(i) + "]" : p.origin;
    for (const std::string& e : merge_overrides(options, p.overrides).validate())
      errors.push_back(origin + ": " + e);
  }
  return errors;
}

json::Value VerifyRequest::to_json() const {
  using json::Value;
  Value o = Value::object();
  o.set("type", "verify");
  o.set("version", kRequestVersion);
  if (!id.empty()) o.set("id", id);
  if (!tenant.empty()) o.set("tenant", tenant);

  Value d = Value::object();
  if (!design.path.empty()) d.set("path", design.path);
  if (!design.text.empty()) d.set("text", design.text);
  if (!design.format.empty()) d.set("format", design.format);
  if (!design.top.empty()) d.set("top", design.top);
  o.set("design", std::move(d));

  if (!props.empty()) {
    Value arr = Value::array();
    for (const PropertySpec& p : props) {
      Value s = Value::object();
      s.set("signal", p.signal);
      if (!p.name.empty()) s.set("name", p.name);
      if (p.overrides.any()) {
        Value ov = Value::object();
        for (const Knob& k : knobs()) {
          if (k.override_field == nullptr) continue;
          std::visit(
              [&](auto* slot) {
                if (*slot) ov.set(k.key, encode(**slot));
              },
              read(k, p.overrides));
        }
        s.set("overrides", std::move(ov));
      }
      arr.push(std::move(s));
    }
    o.set("props", std::move(arr));
  }

  for (const char* group : {"options", "session"}) {
    Value g = Value::object();
    for (const Knob& k : knobs())
      if (std::string(group) == k.group)
        std::visit([&](auto* p) { g.set(k.key, encode(*p)); }, read(k, *this));
    o.set(group, std::move(g));
  }

  o.set("certify", certify);
  o.set("inline-certificates", inline_certificates);
  return o;
}

namespace {

bool parse_design(const json::Value& v, DesignRef* out, std::string* error) {
  if (!v.is_object()) {
    *error = "'design' must be an object";
    return false;
  }
  for (const auto& [key, val] : v.members()) {
    const std::string ctx = "design." + key;
    std::string* field = key == "path"     ? &out->path
                         : key == "text"   ? &out->text
                         : key == "format" ? &out->format
                         : key == "top"    ? &out->top
                                           : nullptr;
    if (field == nullptr) {
      *error = "unknown key '" + ctx + "'";
      return false;
    }
    if (!want(val, ctx, field, error)) return false;
  }
  if (out->path.empty() && out->text.empty()) {
    *error = "'design' needs a path or inline text";
    return false;
  }
  return true;
}

bool parse_prop(const json::Value& v, size_t index, PropertySpec* out,
                std::string* error) {
  const std::string where = "props[" + std::to_string(index) + "]";
  if (!v.is_object()) {
    *error = where + " must be an object";
    return false;
  }
  for (const auto& [key, val] : v.members()) {
    if (key == "signal") {
      if (!want(val, where + ".signal", &out->signal, error)) return false;
    } else if (key == "name") {
      if (!want(val, where + ".name", &out->name, error)) return false;
    } else if (key == "overrides") {
      if (!val.is_object()) {
        *error = where + ".overrides must be an object";
        return false;
      }
      for (const auto& [ok, ov] : val.members()) {
        std::string why;
        const Knob* k = override_knob(ok, &why);
        if (k == nullptr) {
          *error = where + ".overrides: " + why;
          return false;
        }
        if (!want_slot(k->override_field(out->overrides), ov,
                       where + ".overrides." + ok, error))
          return false;
      }
    } else {
      *error = "unknown key '" + where + "." + key + "'";
      return false;
    }
  }
  if (out->signal.empty()) {
    *error = where + " needs a signal";
    return false;
  }
  out->origin = where;
  return true;
}

/// One "options" or "session" object: each member is a knob of the group.
bool parse_knobs(const json::Value& v, const std::string& group,
                 VerifyRequest* out, std::string* error) {
  if (!v.is_object()) {
    *error = "'" + group + "' must be an object";
    return false;
  }
  for (const auto& [key, val] : v.members()) {
    const Knob* k = find_knob(group, key);
    if (k == nullptr) {
      *error = "unknown key '" + group + "." + key + "'";
      return false;
    }
    if (!want_slot(k->field(*out), val, group + "." + key, error)) return false;
  }
  return true;
}

}  // namespace

bool VerifyRequest::from_json(const json::Value& v, VerifyRequest* out,
                              std::string* error) {
  *out = VerifyRequest{};
  if (!v.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  bool saw_type = false, saw_version = false, saw_design = false;
  for (const auto& [key, val] : v.members()) {
    if (key == "type") {
      std::string type;
      if (!want(val, "'type'", &type, error)) return false;
      if (type != "verify") {
        *error = "unknown request type '" + type + "' (valid: verify)";
        return false;
      }
      saw_type = true;
    } else if (key == "version") {
      std::string version;
      if (!want(val, "'version'", &version, error)) return false;
      if (version != kRequestVersion) {
        *error = "unsupported request version '" + version + "' (valid: " +
                 std::string(kRequestVersion) + ")";
        return false;
      }
      saw_version = true;
    } else if (key == "id") {
      if (!want(val, "'id'", &out->id, error)) return false;
    } else if (key == "tenant") {
      if (!want(val, "'tenant'", &out->tenant, error)) return false;
    } else if (key == "design") {
      if (!parse_design(val, &out->design, error)) return false;
      saw_design = true;
    } else if (key == "props") {
      if (!val.is_array()) {
        *error = "'props' must be an array";
        return false;
      }
      for (size_t i = 0; i < val.items().size(); ++i) {
        PropertySpec spec;
        if (!parse_prop(val.items()[i], i, &spec, error)) return false;
        out->props.push_back(std::move(spec));
      }
    } else if (key == "options" || key == "session") {
      if (!parse_knobs(val, key, out, error)) return false;
    } else if (key == "certify") {
      if (!want(val, "'certify'", &out->certify, error)) return false;
    } else if (key == "inline-certificates") {
      if (!want(val, "'inline-certificates'", &out->inline_certificates,
                error))
        return false;
    } else {
      *error = "unknown key '" + key + "'";
      return false;
    }
  }
  if (!saw_type || !saw_version) {
    *error = "request needs \"type\":\"verify\" and \"version\":\"" +
             std::string(kRequestVersion) + "\"";
    return false;
  }
  if (!saw_design) {
    *error = "request needs a 'design'";
    return false;
  }
  return true;
}

bool VerifyRequest::from_flags(const Options& opts,
                               const std::vector<std::string>& also_known,
                               VerifyRequest* out, std::string* error) {
  *out = VerifyRequest{};
  std::vector<std::string> known = also_known;
  known.insert(known.end(),
               {"bad", "props", "certify", "cert-dir", "top", "aiger"});
  for (const Knob& k : knobs()) known.push_back(k.cli_flag());
  for (const std::string& key : opts.keys()) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    *error = "unknown flag --" + key;
    return false;
  }
  const std::vector<std::string>& pos = opts.positionals();
  if (pos.size() != 2) {
    *error = pos.size() < 2 ? "missing design"
                            : "unexpected argument '" + pos[2] + "'";
    return false;
  }
  out->design.path = pos[1];
  out->design.top = opts.get("top", "");
  if (opts.get_bool("aiger", false)) out->design.format = "aiger";

  for (const Knob& k : knobs()) {
    const std::string flag = k.cli_flag();
    const std::vector<std::string> given = opts.get_all(flag);
    if (given.empty()) continue;
    // A repeated flag keeps its last value.
    if (!want_text(k.field(*out), given.back(), "--" + flag, error))
      return false;
  }

  // The property set: every --bad, then every --props line (none: the
  // design's AIGER properties, else the signal named "bad"; see
  // resolve_properties).
  for (const std::string& bad : opts.get_all("bad")) {
    PropertySpec spec;
    spec.signal = bad;
    out->props.push_back(std::move(spec));
  }
  const std::string props_path = opts.get("props", "");
  if (!props_path.empty()) {
    std::ifstream in(props_path);
    if (!in) {
      *error = "cannot open " + props_path;
      return false;
    }
    // One property per line: "SIGNAL [key=value...]"; # starts a comment.
    std::string line;
    for (size_t lineno = 1; std::getline(in, line); ++lineno) {
      std::stringstream ss(line.substr(0, line.find('#')));
      PropertySpec spec;
      if (!(ss >> spec.signal)) continue;
      spec.origin = "props line " + std::to_string(lineno);
      for (std::string tok; ss >> tok;) {
        const size_t eq = tok.find('=');
        std::string why = "expected key=value, got '" + tok + "'";
        if (eq == std::string::npos ||
            !apply_override(tok.substr(0, eq), tok.substr(eq + 1), &spec,
                            &why)) {
          *error = spec.origin + ": " + why;
          return false;
        }
      }
      out->props.push_back(std::move(spec));
    }
  }
  out->certify = opts.get_bool("certify", false) || opts.has("cert-dir");
  return true;
}

// ---------------------------------------------------------------------------
// VerifyResponse

json::Value VerifyResponse::to_json() const {
  using json::Value;
  Value o = Value::object();
  o.set("type", "response");
  o.set("version", kResponseVersion);
  o.set("id", id);
  o.set("ok", ok);
  if (!ok) {
    o.set("error", error);
    if (!reject_reason.empty()) o.set("reject_reason", reject_reason);
    return o;
  }
  o.set("design_hash", design_hash);
  o.set("properties", properties);
  Value verdicts = Value::object();
  verdicts.set(to_string(Verdict::Holds), holds);
  verdicts.set(to_string(Verdict::Fails), fails);
  verdicts.set(to_string(Verdict::Unknown), unknown);
  verdicts.set(to_string(Verdict::ResourceOut), resource_out);
  o.set("verdicts", std::move(verdicts));
  Value rs = Value::array();
  for (const PropertyVerdict& r : results) {
    Value e = Value::object();
    e.set("name", r.name);
    e.set("verdict", r.verdict);
    e.set("iterations", r.iterations);
    e.set("seconds", r.seconds);
    e.set("note", r.note);
    rs.push(std::move(e));
  }
  o.set("results", std::move(rs));
  if (certified) {
    Value certs = Value::object();
    certs.set("ok", cert_ok);
    certs.set("failed", cert_failed);
    if (!certificates.empty()) {
      Value docs = Value::array();
      for (const json::Value& c : certificates) docs.push(c);
      certs.set("docs", std::move(docs));
    }
    o.set("certificates", std::move(certs));
  }
  o.set("seconds", seconds);
  return o;
}

VerifyResponse VerifyResponse::reject(const std::string& id,
                                      const std::string& reason,
                                      const std::string& detail) {
  VerifyResponse r;
  r.id = id;
  r.ok = false;
  r.reject_reason = reason;
  r.error = detail;
  return r;
}

// ---------------------------------------------------------------------------
// The shared run path

bool resolve_properties(const Netlist& n,
                        const std::vector<aiger::AigerProperty>& aiger_props,
                        const std::vector<PropertySpec>& specs,
                        std::vector<PropertyRequest>* out, std::string* error) {
  out->clear();
  if (!specs.empty()) {
    for (const PropertySpec& s : specs) {
      const GateId bad = find_signal(n, s.signal);
      if (bad == kNullGate) {
        *error = (s.origin.empty() ? "" : s.origin + ": ") +
                 "no signal named '" + s.signal + "'";
        return false;
      }
      // Unlabeled, a property keeps the name it was asked for: two output
      // names can resolve to same-named gates (the iu coverage aliases),
      // and --cert-dir derives witness file names from the property name.
      PropertyRequest p;
      p.bad = bad;
      p.name = s.name.empty() ? s.signal : s.name;
      p.overrides = s.overrides;
      out->push_back(std::move(p));
    }
    return true;
  }
  if (!aiger_props.empty()) {
    // An AIGER design with no explicit selection verifies its whole property
    // list (each bad output, or each output pre-1.9 style).
    for (const aiger::AigerProperty& ap : aiger_props) {
      PropertyRequest p;
      p.name = ap.name;
      p.bad = ap.signal;
      out->push_back(std::move(p));
    }
    return true;
  }
  // The conventional default: a signal literally named "bad".
  PropertyRequest p;
  p.name = "bad";
  p.bad = find_signal(n, "bad");
  if (p.bad == kNullGate) {
    *error = "no signal named 'bad'";
    return false;
  }
  out->push_back(std::move(p));
  return true;
}

CertificateArtifact certify_property(const Netlist& design, GateId bad,
                                     const std::string& name, Verdict verdict,
                                     const Trace& trace,
                                     const std::vector<GateId>& final_registers,
                                     CertificateRecord* rec,
                                     const PdrInvariantWitness* pdr_invariant) {
  RFN_CHECK(pdr_invariant == nullptr || !pdr_invariant->present,
            "no engine produces an invariant witness");
  CertificateArtifact art = certify_with_witness(design, bad, name, verdict,
                                                 trace, final_registers);
  rec->property = name;
  rec->kind = cert::cert_kind_name(art.certificate.kind);
  rec->ok = art.checked;
  rec->clauses = art.certificate.clauses.size();
  rec->trace_cycles = art.certificate.trace.cycles();
  rec->obligation =
      art.checked ? "" : (art.built ? art.obligation : "extraction");
  rec->seconds = art.seconds;
  return art;
}

bool run_verify(const LoadedDesign& design, const VerifyRequest& req,
                TraceSink* sink, bool stream_properties, RunOutput* out,
                std::string* error) {
  *out = RunOutput{};
  const std::vector<std::string> errors = req.validate();
  if (!errors.empty()) {
    *error = "invalid options: " + join_errors(errors);
    return false;
  }
  std::vector<PropertyRequest> props;
  if (!resolve_properties(design.netlist, design.aiger_properties, req.props,
                          &props, error))
    return false;

  SessionOptions sopt;
  sopt.defaults = req.options;
  sopt.workers = req.session_workers;
  sopt.batch_budget_ms = req.batch_budget_ms;
  // One property's records: the property record, then the iteration records
  // of its run. The file and streaming modes both write through this.
  const auto write_property = [&](const PropertyResult& r) {
    sink->record(property_json(r));
    for (size_t i = 0; i < r.stats.per_iteration.size(); ++i)
      sink->record(iteration_json(r.name, i, r.stats.per_iteration[i]));
  };
  if (sink != nullptr && stream_properties) sopt.on_property = write_property;

  // The batch summary diffs the process-global registry against this
  // baseline. With one run per process (the CLI) the diff is exactly this
  // run's work; under rfn_serve, concurrent requests overlap the window,
  // so server-mode summary metrics are process-cumulative, not per-request
  // (documented in DESIGN.md §15).
  out->baseline = MetricsRegistry::global().snapshot();
  const int64_t cpu0 = prof::process_cpu_ns();
  const Stopwatch watch;
  VerifySession session(design.netlist, sopt);
  out->results = session.run(props);
  out->seconds = watch.seconds();

  // Certification happens before the batch summary is rendered so the
  // summary's metrics dump includes the checker's work — the ordering the
  // CLI always had.
  const bool do_certify = req.certify || req.inline_certificates;
  if (do_certify) {
    for (const PropertyResult& r : out->results) {
      if (r.verdict != Verdict::Holds && r.verdict != Verdict::Fails) continue;
      CertificateRecord rec;
      CertificateArtifact art =
          certify_property(design.netlist, r.bad, r.name, r.verdict, r.trace,
                           r.stats.final_registers, &rec);
      out->cert_records.push_back(std::move(rec));
      out->cert_artifacts.push_back(std::move(art));
    }
  }

  if (sink != nullptr) {
    // Streaming mode already wrote each property as its verdict landed
    // (completion order); the file mode writes post-run in request order.
    if (!stream_properties)
      for (const PropertyResult& r : out->results) write_property(r);
    for (const CertificateRecord& rec : out->cert_records)
      sink->record(certificate_json(rec));
    const double cpu_ms =
        static_cast<double>(prof::process_cpu_ns() - cpu0) * 1e-6;
    sink->record(batch_summary_json(out->results, out->seconds, cpu_ms,
                                    &out->baseline,
                                    do_certify ? &out->cert_records : nullptr));
  }

  VerifyResponse& resp = out->response;
  resp.id = req.id;
  resp.ok = true;
  resp.design_hash = design.hash_hex;
  resp.properties = out->results.size();
  resp.seconds = out->seconds;
  for (const PropertyResult& r : out->results) {
    switch (r.verdict) {
      case Verdict::Holds: ++resp.holds; break;
      case Verdict::Fails: ++resp.fails; break;
      case Verdict::Unknown: ++resp.unknown; break;
      case Verdict::ResourceOut: ++resp.resource_out; break;
    }
    PropertyVerdict pv;
    pv.name = r.name;
    pv.verdict = to_string(r.verdict);
    pv.iterations = r.stats.iterations;
    pv.seconds = r.stats.seconds;
    pv.note = r.stats.note;
    resp.results.push_back(std::move(pv));
  }
  resp.certified = do_certify;
  for (size_t i = 0; i < out->cert_records.size(); ++i) {
    ++(out->cert_records[i].ok ? resp.cert_ok : resp.cert_failed);
    if (req.inline_certificates && out->cert_artifacts[i].built) {
      // cert::to_json emits the rfn-cert-v1 document as text; re-parsing it
      // embeds the certificate as structured JSON rather than a string blob.
      json::Value doc =
          json::parse(cert::to_json(out->cert_artifacts[i].certificate));
      if (!doc.is_null()) resp.certificates.push_back(std::move(doc));
    }
  }
  return true;
}

}  // namespace rfn::api
