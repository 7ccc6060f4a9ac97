#include "api/api.hpp"

#include <exception>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cert/format.hpp"
#include "util/stopwatch.hpp"

namespace rfn::api {

namespace {

// --- strict-codec helpers: every shape error names the offending key -------

bool want_string(const json::Value& v, const std::string& ctx, std::string* out,
                 std::string* error) {
  if (!v.is_string()) {
    *error = ctx + " must be a string";
    return false;
  }
  *out = v.as_string();
  return true;
}

bool want_bool(const json::Value& v, const std::string& ctx, bool* out,
               std::string* error) {
  if (!v.is_bool()) {
    *error = ctx + " must be a boolean";
    return false;
  }
  *out = v.as_bool();
  return true;
}

bool want_double(const json::Value& v, const std::string& ctx, double* out,
                 std::string* error) {
  if (!v.is_number()) {
    *error = ctx + " must be a number";
    return false;
  }
  *out = v.as_double();
  return true;
}

bool want_size(const json::Value& v, const std::string& ctx, size_t* out,
               std::string* error) {
  if (!v.is_number() || v.as_double() < 0) {
    *error = ctx + " must be a non-negative number";
    return false;
  }
  *out = static_cast<size_t>(v.as_double());
  return true;
}

bool want_int64(const json::Value& v, const std::string& ctx, int64_t* out,
                std::string* error) {
  if (!v.is_number()) {
    *error = ctx + " must be a number";
    return false;
  }
  *out = static_cast<int64_t>(v.as_double());
  return true;
}

/// Override values arrive as JSON numbers over the wire and as text from
/// --props lines; normalizing to text lets one parser serve both.
std::string override_text(const json::Value& v) {
  return v.is_string() ? v.as_string() : v.dump();
}

}  // namespace

GateId find_signal(const Netlist& n, const std::string& name) {
  GateId g = n.find(name);
  if (g == kNullGate) g = n.output(name);
  return g;
}

bool apply_override(const std::string& key, const std::string& value,
                    PropertySpec* out, std::string* error) {
  // std::stoul accepts a sign and wraps "-1" to 2^64-1: a count must be
  // refused here, before it can become a near-endless run.
  const auto count = [&value] {
    if (value.find('-') != std::string::npos)
      throw std::invalid_argument("negative count");
    return std::stoul(value);
  };
  try {
    if (key == "name") {
      out->name = value;
    } else if (key == "time-limit") {
      out->overrides.time_limit_s = std::stod(value);
    } else if (key == "max-iterations") {
      out->overrides.max_iterations = count();
    } else if (key == "traces") {
      out->overrides.traces_per_iteration = count();
    } else if (key == "budget-ms") {
      out->overrides.budget_ms = std::stod(value);
    } else if (key == "budget-bdd-nodes") {
      out->overrides.budget_bdd_nodes = std::stoll(value);
    } else if (key == "budget-mem-mb") {
      out->overrides.budget_mem_mb = std::stoll(value);
    } else {
      *error = "unknown key '" + key + "'";
      return false;
    }
  } catch (const std::exception&) {
    *error = "invalid value '" + value + "' for '" + key + "'";
    return false;
  }
  return true;
}

bool parse_property_spec(const std::string& line, PropertySpec* out,
                         std::string* error) {
  *out = PropertySpec{};
  std::stringstream ss(line);
  std::string signal;
  ss >> signal;
  if (signal.empty()) {
    *error = "empty property line";
    return false;
  }
  out->signal = signal;
  std::string tok;
  while (ss >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      *error = "expected key=value, got '" + tok + "'";
      return false;
    }
    if (!apply_override(tok.substr(0, eq), tok.substr(eq + 1), out, error))
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// VerifyRequest

std::vector<std::string> VerifyRequest::validate() const {
  // The single choke point: the engine knobs' own validation, of the
  // defaults and then of every property's merged options (what its run
  // will see), prefixed with the property's origin. Session knobs are
  // self-clamping by construction (cluster_by_cone_overlap treats
  // max_cluster_size 0 as 1; non-positive overlap disables clustering).
  std::vector<std::string> errors = options.validate();
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
        if (p.overrides.time_limit_s)
          ov.set("time-limit", *p.overrides.time_limit_s);
        if (p.overrides.max_iterations)
          ov.set("max-iterations", *p.overrides.max_iterations);
        if (p.overrides.traces_per_iteration)
          ov.set("traces", *p.overrides.traces_per_iteration);
        if (p.overrides.budget_ms) ov.set("budget-ms", *p.overrides.budget_ms);
        if (p.overrides.budget_bdd_nodes)
          ov.set("budget-bdd-nodes", *p.overrides.budget_bdd_nodes);
        if (p.overrides.budget_mem_mb)
          ov.set("budget-mem-mb", *p.overrides.budget_mem_mb);
        s.set("overrides", std::move(ov));
      }
      arr.push(std::move(s));
    }
    o.set("props", std::move(arr));
  }

  Value opt = Value::object();
  opt.set("time-limit", options.time_limit_s);
  opt.set("max-iterations", options.max_iterations);
  opt.set("traces", options.traces_per_iteration);
  opt.set("workers", options.portfolio_workers);
  if (!options.engines.empty()) {
    Value engines = Value::array();
    for (const std::string& e : options.engines) engines.push(e);
    opt.set("engines", std::move(engines));
  }
  opt.set("approx-fallback", options.approx_fallback);
  opt.set("proof-shrink", options.proof_shrink);
  opt.set("pdr-max-frames", options.race_pdr_max_frames);
  opt.set("pdr-time", options.race_pdr_time_s);
  opt.set("budget-ms", options.budget_ms);
  opt.set("budget-bdd-nodes", options.budget_bdd_nodes);
  opt.set("budget-mem-mb", options.budget_mem_mb);
  o.set("options", std::move(opt));

  Value sess = Value::object();
  sess.set("cluster-overlap", cluster_overlap);
  sess.set("max-cluster", max_cluster_size);
  sess.set("workers", session_workers);
  sess.set("batch-budget-ms", batch_budget_ms);
  sess.set("reuse", reuse);
  o.set("session", std::move(sess));

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
    if (key == "path") {
      if (!want_string(val, ctx, &out->path, error)) return false;
    } else if (key == "text") {
      if (!want_string(val, ctx, &out->text, error)) return false;
    } else if (key == "format") {
      if (!want_string(val, ctx, &out->format, error)) return false;
    } else if (key == "top") {
      if (!want_string(val, ctx, &out->top, error)) return false;
    } else {
      *error = "unknown key 'design." + key + "'";
      return false;
    }
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
      if (!want_string(val, where + ".signal", &out->signal, error))
        return false;
    } else if (key == "name") {
      if (!want_string(val, where + ".name", &out->name, error)) return false;
    } else if (key == "overrides") {
      if (!val.is_object()) {
        *error = where + ".overrides must be an object";
        return false;
      }
      for (const auto& [ok, ov] : val.members()) {
        std::string why;
        if (!apply_override(ok, override_text(ov), out, &why)) {
          *error = where + ".overrides: " + why;
          return false;
        }
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

bool parse_options(const json::Value& v, RfnOptions* out, std::string* error) {
  if (!v.is_object()) {
    *error = "'options' must be an object";
    return false;
  }
  for (const auto& [key, val] : v.members()) {
    const std::string ctx = "options." + key;
    if (key == "time-limit") {
      if (!want_double(val, ctx, &out->time_limit_s, error)) return false;
    } else if (key == "max-iterations") {
      if (!want_size(val, ctx, &out->max_iterations, error)) return false;
    } else if (key == "traces") {
      if (!want_size(val, ctx, &out->traces_per_iteration, error)) return false;
    } else if (key == "workers") {
      if (!want_size(val, ctx, &out->portfolio_workers, error)) return false;
    } else if (key == "engines") {
      if (!val.is_array()) {
        *error = ctx + " must be an array of engine names";
        return false;
      }
      for (const json::Value& e : val.items()) {
        std::string name;
        if (!want_string(e, ctx + " entry", &name, error)) return false;
        out->engines.push_back(std::move(name));
      }
    } else if (key == "approx-fallback") {
      if (!want_bool(val, ctx, &out->approx_fallback, error)) return false;
    } else if (key == "proof-shrink") {
      if (!want_bool(val, ctx, &out->proof_shrink, error)) return false;
    } else if (key == "pdr-max-frames") {
      if (!want_size(val, ctx, &out->race_pdr_max_frames, error)) return false;
    } else if (key == "pdr-time") {
      if (!want_double(val, ctx, &out->race_pdr_time_s, error)) return false;
    } else if (key == "budget-ms") {
      if (!want_double(val, ctx, &out->budget_ms, error)) return false;
    } else if (key == "budget-bdd-nodes") {
      if (!want_int64(val, ctx, &out->budget_bdd_nodes, error)) return false;
    } else if (key == "budget-mem-mb") {
      if (!want_int64(val, ctx, &out->budget_mem_mb, error)) return false;
    } else {
      *error = "unknown key 'options." + key + "'";
      return false;
    }
  }
  return true;
}

bool parse_session(const json::Value& v, VerifyRequest* out,
                   std::string* error) {
  if (!v.is_object()) {
    *error = "'session' must be an object";
    return false;
  }
  for (const auto& [key, val] : v.members()) {
    const std::string ctx = "session." + key;
    if (key == "cluster-overlap") {
      if (!want_double(val, ctx, &out->cluster_overlap, error)) return false;
    } else if (key == "max-cluster") {
      if (!want_size(val, ctx, &out->max_cluster_size, error)) return false;
    } else if (key == "workers") {
      if (!want_size(val, ctx, &out->session_workers, error)) return false;
    } else if (key == "batch-budget-ms") {
      if (!want_double(val, ctx, &out->batch_budget_ms, error)) return false;
    } else if (key == "reuse") {
      if (!want_bool(val, ctx, &out->reuse, error)) return false;
    } else {
      *error = "unknown key 'session." + key + "'";
      return false;
    }
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
      if (!want_string(val, "'type'", &type, error)) return false;
      if (type != "verify") {
        *error = "unknown request type '" + type + "' (valid: verify)";
        return false;
      }
      saw_type = true;
    } else if (key == "version") {
      std::string version;
      if (!want_string(val, "'version'", &version, error)) return false;
      if (version != kRequestVersion) {
        *error = "unsupported request version '" + version + "' (valid: " +
                 std::string(kRequestVersion) + ")";
        return false;
      }
      saw_version = true;
    } else if (key == "id") {
      if (!want_string(val, "'id'", &out->id, error)) return false;
    } else if (key == "tenant") {
      if (!want_string(val, "'tenant'", &out->tenant, error)) return false;
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
    } else if (key == "options") {
      if (!parse_options(val, &out->options, error)) return false;
    } else if (key == "session") {
      if (!parse_session(val, out, error)) return false;
    } else if (key == "certify") {
      if (!want_bool(val, "'certify'", &out->certify, error)) return false;
    } else if (key == "inline-certificates") {
      if (!want_bool(val, "'inline-certificates'", &out->inline_certificates,
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
  o.set("clusters", clusters);
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
    e.set("cluster", r.cluster);
    e.set("clustered", r.clustered);
    e.set("order_seeded", r.order_seeded);
    e.set("seeded_registers", r.seeded_registers);
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
  Value warm_o = Value::object();
  warm_o.set("enabled", warm.enabled);
  warm_o.set("hit", warm.hit);
  warm_o.set("hits", warm.hits);
  warm_o.set("misses", warm.misses);
  warm_o.set("evictions", warm.evictions);
  warm_o.set("entries", warm.entries);
  warm_o.set("bytes", warm.bytes);
  warm_o.set("order_warm", warm.order_warm);
  warm_o.set("sat_pool_entries", warm.sat_pool_entries);
  o.set("warm_cache", std::move(warm_o));
  o.set("seconds", seconds);
  return o;
}

bool VerifyResponse::from_json(const json::Value& v, VerifyResponse* out,
                               std::string* error) {
  *out = VerifyResponse{};
  if (!v.is_object()) {
    *error = "response must be a JSON object";
    return false;
  }
  const json::Value* version = v.find("version");
  if (version == nullptr || !version->is_string() ||
      version->as_string() != kResponseVersion) {
    *error = "not an rfn-resp-v1 response";
    return false;
  }
  for (const auto& [key, val] : v.members()) {
    if (key == "type" || key == "version") {
      continue;
    } else if (key == "id") {
      if (!want_string(val, "'id'", &out->id, error)) return false;
    } else if (key == "ok") {
      if (!want_bool(val, "'ok'", &out->ok, error)) return false;
    } else if (key == "error") {
      if (!want_string(val, "'error'", &out->error, error)) return false;
    } else if (key == "reject_reason") {
      if (!want_string(val, "'reject_reason'", &out->reject_reason, error))
        return false;
    } else if (key == "design_hash") {
      if (!want_string(val, "'design_hash'", &out->design_hash, error))
        return false;
    } else if (key == "properties") {
      if (!want_size(val, "'properties'", &out->properties, error))
        return false;
    } else if (key == "clusters") {
      if (!want_size(val, "'clusters'", &out->clusters, error)) return false;
    } else if (key == "verdicts") {
      if (!val.is_object()) {
        *error = "'verdicts' must be an object";
        return false;
      }
      for (const auto& [vk, vv] : val.members()) {
        size_t n = 0;
        if (!want_size(vv, "verdicts." + vk, &n, error)) return false;
        if (vk == to_string(Verdict::Holds)) out->holds = n;
        else if (vk == to_string(Verdict::Fails)) out->fails = n;
        else if (vk == to_string(Verdict::Unknown)) out->unknown = n;
        else if (vk == to_string(Verdict::ResourceOut)) out->resource_out = n;
        else {
          *error = "unknown verdict '" + vk + "'";
          return false;
        }
      }
    } else if (key == "results") {
      if (!val.is_array()) {
        *error = "'results' must be an array";
        return false;
      }
      for (const json::Value& e : val.items()) {
        if (!e.is_object()) {
          *error = "results entries must be objects";
          return false;
        }
        PropertyVerdict r;
        for (const auto& [rk, rv] : e.members()) {
          const std::string ctx = "results." + rk;
          if (rk == "name") {
            if (!want_string(rv, ctx, &r.name, error)) return false;
          } else if (rk == "verdict") {
            if (!want_string(rv, ctx, &r.verdict, error)) return false;
          } else if (rk == "cluster") {
            if (!want_size(rv, ctx, &r.cluster, error)) return false;
          } else if (rk == "clustered") {
            if (!want_bool(rv, ctx, &r.clustered, error)) return false;
          } else if (rk == "order_seeded") {
            if (!want_bool(rv, ctx, &r.order_seeded, error)) return false;
          } else if (rk == "seeded_registers") {
            if (!want_size(rv, ctx, &r.seeded_registers, error)) return false;
          } else if (rk == "iterations") {
            if (!want_size(rv, ctx, &r.iterations, error)) return false;
          } else if (rk == "seconds") {
            if (!want_double(rv, ctx, &r.seconds, error)) return false;
          } else if (rk == "note") {
            if (!want_string(rv, ctx, &r.note, error)) return false;
          } else {
            *error = "unknown key '" + ctx + "'";
            return false;
          }
        }
        out->results.push_back(std::move(r));
      }
    } else if (key == "certificates") {
      if (!val.is_object()) {
        *error = "'certificates' must be an object";
        return false;
      }
      out->certified = true;
      for (const auto& [ck, cv] : val.members()) {
        if (ck == "ok") {
          if (!want_size(cv, "certificates.ok", &out->cert_ok, error))
            return false;
        } else if (ck == "failed") {
          if (!want_size(cv, "certificates.failed", &out->cert_failed, error))
            return false;
        } else if (ck == "docs") {
          if (!cv.is_array()) {
            *error = "certificates.docs must be an array";
            return false;
          }
          for (const json::Value& doc : cv.items())
            out->certificates.push_back(doc);
        } else {
          *error = "unknown key 'certificates." + ck + "'";
          return false;
        }
      }
    } else if (key == "warm_cache") {
      if (!val.is_object()) {
        *error = "'warm_cache' must be an object";
        return false;
      }
      for (const auto& [wk, wv] : val.members()) {
        const std::string ctx = "warm_cache." + wk;
        if (wk == "enabled") {
          if (!want_bool(wv, ctx, &out->warm.enabled, error)) return false;
        } else if (wk == "hit") {
          if (!want_bool(wv, ctx, &out->warm.hit, error)) return false;
        } else if (wk == "hits") {
          if (!want_size(wv, ctx, &out->warm.hits, error)) return false;
        } else if (wk == "misses") {
          if (!want_size(wv, ctx, &out->warm.misses, error)) return false;
        } else if (wk == "evictions") {
          if (!want_size(wv, ctx, &out->warm.evictions, error)) return false;
        } else if (wk == "entries") {
          if (!want_size(wv, ctx, &out->warm.entries, error)) return false;
        } else if (wk == "bytes") {
          if (!want_int64(wv, ctx, &out->warm.bytes, error)) return false;
        } else if (wk == "order_warm") {
          if (!want_bool(wv, ctx, &out->warm.order_warm, error)) return false;
        } else if (wk == "sat_pool_entries") {
          if (!want_size(wv, ctx, &out->warm.sat_pool_entries, error))
            return false;
        } else {
          *error = "unknown key '" + ctx + "'";
          return false;
        }
      }
    } else if (key == "seconds") {
      if (!want_double(val, "'seconds'", &out->seconds, error)) return false;
    } else {
      *error = "unknown key '" + key + "'";
      return false;
    }
  }
  return true;
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
      PropertyRequest p;
      p.bad = bad;
      p.name = s.name;
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
  CertificateArtifact art =
      certify_with_witness(design, bad, name, verdict, trace, final_registers,
                           {}, pdr_invariant);
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
                TraceSink* sink, bool stream_properties, ReuseCache* warm,
                RunOutput* out, std::string* error) {
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
  sopt.cluster_overlap = req.cluster_overlap;
  sopt.max_cluster_size = req.max_cluster_size;
  sopt.workers = req.session_workers;
  sopt.batch_budget_ms = req.batch_budget_ms;
  sopt.reuse = req.reuse;
  sopt.shared_cache = warm;
  // One property's records: the property record, then the iteration records
  // of the engine run that answered it. Clustered members of one shared run
  // hold copies of the same RfnResult (same cluster, same metrics epoch);
  // that run's iterations go out once, under the first member written. The
  // file and streaming modes both write through this.
  std::set<std::pair<size_t, uint64_t>> shared_runs;
  const auto write_property = [&](const PropertyResult& r) {
    sink->record(property_json(r));
    if (r.clustered &&
        !shared_runs.insert({r.cluster, r.stats.metrics_epoch}).second)
      return;
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
  const Stopwatch watch;
  VerifySession session(design.netlist, sopt);
  out->results = session.run(props);
  out->seconds = watch.seconds();
  out->clusters = session.clusters().size();

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
                           r.stats.final_registers, &rec,
                           r.stats.pdr_invariant.present
                               ? &r.stats.pdr_invariant
                               : nullptr);
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
    sink->record(batch_summary_json(out->results, out->clusters, out->seconds,
                                    &out->baseline,
                                    do_certify ? &out->cert_records : nullptr));
  }

  VerifyResponse& resp = out->response;
  resp.id = req.id;
  resp.ok = true;
  resp.design_hash = design.hash_hex;
  resp.properties = out->results.size();
  resp.clusters = out->clusters;
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
    pv.cluster = r.cluster;
    pv.clustered = r.clustered;
    pv.order_seeded = r.order_seeded;
    pv.seeded_registers = r.seeded_registers;
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
