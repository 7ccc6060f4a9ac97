#pragma once
// rfn::api — the request/response surface every front door drives.
//
// Before this facade, tools/rfn_cli.cpp owned the whole parse → validate →
// load-design → run-session pipeline inline (~770 lines), which made a
// long-lived server impossible to build without forking that logic. The
// redesign splits the pipeline into data and one run path:
//
//   VerifyRequest   — everything a verification asks for: the design
//                     (api::DesignRef), the property set (PropertySpec),
//                     the engine knobs (RfnOptions embedded verbatim) and
//                     the session knobs. Serializes as rfn-req-v1; the CLI
//                     builds the same struct from flags, so a request over
//                     a socket and a command line are the same computation.
//   run_verify      — the one shared run path: validate (the single choke
//                     point calling VerifyRequest::validate), resolve
//                     properties, run the VerifySession, certify, and emit
//                     rfn-trace-v2 records through a TraceSink (file sink =
//                     the historical --trace-json bytes; callback sink =
//                     the server's mid-run streaming).
//   VerifyResponse  — the final verdict document (rfn-resp-v1): per-
//                     property verdicts, verdict counts, certificate
//                     outcomes, wall time.
//
// The schemas are versioned ("rfn-req-v1"/"rfn-resp-v1") and the codecs are
// strict: unknown keys are rejected, so a typo'd option fails the request
// instead of silently running with defaults. Every knob a client can set is
// one entry of knobs() below; the flag, --props and JSON codecs all walk
// that list, so the doors cannot drift apart.

#include <cstddef>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "api/load.hpp"
#include "api/sink.hpp"
#include "core/certificate.hpp"
#include "core/rfn.hpp"
#include "core/session.hpp"
#include "core/trace_json.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/options.hpp"

namespace rfn::api {

inline constexpr const char* kRequestVersion = "rfn-req-v1";
inline constexpr const char* kResponseVersion = "rfn-resp-v1";

/// Resolves a property signal the way every front door always has: by gate
/// name first, then by output name.
GateId find_signal(const Netlist& n, const std::string& name);

/// One property selection inside a request, before resolution against the
/// loaded design. The overrides are the knobs marked overridable in knobs().
struct PropertySpec {
  /// Signal name in the design (gate or output name).
  std::string signal;
  /// Label override; empty names the property by its signal.
  std::string name;
  PropertyRequest::Overrides overrides;
  /// Diagnostic prefix for resolution and validation errors ("props line
  /// 3", "props[0]"); never serialized.
  std::string origin;
};

struct VerifyRequest;

/// One externally settable knob: a key of the rfn-req-v1 "options" or
/// "session" object. The key is also the knob's --props / "overrides" key
/// and, unless `flag` says otherwise, its CLI flag (--key). The knob's type
/// is the C++ type of the field it sets: double a number, size_t a
/// non-negative integer count and int64_t an integer.
struct Knob {
  using Field = std::variant<double*, size_t*, int64_t*>;
  using Override =
      std::variant<std::optional<double>*, std::optional<size_t>*,
                   std::optional<int64_t>*>;

  /// "options" or "session".
  const char* group;
  const char* key;
  /// The VerifyRequest field the knob sets. Its default is that field's
  /// member initializer — the one default every door shares.
  Field (*field)(VerifyRequest&);
  /// The per-property slot a --props line or an "overrides" object sets;
  /// null when the knob is request-wide only.
  Override (*override_field)(PropertyRequest::Overrides&) = nullptr;
  /// CLI spelling when it is not the key.
  const char* flag = nullptr;

  std::string cli_flag() const { return flag != nullptr ? flag : key; }
};

/// The knob list: 4 "options" knobs, then 2 "session" knobs.
const std::vector<Knob>& knobs();

/// A verification request: rfn-req-v1.
///
///   {"type":"verify","version":"rfn-req-v1","id":"..","tenant":"..",
///    "design":{"path":"..","text":"..","format":"..","top":".."},
///    "props":[{"signal":"..","name":"..","overrides":{..}}],
///    "options":{..},"session":{..},
///    "certify":..,"inline-certificates":..}
///
/// The keys of "options", "session" and "overrides" are the knobs() list.
/// Every field except "type"/"version"/"design" is optional and defaults as
/// the CLI always has. An empty "props" falls back to the design's AIGER
/// property list, then to the conventional "bad" signal.
struct VerifyRequest {
  /// Client-chosen id, echoed in every record and the response.
  std::string id;
  /// Fair-share scheduling key (the server's admission unit). Empty is a
  /// valid tenant of its own.
  std::string tenant;
  DesignRef design;
  std::vector<PropertySpec> props;
  /// Engine knobs, embedded verbatim — RfnOptions::validate() is the single
  /// validation choke point for them (called from validate() below). The
  /// defaults are RfnOptions' own except the wall-clock limit: a request
  /// runs under 300 s, as the CLI always has.
  RfnOptions options = [] {
    RfnOptions o;
    o.time_limit_s = 300.0;
    return o;
  }();
  // Session knobs (SessionOptions sans defaults/on_property).
  size_t session_workers = 0;
  double batch_budget_ms = -1.0;
  /// Certify every conclusive verdict through the independent SAT checker.
  bool certify = false;
  /// Ship each built rfn-cert-v1 document inline in the response.
  bool inline_certificates = false;

  // Unread shims for out-of-tree callers that still read the removed cone-
  // clustering knobs and the removed warm-state switch: no door sets them
  // and no run reads them.
  double cluster_overlap = 0.5;
  size_t max_cluster_size = 4;
  bool reuse = true;

  /// The one validation choke point: RfnOptions::validate() of the
  /// defaults, each error prefixed with the knob that alone raises it, then
  /// (when those are valid) of each property's merged options
  /// (merge_overrides), prefixed with the property's origin. Empty means
  /// valid.
  std::vector<std::string> validate() const;

  json::Value to_json() const;
  /// Strict rfn-req-v1 parse: wrong type/version, non-object shapes, and
  /// unknown keys are all errors.
  static bool from_json(const json::Value& v, VerifyRequest* out,
                        std::string* error);
  /// The same request from a command line `CMD DESIGN [flags]`: the design
  /// (DESIGN, --top, --aiger), every --bad, every --props file line,
  /// --certify (--cert-dir implies it) and every knob flag. As strict as
  /// from_json: a missing or extra positional, a flag that is neither one
  /// of these nor in `also_known` (the caller's own flags), and a value
  /// that fails its knob's type are errors naming the argument.
  static bool from_flags(const Options& opts,
                         const std::vector<std::string>& also_known,
                         VerifyRequest* out, std::string* error);
};

/// Per-property verdict inside a response.
struct PropertyVerdict {
  std::string name;
  std::string verdict;  // "T" | "F" | "?" | "resource-out"
  size_t iterations = 0;
  double seconds = 0.0;
  std::string note;
};

/// The final verdict document: rfn-resp-v1.
///
///   {"type":"response","version":"rfn-resp-v1","id":"..","ok":..,
///    ["error":"..","reject_reason":"..",]              // failures only
///    "design_hash":"..","properties":..,
///    "verdicts":{"T":..,"F":..,"?":..,"resource-out":..},
///    "results":[{"name":..,"verdict":..,"iterations":..,"seconds":..,
///                "note":..}],
///    ["certificates":{"ok":..,"failed":..[,"docs":[..]]},]  // certify only
///    "seconds":..}
struct VerifyResponse {
  std::string id;
  bool ok = false;
  std::string error;
  /// Named admission-control reason when the server rejected the request
  /// without running it: "queue-full", "time-oversubscribed",
  /// "mem-oversubscribed", "bdd-oversubscribed", "load-failed",
  /// "bad-request".
  std::string reject_reason;
  std::string design_hash;
  size_t properties = 0;
  size_t holds = 0, fails = 0, unknown = 0, resource_out = 0;
  std::vector<PropertyVerdict> results;
  bool certified = false;
  size_t cert_ok = 0, cert_failed = 0;
  /// Inline rfn-cert-v1 documents (VerifyRequest::inline_certificates).
  std::vector<json::Value> certificates;
  double seconds = 0.0;

  json::Value to_json() const;
  /// A failure response (admission rejects, malformed requests).
  static VerifyResponse reject(const std::string& id, const std::string& reason,
                               const std::string& detail);
};

/// Resolves the request's property selection against the loaded design:
/// explicit specs first (named by their label, else by their signal), else
/// the design's AIGER property list, else the conventional "bad" signal.
/// False with a one-line error (prefixed by the spec's origin, when set) on
/// unknown signals.
bool resolve_properties(const Netlist& n,
                        const std::vector<aiger::AigerProperty>& aiger_props,
                        const std::vector<PropertySpec>& specs,
                        std::vector<PropertyRequest>* out, std::string* error);

/// Builds + checks the witness for one concluded property and flattens the
/// outcome into the rfn-trace-v2 certificate record (no file I/O — callers
/// owning a --cert-dir write the artifact themselves). The trailing
/// parameter is kept only so older callers compile: no engine produces an
/// invariant witness, and a present one is refused.
CertificateArtifact certify_property(const Netlist& design, GateId bad,
                                     const std::string& name, Verdict verdict,
                                     const Trace& trace,
                                     const std::vector<GateId>& final_registers,
                                     CertificateRecord* rec,
                                     const PdrInvariantWitness* pdr_invariant = nullptr);

/// Everything run_verify produced, for callers that post-process beyond the
/// response (the CLI's table, witness export, cert-dir writing).
struct RunOutput {
  VerifyResponse response;
  std::vector<PropertyResult> results;
  /// Parallel arrays: one record + artifact per certified property.
  std::vector<CertificateRecord> cert_records;
  std::vector<CertificateArtifact> cert_artifacts;
  double seconds = 0.0;
  /// Metrics snapshot taken when the run started (scopes the batch-summary
  /// metrics dump and the CLI's engine table).
  MetricsSnapshot baseline;
};

/// The one run path, for a single property as for a suite: validate →
/// resolve properties → VerifySession → certify → emit rfn-trace-v2 through
/// `sink` (null skips emission).
///
/// Each property record is followed by the iteration records of its run
/// (see core/trace_json.hpp).
/// `stream_properties` false (the CLI) emits them post-run in request
/// order; true (the server) emits them as each verdict lands (completion
/// order). Certificates and the batch summary follow post-run either way.
///
/// Returns false — with a one-line `error` and nothing emitted — on invalid
/// options or unresolvable properties; the design is assumed loaded.
bool run_verify(const LoadedDesign& design, const VerifyRequest& req,
                TraceSink* sink, bool stream_properties, RunOutput* out,
                std::string* error);

// Unread shim for out-of-tree callers that still pass the removed warm-state
// argument (always null): forwards to the form above.
inline bool run_verify(const LoadedDesign& design, const VerifyRequest& req,
                       TraceSink* sink, bool stream_properties, std::nullptr_t,
                       RunOutput* out, std::string* error) {
  return run_verify(design, req, sink, stream_properties, out, error);
}

}  // namespace rfn::api
