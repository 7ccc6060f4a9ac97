#!/usr/bin/env python3
"""Offline analyzer for rfn span traces (Chrome trace-event JSON).

Folds a file produced by `rfn verify ... --trace-spans FILE` into a
per-engine / per-iteration wall-time breakdown:

    tools/trace_report.py spans.json [--top N]

Validates the file first (schema "rfn-spans-v1": version tag, per-thread
monotonic timestamps, balanced begin/end pairs, known phases) and exits
nonzero with a diagnostic on a malformed trace, so it doubles as the format
checker in tests and CI. `--self-check` runs the validators against
built-in good and bad synthetic traces and needs no input file.

With `--folded` the span file is instead rendered as collapsed stacks for
flamegraph.pl: one "thread;outer;inner <self-microseconds>" line per
distinct stack, sorted. A span's self time is its duration minus its
children's, so per thread the lines sum to the durations of that thread's
root spans (`--self-check` checks this on a two-thread synthetic trace).

With `--batch` the input is instead an rfn-trace-v2 JSON Lines file from
`rfn verify ... --trace-json FILE` (one property or many): one "property"
record per property, each followed by the "iteration" records of its
run, then — for --certify runs — one
"certificate" record per conclusive property, plus a final
"batch-summary". The validator checks the version tag, the per-record
shape, the verdict and certificate-kind spellings, the verdict rule (a
`resource-out` property names the budget that stopped it in `budget_trip`,
a `?` property carries none, and `T`/`F` may carry one, as a verdict
reached before the trip is kept), that a failed
certification names its failing obligation (and a successful one does
not), that the summary's property/verdict/certificate counts match the
records, and that the summary reports what the run cost: its process CPU
(`cpu_ms`) and peak RSS (`peak_rss_bytes`) as nonnegative numbers. Per
iteration record it checks that every block is present, that the Step-2
reach and Step-3 concretize wall times (`reach.seconds`,
`concretize.seconds`) are nonnegative numbers, that it names the property
it follows, that iterations are numbered densely from 0, and that their
count equals the property's `iterations`; and that an iteration without
an abstract error trace (`trace_cycles` 0, so Step 3 did not run) has
concretize status `none`, while one with a trace names Step 3's outcome
(`sat`, `unsat` or `abort`). It then prints a per-property table, a
per-iteration table with the reach and concretize times, and a
certification summary line when certificates were recorded. The BDD
arena's peak bytes are printed from the summary's
`metrics.gauges["bdd.heap_bytes"].max` when the metrics carry it, and
beside them the nodes sifting rewrote (`metrics.counters["bdd.sift_rewrites"]`)
and the sift undo journal's peak bytes, which lie outside the arena
(`metrics.gauges["bdd.sift_journal_bytes"].max`). When the counters carry
`atpg.seq.calls`, the sequential ATPG questions are printed with, beside
them, those refuted before any time-frame view was built
(`atpg.seq.refuted_early`); every such question is an Unsat, so the count
may not exceed `atpg.seq.unsat`.

With `--trajectory A B ...` the inputs are several rfn-trace-v2 files of
the same property set (say, repeated runs of one command): each is
validated as for --batch, and the tool exits nonzero unless every file
reports the same property records and the same iteration records, field
by field, and names the first field that differs. Fields that may differ
between runs of one trajectory are left out: timing (`seconds`, `cpu_ms`,
`at_seconds`, `rss_bytes`) and the computed-table counts
(`cache_lookups`, `cache_hits`, `cache_hit_rate`), which follow the BDD
manager's internal node ids.

With `--corpus` the input is an rfn-corpus-v1 or -v2 summary from
tools/corpus_run.py. The validator checks the schema tag, the per-file and
per-property record shapes, the verdict spellings, and that the totals
block agrees with the records, then prints a per-file table. v2 records
additionally carry per-file resource columns (peak_rss_bytes, cpu_ms),
which the validator requires to be nonnegative numbers; v1 baselines
remain readable for the CI gate's back-compat.

With `--serve` the input is a server session log: the JSON Lines a client
(or the CI replay script) captured from one rfn_serve connection —
streamed rfn-trace-v2 records interleaved with rfn-resp-v1 response
lines. Requests on one connection are served sequentially, so the log
groups as [records..., response] repeated. The validator checks every
response's version tag and shape, that each ok verify response's preceding
record group is a well-formed rfn-trace-v2 stream (reusing the --batch
validator) whose property counts and verdicts match the response document,
that rejected requests name a known reject_reason and streamed nothing,
and that no response or streamed property record carries a field of the
removed warm-state cache (`warm_cache`, `order_seeded`,
`seeded_registers`): the server runs every request cold. It then prints a
per-request table.

Report sections:
  * run summary — total wall time from the session.run span, or the
    first rfn.run span for traces without one (machine-readable as
    `total_wall_s=...`), dropped-event count, one `verdict=` line per
    rfn.run (a suite runs several), any budget-trip annotation;
  * top-N hottest spans by self time (time in the span minus time in its
    children on the same thread);
  * per-iteration timeline (rfn.iteration spans), grouped by the rfn.run
    that contains them.
"""

import argparse
import collections
import json
import signal
import sys

# Die quietly when the consumer closes the pipe (trace_report ... | head).
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

TRACE_VERSION = "rfn-spans-v1"
BATCH_TRACE_VERSION = "rfn-trace-v2"
# Per-iteration record shape in rfn-trace-v2: every block is always present.
ITERATION_KEYS = ("property", "iter", "abstraction", "reach", "bdd", "hybrid",
                  "trace_cycles", "concretize", "refine", "seconds")
# The blocks that carry their step's wall time (0 when the step did not
# run): Step 2's fixpoint and Step 3's concretization.
TIMED_STEPS = ("reach", "concretize")
# Step 3's outcomes; "none" marks an iteration in which Step 3 did not run.
CONCRETIZE_STATUSES = ("sat", "unsat", "abort")
VERDICTS = ("T", "F", "?", "resource-out")
PROPERTY_KEYS = ("name", "bad", "verdict", "iterations", "seconds")
# What a batch cost: process CPU and the process's peak resident set.
SUMMARY_COST_KEYS = ("cpu_ms", "peak_rss_bytes")
CERTIFICATE_KEYS = ("property", "kind", "ok", "clauses", "trace_cycles",
                    "obligation", "seconds")
CERTIFICATE_KINDS = ("holds-invariant", "fails-trace")
CORPUS_SCHEMA = "rfn-corpus-v2"
CORPUS_SCHEMA_V1 = "rfn-corpus-v1"
CORPUS_STATUSES = ("ok", "resource-out", "error")
CORPUS_PROPERTY_KEYS = ("name", "verdict", "certified")
# v2 adds per-file resource columns, read from each file's batch summary.
CORPUS_V2_FILE_KEYS = ("peak_rss_bytes", "cpu_ms")
RESPONSE_VERSION = "rfn-resp-v1"
REJECT_REASONS = ("queue-full", "time-oversubscribed", "mem-oversubscribed",
                  "bdd-oversubscribed", "load-failed", "bad-request")
# Fields of the deleted warm-state cache: a response carrying one comes from
# a server that does not run every request cold.
WARM_RESPONSE_KEYS = ("warm_cache",)
WARM_PROPERTY_KEYS = ("order_seeded", "seeded_registers")


class TraceError(Exception):
    pass


def fail(msg):
    raise TraceError(msg)


def validate(doc):
    """Checks the document shape; returns the duration-event list."""
    if not isinstance(doc, dict):
        fail("top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents missing or not a list")
    other = doc.get("otherData", {})
    version = other.get("trace_version")
    if version != TRACE_VERSION:
        fail(f"trace_version is {version!r}, expected {TRACE_VERSION!r}")

    last_ts = {}
    depth = collections.defaultdict(int)
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph is None:
            fail(f"event {i} has no ph")
        if ph == "M":
            continue
        tid = e.get("tid")
        ts = e.get("ts")
        if tid is None or ts is None:
            fail(f"event {i} ({e.get('name')!r}) lacks tid/ts")
        if ts < last_ts.get(tid, 0.0):
            fail(f"event {i} ({e.get('name')!r}): timestamp {ts} goes "
                 f"backwards on tid {tid}")
        last_ts[tid] = ts
        if ph == "B":
            depth[tid] += 1
        elif ph == "E":
            if depth[tid] == 0:
                fail(f"event {i} ({e.get('name')!r}): end without begin on "
                     f"tid {tid}")
            depth[tid] -= 1
        elif ph != "i":
            fail(f"event {i}: unknown phase {ph!r}")
    for tid, d in depth.items():
        if d != 0:
            fail(f"tid {tid} has {d} unclosed span(s)")
    return events


def validate_iteration(r, where):
    """Checks one rfn-trace-v2 iteration record's blocks."""
    for key in ITERATION_KEYS:
        if key not in r:
            fail(f"{where} lacks {key!r}")
    for step in TIMED_STEPS:
        block = r[step]
        if not isinstance(block, dict):
            fail(f"{where}: {step} block is not an object")
        value = block.get("seconds")
        if not _nonneg_number(value):
            fail(f"{where}: {step}.seconds is {value!r}, expected a "
                 f"nonnegative number")
    if not isinstance(r["refine"], dict):
        fail(f"{where}: refine block is not an object")
    # Phase 1 proposes conflict candidates or, when there are none, the
    # frequency fallback's: never both.
    if r["refine"].get("conflict_candidates") and \
            r["refine"].get("fallback_candidates"):
        fail(f"{where}: refine block counts both conflict and fallback "
             f"candidates")
    status = r["concretize"].get("status")
    if r["trace_cycles"] == 0 and status != "none":
        fail(f"{where}: concretize status is {status!r} without an abstract "
             f"trace (trace_cycles 0), expected 'none'")
    if r["trace_cycles"] != 0 and status not in CONCRETIZE_STATUSES:
        fail(f"{where}: concretize status is {status!r} after a "
             f"{r['trace_cycles']}-cycle abstract trace, expected one of "
             f"{', '.join(CONCRETIZE_STATUSES)}")


def validate_batch(records):
    """Checks an rfn-trace-v2 record list (one parsed JSONL object per
    line); returns (property_records, iteration_records,
    certificate_records, summary)."""
    if not records:
        fail("empty batch trace")
    summary = records[-1]
    if summary.get("type") != "batch-summary":
        fail(f"last record has type {summary.get('type')!r}, "
             f"expected 'batch-summary'")
    version = summary.get("trace_version")
    if version != BATCH_TRACE_VERSION:
        fail(f"trace_version is {version!r}, expected {BATCH_TRACE_VERSION!r}")
    props, iters, certs = [], [], []
    # Iteration records of each property, keyed by its index in `props`.
    runs = []
    for i, r in enumerate(records[:-1]):
        kind = r.get("type")
        if kind == "property":
            if certs:
                fail(f"record {i}: property record after certificate records")
            props.append(r)
            runs.append([])
        elif kind == "iteration":
            if not props or certs:
                fail(f"record {i}: iteration record outside a property's "
                     f"record group")
            where = f"record {i} (iteration of {props[-1].get('name')!r})"
            validate_iteration(r, where)
            if r["property"] != props[-1].get("name"):
                fail(f"{where} names property {r['property']!r}")
            if r["iter"] != len(runs[-1]):
                fail(f"{where} is numbered {r['iter']!r}, expected "
                     f"{len(runs[-1])}")
            runs[-1].append(r)
            iters.append(r)
        elif kind == "certificate":
            certs.append(r)
        else:
            fail(f"record {i} has type {kind!r}, expected 'property', "
                 f"'iteration' or 'certificate'")
    counts = collections.Counter()
    for i, r in enumerate(props):
        for key in PROPERTY_KEYS:
            if key not in r:
                fail(f"property record {i} ({r.get('name')!r}) lacks {key!r}")
        verdict = r["verdict"]
        if verdict not in VERDICTS:
            fail(f"property record {i} ({r['name']!r}): unknown verdict "
                 f"{verdict!r}")
        counts[verdict] += 1
        if verdict == "resource-out" and "budget_trip" not in r:
            fail(f"property record {i} ({r['name']!r}) is resource-out "
                 f"without a budget_trip naming the budget")
        if verdict == "?" and "budget_trip" in r:
            fail(f"property record {i} ({r['name']!r}) is '?' but carries a "
                 f"budget_trip: a run a budget stopped is resource-out")
        have = len(runs[i])
        if have != r["iterations"]:
            fail(f"property record {i} ({r['name']!r}) counts "
                 f"{r['iterations']} iterations, {have} iteration records "
                 f"follow it")
    cert_counts = collections.Counter()
    for i, r in enumerate(certs):
        for key in CERTIFICATE_KEYS:
            if key not in r:
                fail(f"certificate record {i} ({r.get('property')!r}) lacks "
                     f"{key!r}")
        if r["kind"] not in CERTIFICATE_KINDS:
            fail(f"certificate record {i} ({r['property']!r}): unknown kind "
                 f"{r['kind']!r}")
        if r["ok"] and r["obligation"]:
            fail(f"certificate record {i} ({r['property']!r}): ok but names "
                 f"a failing obligation {r['obligation']!r}")
        if not r["ok"] and not r["obligation"]:
            fail(f"certificate record {i} ({r['property']!r}): failed "
                 f"without naming the refuted obligation")
        cert_counts["ok" if r["ok"] else "failed"] += 1
    if summary.get("properties") != len(props):
        fail(f"summary counts {summary.get('properties')} properties, the "
             f"document has {len(props)} property records")
    declared = summary.get("verdicts", {})
    for verdict in VERDICTS:
        if declared.get(verdict, 0) != counts[verdict]:
            fail(f"summary says {declared.get(verdict, 0)} x {verdict!r}, "
                 f"property records say {counts[verdict]}")
    declared_certs = summary.get("certificates")
    if certs and declared_certs is None:
        fail("certificate records present but the summary has no "
             "'certificates' counts")
    if declared_certs is not None:
        for key in ("ok", "failed"):
            if declared_certs.get(key, 0) != cert_counts[key]:
                fail(f"summary says {declared_certs.get(key, 0)} {key} "
                     f"certificate(s), records say {cert_counts[key]}")
    for key in SUMMARY_COST_KEYS:
        if not _nonneg_number(summary.get(key)):
            fail(f"summary {key} is {summary.get(key)!r}, expected a "
                 f"nonnegative number")
    metrics = summary.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            fail("summary metrics is not an object")
        counters = metrics.get("counters", {})
        if not isinstance(counters, dict):
            fail("summary metrics.counters is not an object")
        early = counters.get("atpg.seq.refuted_early", 0)
        if early > counters.get("atpg.seq.unsat", 0):
            fail(f"summary counts {early} early-refuted ATPG question(s) "
                 f"but {counters.get('atpg.seq.unsat', 0)} Unsat")
    return props, iters, certs, summary


def validate_corpus(doc):
    """Checks an rfn-corpus-v1/-v2 summary; returns the file-record list."""
    if not isinstance(doc, dict):
        fail("top level is not an object")
    schema = doc.get("schema")
    if schema not in (CORPUS_SCHEMA, CORPUS_SCHEMA_V1):
        fail(f"schema is {schema!r}, expected {CORPUS_SCHEMA!r} "
             f"(or {CORPUS_SCHEMA_V1!r} for old baselines)")
    v2 = schema == CORPUS_SCHEMA
    files = doc.get("files")
    if not isinstance(files, list):
        fail("files missing or not a list")
    verdicts = collections.Counter()
    certified = 0
    n_props = 0
    seen_files = set()
    for i, rec in enumerate(files):
        name = rec.get("file")
        if not name:
            fail(f"file record {i} has no 'file'")
        if name in seen_files:
            fail(f"file record {i}: duplicate file {name!r}")
        seen_files.add(name)
        if rec.get("status") not in CORPUS_STATUSES:
            fail(f"file record {i} ({name!r}): unknown status "
                 f"{rec.get('status')!r}")
        props = rec.get("properties")
        if not isinstance(props, list):
            fail(f"file record {i} ({name!r}): properties missing or not "
                 f"a list")
        if rec.get("status") == "ok" and not props:
            fail(f"file record {i} ({name!r}): status ok with no "
                 f"properties — every AIGER corpus file carries at least "
                 f"one bad")
        if v2:
            for key in CORPUS_V2_FILE_KEYS:
                value = rec.get(key)
                if not isinstance(value, (int, float)) or \
                        isinstance(value, bool) or value < 0:
                    fail(f"file record {i} ({name!r}): {key!r} missing or "
                         f"not a nonnegative number (got {value!r})")
        for j, p in enumerate(props):
            for key in CORPUS_PROPERTY_KEYS:
                if key not in p:
                    fail(f"{name}: property record {j} lacks {key!r}")
            if p["verdict"] not in VERDICTS:
                fail(f"{name}: property {p['name']!r}: unknown verdict "
                     f"{p['verdict']!r}")
            if not isinstance(p["certified"], bool):
                fail(f"{name}: property {p['name']!r}: certified is not "
                     f"a boolean")
            verdicts[p["verdict"]] += 1
            certified += p["certified"]
            n_props += 1
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        fail("totals missing or not an object")
    if totals.get("files") != len(files):
        fail(f"totals say {totals.get('files')} files, the document has "
             f"{len(files)} file records")
    if totals.get("properties") != n_props:
        fail(f"totals say {totals.get('properties')} properties, the "
             f"records have {n_props}")
    declared = totals.get("verdicts", {})
    for v in VERDICTS:
        if declared.get(v, 0) != verdicts[v]:
            fail(f"totals say {declared.get(v, 0)} x {v!r}, the records "
                 f"say {verdicts[v]}")
    if totals.get("certified") != certified:
        fail(f"totals say {totals.get('certified')} certified, the records "
             f"say {certified}")
    return files


def _nonneg_number(value):
    return isinstance(value, (int, float)) and \
        not isinstance(value, bool) and value >= 0


def validate_serve(lines):
    """Checks one connection's session log (parsed JSONL objects); returns
    a list of (response, record_group) pairs in arrival order."""
    requests = []
    pending = []
    for i, rec in enumerate(lines):
        if not isinstance(rec, dict):
            fail(f"line {i + 1}: not a JSON object")
        if rec.get("type") == "response":
            requests.append((rec, pending))
            pending = []
        else:
            pending.append(rec)
    if pending:
        fail(f"{len(pending)} trailing record(s) after the last response — "
             f"the log was cut mid-request")
    if not requests:
        fail("no response lines in the session log")

    for idx, (resp, records) in enumerate(requests):
        where = f"response {idx} (id {resp.get('id')!r})"
        if resp.get("version") != RESPONSE_VERSION:
            fail(f"{where}: version is {resp.get('version')!r}, expected "
                 f"{RESPONSE_VERSION!r}")
        ok = resp.get("ok")
        if not isinstance(ok, bool):
            fail(f"{where}: 'ok' missing or not a boolean")
        if not ok:
            reason = resp.get("reject_reason")
            if reason not in REJECT_REASONS:
                fail(f"{where}: rejected with unknown reason {reason!r} "
                     f"(valid: {', '.join(REJECT_REASONS)})")
            if not resp.get("error"):
                fail(f"{where}: rejected without a diagnostic 'error'")
            if records:
                fail(f"{where}: rejected request streamed {len(records)} "
                     f"record(s) — rejects must answer before engine work")
            continue
        if "verdicts" not in resp:
            # A control response (ping / shutdown): nothing streams.
            if records:
                fail(f"{where}: control response preceded by "
                     f"{len(records)} stray record(s)")
            continue
        # An ok verify response: the preceding group must be a well-formed
        # rfn-trace-v2 stream whose counts agree with the response document.
        props, _, _, _ = validate_batch(records)
        if resp.get("properties") != len(props):
            fail(f"{where}: response says {resp.get('properties')} "
                 f"properties, the stream carried {len(props)}")
        counts = collections.Counter(r["verdict"] for r in props)
        declared = resp.get("verdicts", {})
        for v in VERDICTS:
            if declared.get(v, 0) != counts[v]:
                fail(f"{where}: response says {declared.get(v, 0)} x {v!r}, "
                     f"streamed records say {counts[v]}")
        if not resp.get("design_hash"):
            fail(f"{where}: ok verify response without a design_hash")
        # Every request runs cold: no warm-state field may come back.
        carriers = [("response", resp, WARM_RESPONSE_KEYS)]
        carriers += [(f"results[{i}]", r, WARM_PROPERTY_KEYS)
                     for i, r in enumerate(resp.get("results", []))]
        carriers += [(f"property record {r.get('name')!r}", r,
                      WARM_PROPERTY_KEYS) for r in props]
        for what, doc, keys in carriers:
            for key in keys:
                if key in doc:
                    fail(f"{where}: {what} carries {key!r} of the removed "
                         f"warm-state cache")
    return requests


def report_serve(path):
    """Validates and summarizes an rfn_serve session log."""
    lines = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    lines.append(json.loads(line))
                except json.JSONDecodeError as err:
                    fail(f"line {lineno}: not JSON ({err})")
    except OSError as err:
        print(f"trace_report: cannot read {path}: {err}", file=sys.stderr)
        return 1
    requests = validate_serve(lines)

    n_ok = n_rejected = n_control = 0
    print("== serve session ==")
    print(f"{'id':<12} {'kind':<8} {'ok':<3} {'verdicts/reason':<24} "
          f"{'seconds':>8}")
    for resp, _records in requests:
        rid = str(resp.get("id", ""))
        if not resp["ok"]:
            n_rejected += 1
            print(f"{rid:<12} {'reject':<8} {'no':<3} "
                  f"{resp['reject_reason']:<24} {'':>8}")
            continue
        if "verdicts" not in resp:
            n_control += 1
            print(f"{rid:<12} {'control':<8} {'yes':<3} {'':<24} {'':>8}")
            continue
        n_ok += 1
        declared = resp["verdicts"]
        verdicts = " ".join(f"{v}={declared.get(v, 0)}" for v in VERDICTS
                            if declared.get(v, 0))
        print(f"{rid:<12} {'verify':<8} {'yes':<3} {verdicts:<24} "
              f"{resp.get('seconds', 0.0):>8.3f}")
    print(f"\nrequests={len(requests)} verified={n_ok} "
          f"rejected={n_rejected} control={n_control}")
    return 0


def report_corpus(path):
    """Validates and summarizes an rfn-corpus-v1 summary file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_report: cannot read {path}: {err}", file=sys.stderr)
        return 1
    files = validate_corpus(doc)
    totals = doc["totals"]
    print("== corpus summary ==")
    print(f"files={totals['files']} properties={totals['properties']} "
          f"certified={totals['certified']}")
    declared = totals.get("verdicts", {})
    print("verdicts: " + " ".join(
        f"{v}={declared.get(v, 0)}" for v in VERDICTS))
    print(f"\n{'file':<28} {'status':<13} {'props':>5} {'T':>3} {'F':>3} "
          f"{'cert':>4} {'seconds':>8}")
    for rec in files:
        counts = collections.Counter(p["verdict"] for p in rec["properties"])
        cert = sum(p["certified"] for p in rec["properties"])
        print(f"{rec['file']:<28} {rec['status']:<13} "
              f"{len(rec['properties']):>5} {counts.get('T', 0):>3} "
              f"{counts.get('F', 0):>3} {cert:>4} "
              f"{rec.get('seconds', 0.0):>8.2f}")
    return 0


def read_batch(path):
    """Parses an rfn-trace-v2 JSON Lines file into its record list."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as err:
                fail(f"line {lineno}: not JSON ({err})")
    return records


# Record fields a trajectory leaves out: timing, and the computed-table
# counts, which follow the BDD manager's internal node ids.
TRAJECTORY_IGNORED = {"seconds", "cpu_ms", "at_seconds", "rss_bytes",
                      "cache_lookups", "cache_hits", "cache_hit_rate"}


def _without_ignored(value):
    if isinstance(value, dict):
        return {k: _without_ignored(v) for k, v in value.items()
                if k not in TRAJECTORY_IGNORED}
    if isinstance(value, list):
        return [_without_ignored(v) for v in value]
    return value


def trajectory(records):
    """Per-property trajectory of a validated rfn-trace-v2 record list,
    keyed by property name: the property record and its iteration records,
    without the TRAJECTORY_IGNORED fields."""
    props, iters = validate_batch(records)[:2]
    out = {}
    for r in props:
        if not _nonneg_number(r.get("final_abstract_regs")):
            fail(f"property {r['name']!r} lacks final_abstract_regs")
        out[r["name"]] = {"property": _without_ignored(r), "iterations": []}
    for it in iters:
        out[it["property"]]["iterations"].append(_without_ignored(it))
    return out


def _first_difference(got, want, path):
    """The dotted path and values of the first field where two trajectory
    values differ, or None."""
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want)):
            if k not in got or k not in want:
                return f"{path}.{k}", got.get(k, "<absent>"), want.get(k, "<absent>")
            diff = _first_difference(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        if len(got) != len(want):
            return f"{path} length", len(got), len(want)
        return None
    return None if got == want else (path, got, want)


def check_same_trajectory(runs):
    """Fails unless every (label, records) run has the first run's
    per-property trajectory."""
    label0, want = runs[0][0], trajectory(runs[0][1])
    for label, records in runs[1:]:
        diff = _first_difference(trajectory(records), want, "")
        if diff:
            where, got_v, want_v = diff
            fail(f"{label} diverges from {label0} at {where.lstrip('.')}: "
                 f"{got_v!r} vs {want_v!r}")
    return want


def report_trajectory(paths):
    """Requires every rfn-trace-v2 file in `paths` to report the same
    per-property iterations and final abstraction size."""
    try:
        runs = [(path, read_batch(path)) for path in paths]
    except OSError as err:
        print(f"trace_report: cannot read {err.filename}: {err}",
              file=sys.stderr)
        return 1
    want = check_same_trajectory(runs)
    print(f"trajectory: {len(runs)} runs agree: " + " ".join(
        f"{name}={t['property']['iterations']}/"
        f"{t['property']['final_abstract_regs']}"
        for name, t in sorted(want.items())))
    return 0


def report_batch(path):
    """Validates and summarizes an rfn-trace-v2 batch JSONL file."""
    try:
        records = read_batch(path)
    except OSError as err:
        print(f"trace_report: cannot read {path}: {err}", file=sys.stderr)
        return 1
    props, iters, certs, summary = validate_batch(records)

    print("== batch summary ==")
    print(f"properties={len(props)} "
          f"total_wall_s={summary.get('seconds', 0.0):.6f} "
          f"cpu_ms={summary['cpu_ms']:.3f} "
          f"peak_rss_bytes={summary['peak_rss_bytes']}")
    metrics = summary.get("metrics") or {}
    gauges = metrics.get("gauges", {})
    heap = gauges.get("bdd.heap_bytes")
    if isinstance(heap, dict) and "max" in heap:
        line = f"bdd_heap_peak_bytes={heap['max']}"
        rewrites = metrics.get("counters", {}).get("bdd.sift_rewrites")
        if rewrites is not None:
            line += f" sift_rewrites={rewrites}"
        journal = gauges.get("bdd.sift_journal_bytes")
        if isinstance(journal, dict) and "max" in journal:
            line += f" sift_journal_peak_bytes={journal['max']}"
        print(line)
    counters = metrics.get("counters", {})
    if "atpg.seq.calls" in counters:
        print(f"atpg_seq_calls={counters['atpg.seq.calls']} "
              f"refuted_early={counters.get('atpg.seq.refuted_early', 0)}")
    declared = summary.get("verdicts", {})
    print("verdicts: " + " ".join(
        f"{v}={declared.get(v, 0)}" for v in VERDICTS))
    print(f"\n{'property':<24} {'verdict':<12} {'iters':>5} {'seconds':>9}")
    for r in props:
        print(f"{r['name']:<24} {r['verdict']:<12} {r['iterations']:>5} "
              f"{r['seconds']:>9.3f}")
    if iters:
        print(f"\n{'property':<24} {'iter':>4} {'regs':>5} {'reach':<14} "
              f"{'reach_s':>9} {'concretize':<10} {'conc_s':>9} "
              f"{'seconds':>9}")
        for r in iters:
            print(f"{r['property']:<24} {r['iter']:>4} "
                  f"{r['abstraction'].get('regs', 0):>5} "
                  f"{r['reach'].get('status', ''):<14} "
                  f"{r['reach']['seconds']:>9.3f} "
                  f"{r['concretize'].get('status', ''):<10} "
                  f"{r['concretize']['seconds']:>9.3f} "
                  f"{r['seconds']:>9.3f}")
    if certs:
        kinds = collections.Counter(r["kind"] for r in certs)
        ok = sum(1 for r in certs if r["ok"])
        line = f"\ncertificates: ok={ok} failed={len(certs) - ok}"
        for kind in CERTIFICATE_KINDS:
            if kinds[kind]:
                line += f" {kind}={kinds[kind]}"
        print(line)
        for r in certs:
            if not r["ok"]:
                print(f"  FAILED {r['property']}: obligation "
                      f"{r['obligation']}")
    return 0


def fold_spans(events):
    """Reconstructs spans from B/E pairs. Returns a list of dicts with
    name, tid, start, dur, self (all in microseconds), args, depth and
    stack (the span names from its thread's root down to it)."""
    spans = []
    stacks = collections.defaultdict(list)
    for e in events:
        ph = e.get("ph")
        tid = e.get("tid")
        if ph == "B":
            parent = stacks[tid][-1]["stack"] if stacks[tid] else ()
            stacks[tid].append({
                "name": e["name"], "tid": tid, "start": e["ts"],
                "dur": 0.0, "child": 0.0, "args": {},
                "depth": len(stacks[tid]), "stack": parent + (e["name"],),
            })
        elif ph == "E":
            s = stacks[tid].pop()
            s["dur"] = e["ts"] - s["start"]
            s["args"] = e.get("args", {})
            s["self"] = s["dur"] - s.pop("child")
            if stacks[tid]:
                stacks[tid][-1]["child"] += s["dur"]
            spans.append(s)
    return spans


def thread_names(events):
    """tid -> thread name, from the exporter's thread_name metadata."""
    return {e.get("tid"): e.get("args", {}).get("name")
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"}


def collapsed_stacks(events):
    """Collapsed stacks of validated span events: {"thread;outer;inner":
    self microseconds}, summed over every span with that stack."""
    names = thread_names(events)
    self_us = collections.defaultdict(float)
    for s in fold_spans(events):
        thread = names.get(s["tid"]) or f"tid-{s['tid']}"
        self_us[";".join((thread,) + s["stack"])] += max(0.0, s["self"])
    return self_us


def root_durations(events):
    """Thread name -> summed duration (microseconds) of its root spans,
    read off the raw B/E events."""
    names = thread_names(events)
    depth = collections.defaultdict(int)
    begin = {}
    total = collections.defaultdict(float)
    for e in events:
        tid = e.get("tid")
        if e.get("ph") == "B":
            if depth[tid] == 0:
                begin[tid] = e["ts"]
            depth[tid] += 1
        elif e.get("ph") == "E":
            depth[tid] -= 1
            if depth[tid] == 0:
                total[names.get(tid) or f"tid-{tid}"] += e["ts"] - begin[tid]
    return total


def report_folded(doc):
    for key, us in sorted(collapsed_stacks(validate(doc)).items()):
        print(f"{key} {int(us + 0.5)}")
    return 0


def report(doc, top_n):
    events = validate(doc)
    spans = fold_spans(events)
    instants = [e for e in events if e.get("ph") == "i"]
    dropped = doc.get("otherData", {}).get("dropped_events", 0)

    runs = sorted((s for s in spans if s["name"] == "rfn.run"),
                  key=lambda s: s["start"])
    sessions = [s for s in spans if s["name"] == "session.run"]
    if sessions:
        # Every CLI run is one session: its span covers all the engine runs.
        total_us = sessions[0]["dur"]
    elif runs:
        total_us = runs[0]["dur"]
    else:
        total_us = max((s["start"] + s["dur"] for s in spans), default=0.0)

    # Each rfn.iteration belongs to the rfn.run enclosing it on its thread.
    iters = sorted((s for s in spans if s["name"] == "rfn.iteration"),
                   key=lambda s: s["start"])
    run_of = {}
    for it in iters:
        for k, r in enumerate(runs):
            if (r["tid"] == it["tid"] and r["start"] <= it["start"] and
                    it["start"] + it["dur"] <= r["start"] + r["dur"]):
                run_of[id(it)] = k
                break

    print("== run summary ==")
    # Machine-readable: tests cross-check this against the run's seconds.
    print(f"total_wall_s={total_us / 1e6:.6f}")
    print(f"spans={len(spans)} events={len(events)} dropped={dropped}")
    for k, r in enumerate(runs):
        n_iters = sum(1 for it in iters if run_of.get(id(it)) == k)
        print(f"run={k} verdict={r['args'].get('verdict', '?')} "
              f"wall_s={r['dur'] / 1e6:.6f} iterations={n_iters}")
    for e in instants:
        if e.get("name") == "budget-trip":
            reason = e.get("args", {}).get("reason", "?")
            print(f"budget_trip reason={reason} at_s={e['ts'] / 1e6:.3f}")

    agg = collections.defaultdict(lambda: [0, 0.0, 0.0])  # count, dur, self
    for s in spans:
        a = agg[s["name"]]
        a[0] += 1
        a[1] += s["dur"]
        a[2] += s["self"]
    print(f"\n== top {top_n} spans by self time ==")
    print(f"{'span':<18} {'count':>6} {'total_ms':>10} {'self_ms':>10}")
    ranked = sorted(agg.items(), key=lambda kv: -kv[1][2])[:top_n]
    for name, (count, dur, self_us) in ranked:
        print(f"{name:<18} {count:>6} {dur / 1e3:>10.3f} {self_us / 1e3:>10.3f}")

    if iters:
        print("\n== iterations ==")
        print(f"{'run':>4} {'iter':>4} {'start_ms':>10} {'dur_ms':>10}")
        for s in sorted(iters, key=lambda s: (run_of.get(id(s), len(runs)),
                                              s["start"])):
            run = run_of.get(id(s), "-")
            idx = s["args"].get("iter", "?")
            print(f"{run!s:>4} {idx!s:>4} {s['start'] / 1e3:>10.3f} "
                  f"{s['dur'] / 1e3:>10.3f}")

    return 0


def synthetic_trace():
    """A minimal well-formed trace for --self-check."""
    ev = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "main"}},
        {"name": "rfn.run", "ph": "B", "cat": "rfn", "pid": 1, "tid": 1,
         "ts": 0.0},
        {"name": "rfn.iteration", "ph": "B", "cat": "rfn", "pid": 1,
         "tid": 1, "ts": 1.0},
        {"name": "mc.reach", "ph": "B", "cat": "rfn", "pid": 1, "tid": 1,
         "ts": 3.0},
        {"name": "budget-trip", "ph": "i", "cat": "rfn", "s": "g", "pid": 1,
         "tid": 3, "ts": 4.0, "args": {"reason": "wall-budget"}},
        {"name": "mc.reach", "ph": "E", "cat": "rfn", "pid": 1, "tid": 1,
         "ts": 5.0, "args": {"status": "proved"}},
        {"name": "rfn.iteration", "ph": "E", "cat": "rfn", "pid": 1,
         "tid": 1, "ts": 6.0, "args": {"iter": 0}},
        {"name": "rfn.run", "ph": "E", "cat": "rfn", "pid": 1, "tid": 1,
         "ts": 7.0, "args": {"verdict": "resource-out"}},
    ]
    return {"traceEvents": ev, "displayTimeUnit": "ms",
            "otherData": {"trace_version": TRACE_VERSION,
                          "dropped_events": 0}}


def synthetic_iteration(prop, i, regs, conc="unsat"):
    """One well-formed rfn-trace-v2 iteration record for --self-check:
    iteration 0 finds a trace whose Step 3 ends `conc`, later ones prove."""
    return {
        "type": "iteration", "property": prop, "iter": i,
        "abstraction": {"regs": regs, "inputs": 2, "gates": 30},
        "reach": {"status": "bad-reachable" if i == 0 else "proved",
                  "steps": 3, "seconds": 0.01},
        "bdd": {"peak_nodes": 100, "cache_lookups": 10, "cache_hits": 5,
                "cache_hit_rate": 0.5, "reorderings": 0},
        "hybrid": {"nocut_cubes": 0, "mincut_cubes": 0, "atpg_calls": 0,
                   "atpg_rejects": 0},
        "trace_cycles": 4 if i == 0 else 0,
        "concretize": {"status": conc if i == 0 else "none",
                       "seconds": 0.02 if i == 0 else 0.0},
        "refine": {"conflict_candidates": 1, "fallback_candidates": 0,
                   "added_until_unsat": 1, "removed_by_greedy": 0,
                   "final_count": regs, "atpg_calls": 1,
                   "trace_invalidated": False},
        "seconds": 0.05,
    }


def synthetic_batch_trace():
    """A minimal well-formed rfn-trace-v2 record list for --self-check: p0
    holds after two iterations, p1 fails in one, then two certificates and
    the summary. Indices: 0 p0, 1-2 p0's iterations, 3 p1, 4 p1's
    iteration, 5-6 certificates, 7 summary."""
    prop = {"type": "property", "bad": 7, "iterations": 2,
            "final_abstract_regs": 4, "error_trace_cycles": 0,
            "seconds": 0.25, "note": ""}
    cert = {"type": "certificate", "clauses": 0, "trace_cycles": 0,
            "obligation": "", "seconds": 0.01}
    return [
        dict(prop, name="p0", verdict="T"),
        synthetic_iteration("p0", 0, 3),
        synthetic_iteration("p0", 1, 4),
        dict(prop, name="p1", verdict="F", bad=9, iterations=1,
             error_trace_cycles=4),
        synthetic_iteration("p1", 0, 3, conc="sat"),
        dict(cert, property="p0", kind="holds-invariant", ok=True, clauses=5),
        dict(cert, property="p1", kind="fails-trace", ok=False,
             trace_cycles=4, obligation="trace-replay"),
        {"type": "batch-summary", "trace_version": BATCH_TRACE_VERSION,
         "properties": 2,
         "verdicts": {"T": 1, "F": 1, "?": 0, "resource-out": 0},
         "certificates": {"ok": 1, "failed": 1},
         "seconds": 0.5, "cpu_ms": 480.0, "peak_rss_bytes": 30 << 20,
         "metrics": {"counters": {"rfn.runs": 2, "bdd.sift_rewrites": 640,
                                  "atpg.seq.calls": 3, "atpg.seq.unsat": 2,
                                  "atpg.seq.refuted_early": 1},
                     "gauges": {"bdd.heap_bytes": {"value": 2 << 20,
                                                   "max": 3 << 20},
                                "bdd.sift_journal_bytes": {"value": 0,
                                                           "max": 4096}}}},
    ]


def synthetic_corpus():
    """A minimal well-formed rfn-corpus-v2 summary for --self-check."""
    return {
        "schema": CORPUS_SCHEMA,
        "corpus": "tests/corpus",
        "files": [
            {"file": "a.aag", "status": "ok", "seconds": 0.1,
             "peak_rss_bytes": 20 << 20, "cpu_ms": 95.0,
             "properties": [
                 {"name": "p0", "verdict": "T", "certified": True},
                 {"name": "p1", "verdict": "F", "certified": True},
             ]},
            {"file": "b.aig", "status": "resource-out", "seconds": 120.0,
             "peak_rss_bytes": 128 << 20, "cpu_ms": 119000.0,
             "properties": []},
        ],
        "totals": {"files": 2, "properties": 2,
                   "verdicts": {"T": 1, "F": 1, "?": 0, "resource-out": 0},
                   "certified": 2},
    }


def synthetic_serve_log():
    """A minimal well-formed rfn_serve session log for --self-check: a ping,
    two verify requests, and a reject."""
    def verify_response(rid):
        return {"type": "response", "version": RESPONSE_VERSION, "id": rid,
                "ok": True, "design_hash": "deadbeef", "properties": 2,
                "verdicts": {"T": 1, "F": 1, "?": 0, "resource-out": 0},
                "results": [{"name": "p0", "verdict": "T", "iterations": 2,
                             "seconds": 0.25, "note": ""},
                            {"name": "p1", "verdict": "F", "iterations": 1,
                             "seconds": 0.25, "note": ""}],
                "seconds": 0.5}

    records = synthetic_batch_trace()
    log = [{"type": "response", "version": RESPONSE_VERSION, "id": "p",
            "ok": True}]
    log += records
    log.append(verify_response("r1"))
    log += records
    log.append(verify_response("r2"))
    log.append({"type": "response", "version": RESPONSE_VERSION, "id": "big",
                "ok": False, "reject_reason": "mem-oversubscribed",
                "error": "0 MB outstanding + 200 MB demanded > 100 MB window"})
    return log


def self_check():
    """The validators must accept good traces and reject each corruption."""
    good = synthetic_trace()
    try:
        validate(good)
    except TraceError as err:
        print(f"self-check: valid trace rejected: {err}", file=sys.stderr)
        return 1

    def corrupt(mutate, expect):
        doc = json.loads(json.dumps(good))  # deep copy
        mutate(doc)
        try:
            validate(doc)
        except TraceError:
            return None
        return f"self-check: {expect} not detected"

    failures = [f for f in (
        corrupt(lambda d: d["otherData"].pop("trace_version"),
                "missing trace_version"),
        corrupt(lambda d: d["traceEvents"].pop(),  # drop rfn.run's E
                "unbalanced begin/end"),
        corrupt(lambda d: d["traceEvents"][2].update(ts=100.0),
                "non-monotonic timestamps"),
        corrupt(lambda d: d["traceEvents"].insert(
                    3, {"name": "job", "ph": "s", "cat": "flow", "id": 1,
                        "pid": 1, "tid": 1, "ts": 2.0}),
                "flow event (unknown phase)"),
    ) if f]

    # --folded: per thread, the collapsed stacks' self times sum to the
    # root-span durations. A second thread with nested spans joins the
    # synthetic trace.
    threaded = synthetic_trace()
    threaded["traceEvents"] += [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
         "args": {"name": "worker"}},
        {"name": "task", "ph": "B", "pid": 1, "tid": 2, "ts": 2.0},
        {"name": "leaf", "ph": "B", "pid": 1, "tid": 2, "ts": 2.5},
        {"name": "leaf", "ph": "E", "pid": 1, "tid": 2, "ts": 3.0},
        {"name": "leaf", "ph": "B", "pid": 1, "tid": 2, "ts": 3.5},
        {"name": "leaf", "ph": "E", "pid": 1, "tid": 2, "ts": 4.0},
        {"name": "task", "ph": "E", "pid": 1, "tid": 2, "ts": 4.5},
        {"name": "task", "ph": "B", "pid": 1, "tid": 2, "ts": 5.0},
        {"name": "task", "ph": "E", "pid": 1, "tid": 2, "ts": 6.0},
    ]
    events = validate(threaded)
    folded = collapsed_stacks(events)
    for key, us in (("main;rfn.run;rfn.iteration;mc.reach", 2.0),
                    ("worker;task;leaf", 1.0), ("worker;task", 2.5)):
        if folded.get(key) != us:
            failures.append(f"self-check: folded {key!r} is "
                            f"{folded.get(key)!r}, expected {us}")
    roots = root_durations(events)
    if sorted(roots) != ["main", "worker"]:
        failures.append(f"self-check: root spans on threads {sorted(roots)}")
    for thread, total in roots.items():
        got = sum(us for key, us in folded.items()
                  if key.startswith(thread + ";"))
        if abs(got - total) > 1e-9:
            failures.append(f"self-check: folded self times on {thread} sum "
                            f"to {got}, its root spans last {total}")

    good_batch = synthetic_batch_trace()
    try:
        validate_batch(good_batch)
    except TraceError as err:
        print(f"self-check: valid batch trace rejected: {err}",
              file=sys.stderr)
        return 1

    def corrupt_batch(mutate, expect):
        doc = json.loads(json.dumps(good_batch))
        mutate(doc)
        try:
            validate_batch(doc)
        except TraceError:
            return None
        return f"self-check: {expect} not detected"

    failures += [f for f in (
        corrupt_batch(lambda d: d[-1].update(trace_version="rfn-trace-v3"),
                      "wrong batch trace_version"),
        corrupt_batch(lambda d: d[-1].update(metrics=[1, 2]),
                      "non-object summary metrics"),
        corrupt_batch(lambda d: d[-1]["metrics"]["counters"].update(
                          {"atpg.seq.refuted_early": 3}),
                      "more early-refuted ATPG questions than Unsat ones"),
        corrupt_batch(lambda d: d.pop(),  # drop the batch-summary
                      "missing batch-summary"),
        corrupt_batch(lambda d: d[-1].update(properties=3),
                      "summary/record property-count mismatch"),
        corrupt_batch(lambda d: d[0].update(verdict="HOLDS"),
                      "non-canonical verdict spelling"),
        corrupt_batch(lambda d: d[0].pop("seconds"),
                      "property record missing a key"),
        corrupt_batch(lambda d: d[-1]["verdicts"].update(T=3),
                      "summary verdict-count mismatch"),
        corrupt_batch(lambda d: d[5].update(kind="holds-magic"),
                      "unknown certificate kind"),
        corrupt_batch(lambda d: d[5].update(obligation="safety"),
                      "ok certificate naming a failing obligation"),
        corrupt_batch(lambda d: d[6].update(obligation=""),
                      "failed certificate without an obligation"),
        corrupt_batch(lambda d: d[5].pop("clauses"),
                      "certificate record missing a key"),
        corrupt_batch(lambda d: d[-1]["certificates"].update(ok=2),
                      "summary certificate-count mismatch"),
        corrupt_batch(lambda d: d[-1].pop("certificates"),
                      "certificate records without summary counts"),
        corrupt_batch(lambda d: d.insert(6, dict(d[0])),
                      "property record after certificate records"),
        # The summary reports what the run cost.
        corrupt_batch(lambda d: d[-1].pop("cpu_ms"),
                      "summary without cpu_ms"),
        corrupt_batch(lambda d: d[-1].update(cpu_ms=-5.0),
                      "negative summary cpu_ms"),
        corrupt_batch(lambda d: d[-1].pop("peak_rss_bytes"),
                      "summary without peak_rss_bytes"),
        corrupt_batch(lambda d: d[-1].update(peak_rss_bytes=-1),
                      "negative summary peak_rss_bytes"),
        # Iteration records: the blocks, step times, numbering and counts.
        corrupt_batch(lambda d: d[1].pop("refine"),
                      "iteration record missing the refine block"),
        corrupt_batch(lambda d: d[1]["refine"].update(fallback_candidates=2),
                      "refine block with conflict and fallback candidates"),
        corrupt_batch(lambda d: d[1].update(reach=[1, 2]),
                      "non-object reach block"),
        corrupt_batch(lambda d: d[1]["reach"].pop("seconds"),
                      "reach block missing its wall time"),
        corrupt_batch(lambda d: d[1]["concretize"].update(seconds=-0.5),
                      "negative concretize wall time"),
        corrupt_batch(lambda d: d[1]["concretize"].update(seconds="fast"),
                      "non-numeric concretize wall time"),
        corrupt_batch(lambda d: d[2].update(iter=5),
                      "non-sequential iteration numbering"),
        corrupt_batch(lambda d: d[0].update(iterations=3),
                      "property/iteration-record count mismatch"),
        corrupt_batch(lambda d: d.__delitem__(4),
                      "run missing its iteration records"),
        corrupt_batch(lambda d: d[2].update(property="p1"),
                      "iteration record naming another property"),
        corrupt_batch(lambda d: d.insert(0, dict(d[1])),
                      "iteration record before any property"),
        corrupt_batch(lambda d: d.insert(6, dict(d[4])),
                      "iteration record after certificate records"),
        # Step 3 runs exactly when Step 2 produced an abstract trace.
        corrupt_batch(lambda d: d[2]["concretize"].update(status="sat"),
                      "concretize status on an iteration without a trace"),
        corrupt_batch(lambda d: d[1]["concretize"].update(status="none"),
                      "iteration with a trace but no concretize status"),
        # The verdict rule: resource-out names its budget, `?` has none.
        corrupt_batch(lambda d: (d[3].update(verdict="resource-out"),
                                 d[-1]["verdicts"].update(
                                     F=0, **{"resource-out": 1})),
                      "resource-out property without a budget_trip"),
        corrupt_batch(lambda d: (d[3].update(
                                     verdict="?",
                                     budget_trip={"reason": "wall-budget"}),
                                 d[-1]["verdicts"].update(F=0, **{"?": 1})),
                      "'?' property carrying a budget_trip"),
    ) if f]

    # The trajectory gate: a copy of a run agrees with it, also when its
    # timing and computed-table counts differ; a run that ended on a
    # different abstraction, or took one more image step in one iteration,
    # does not.
    retimed = json.loads(json.dumps(good_batch))
    for rec in retimed[:5]:
        rec["seconds"] = rec["seconds"] * 2 + 1
    retimed[1]["reach"]["seconds"] = 9.0
    retimed[1]["bdd"].update(cache_lookups=11, cache_hits=4,
                             cache_hit_rate=4 / 11)
    try:
        check_same_trajectory([("a", good_batch), ("b", retimed)])
    except TraceError as err:
        failures.append(f"self-check: identical trajectories rejected: {err}")
    for mutate, what in (
            (lambda d: d[3].update(final_abstract_regs=5),
             "diverging final abstraction"),
            (lambda d: d[2]["reach"].update(steps=4),
             "diverging iteration reach.steps")):
        diverged = json.loads(json.dumps(good_batch))
        mutate(diverged)
        try:
            check_same_trajectory([("a", good_batch), ("b", diverged)])
            failures.append(f"self-check: {what} not detected")
        except TraceError:
            pass

    good_corpus = synthetic_corpus()
    try:
        validate_corpus(good_corpus)
    except TraceError as err:
        print(f"self-check: valid corpus summary rejected: {err}",
              file=sys.stderr)
        return 1

    def corrupt_corpus(mutate, expect):
        doc = json.loads(json.dumps(good_corpus))
        mutate(doc)
        try:
            validate_corpus(doc)
        except TraceError:
            return None
        return f"self-check: {expect} not detected"

    failures += [f for f in (
        corrupt_corpus(lambda d: d.update(schema="rfn-corpus-v0"),
                       "wrong corpus schema tag"),
        corrupt_corpus(lambda d: d["files"][0]["properties"][0].update(
                           verdict="HOLDS"),
                       "non-canonical corpus verdict spelling"),
        corrupt_corpus(lambda d: d["files"][0].update(status="crashed"),
                       "unknown corpus file status"),
        corrupt_corpus(lambda d: d["files"][0]["properties"].pop(),
                       "corpus totals/record property-count mismatch"),
        corrupt_corpus(lambda d: d["totals"]["verdicts"].update(T=2),
                       "corpus totals verdict-count mismatch"),
        corrupt_corpus(lambda d: d["files"][0]["properties"][0].update(
                           certified="yes"),
                       "non-boolean certified flag"),
        corrupt_corpus(lambda d: d["totals"].update(certified=1),
                       "corpus certified-count mismatch"),
        corrupt_corpus(lambda d: d["files"].append(dict(d["files"][0])),
                       "duplicate corpus file record"),
        corrupt_corpus(lambda d: d["files"][0].pop("peak_rss_bytes"),
                       "v2 file record missing peak_rss_bytes"),
        corrupt_corpus(lambda d: d["files"][0].update(cpu_ms=-1.0),
                       "negative v2 cpu_ms"),
    ) if f]

    # A v1 baseline (no resource columns) must stay readable for the CI
    # gate's back-compat path.
    v1 = json.loads(json.dumps(good_corpus))
    v1["schema"] = CORPUS_SCHEMA_V1
    for rec in v1["files"]:
        rec.pop("peak_rss_bytes")
        rec.pop("cpu_ms")
    try:
        validate_corpus(v1)
    except TraceError as err:
        failures.append(f"self-check: v1 corpus baseline rejected: {err}")

    good_serve = synthetic_serve_log()
    try:
        validate_serve(good_serve)
    except TraceError as err:
        print(f"self-check: valid serve session log rejected: {err}",
              file=sys.stderr)
        return 1

    def corrupt_serve(mutate, expect):
        doc = json.loads(json.dumps(good_serve))
        mutate(doc)
        try:
            validate_serve(doc)
        except TraceError:
            return None
        return f"self-check: {expect} not detected"

    # Indices into the synthetic log: 0 = ping response, then one record
    # group, the first verify response, a second group, the second verify
    # response, and the reject response.
    group = len(synthetic_batch_trace())
    first, second, reject = 1 + group, 2 + 2 * group, 3 + 2 * group
    failures += [f for f in (
        corrupt_serve(lambda d: d[first].update(version="rfn-resp-v0"),
                      "wrong response version"),
        corrupt_serve(lambda d: d.pop(first),  # records with no response
                      "record group folded into the next request"),
        corrupt_serve(lambda d: d[first]["verdicts"].update(T=3),
                      "response/stream verdict mismatch"),
        corrupt_serve(lambda d: d[first].update(properties=4),
                      "response/stream property-count mismatch"),
        corrupt_serve(lambda d: d[first].pop("design_hash"),
                      "ok verify response without design_hash"),
        corrupt_serve(lambda d: d[second].update(warm_cache={"hit": True}),
                      "a warm_cache block"),
        corrupt_serve(lambda d: d[second]["results"][0].update(
                          order_seeded=True),
                      "order_seeded in a response's results"),
        # second - group: the first property record of the second group.
        corrupt_serve(lambda d: d[second - group].update(seeded_registers=3),
                      "seeded_registers in a streamed property record"),
        corrupt_serve(lambda d: d[reject].update(reject_reason="tuesday"),
                      "unknown reject reason"),
        corrupt_serve(lambda d: d[reject].pop("error"),
                      "reject without a diagnostic"),
        corrupt_serve(lambda d: d.insert(reject, dict(d[1])),
                      "records streamed before a reject"),
        corrupt_serve(lambda d: d.append(dict(d[1])),
                      "trailing records after the last response"),
    ) if f]
    # Dropping the reject response leaves a still-valid (shorter) log.
    shorter = json.loads(json.dumps(good_serve))[:-1]
    try:
        validate_serve(shorter)
    except TraceError as err:
        failures.append(f"self-check: truncated-but-complete serve log "
                        f"rejected: {err}")

    for f in failures:
        print(f, file=sys.stderr)
    if not failures:
        print("trace_report self-check: ok")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="?", help="span file from --trace-spans")
    ap.add_argument("--top", type=int, default=10,
                    help="hottest-span rows to print (default 10)")
    ap.add_argument("--self-check", action="store_true",
                    help="validate built-in good/bad traces and exit")
    ap.add_argument("--batch", action="store_true",
                    help="TRACE is an rfn-trace-v2 JSONL file from "
                         "rfn verify --trace-json")
    ap.add_argument("--corpus", action="store_true",
                    help="TRACE is an rfn-corpus-v1/-v2 summary from "
                         "tools/corpus_run.py")
    ap.add_argument("--folded", action="store_true",
                    help="print TRACE (a span file) as collapsed stacks with "
                         "self microseconds, for flamegraph.pl")
    ap.add_argument("--trajectory", nargs="+", metavar="TRACE",
                    help="rfn-trace-v2 files that must agree on every "
                         "property's iterations and final abstraction size")
    ap.add_argument("--serve", action="store_true",
                    help="TRACE is an rfn_serve session log (streamed "
                         "records + rfn-resp-v1 lines from one connection)")
    args = ap.parse_args()

    if args.self_check:
        return self_check()
    if args.trajectory:
        try:
            return report_trajectory(args.trajectory)
        except TraceError as err:
            print(f"trace_report: trajectory mismatch or invalid trace: {err}",
                  file=sys.stderr)
            return 1
    if not args.trace:
        ap.error("a trace file is required (or --self-check)")
    if args.serve:
        try:
            return report_serve(args.trace)
        except TraceError as err:
            print(f"trace_report: invalid serve session log: {err}",
                  file=sys.stderr)
            return 1
    if args.corpus:
        try:
            return report_corpus(args.trace)
        except TraceError as err:
            print(f"trace_report: invalid corpus summary: {err}",
                  file=sys.stderr)
            return 1
    if args.batch:
        try:
            return report_batch(args.trace)
        except TraceError as err:
            print(f"trace_report: invalid batch trace: {err}", file=sys.stderr)
            return 1
    try:
        with open(args.trace) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_report: cannot read {args.trace}: {err}",
              file=sys.stderr)
        return 1
    try:
        return report_folded(doc) if args.folded else report(doc, args.top)
    except TraceError as err:
        print(f"trace_report: invalid trace: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
