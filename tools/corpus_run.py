#!/usr/bin/env python3
"""Corpus harness: fan a directory of AIGER files through batch sessions.

Runs `rfn verify FILE --cert-dir ... --trace-json ...` for every
`.aag`/`.aig` file in the corpus directory, each under its own watchdog
budget, re-validates every emitted certificate with `rfn_check` against the
same AIGER file, and writes an rfn-corpus-v2 JSON summary:

  {"schema": "rfn-corpus-v2",
   "corpus": "tests/corpus",
   "files": [{"file": "two_bads.aag",
              "status": "ok" | "resource-out" | "error",
              "seconds": 0.12,
              "peak_rss_bytes": 23318528,
              "cpu_ms": 9.31,
              "properties": [{"name": "both_high", "verdict": "T",
                              "certified": true}, ...]}, ...],
   "totals": {"files": N, "properties": M,
              "verdicts": {"T": ..., "F": ..., "?": ..., "resource-out": ...},
              "certified": K}}

Verdicts use the rfn-trace-v2 spellings ("T" holds, "F" fails, "?"
inconclusive, "resource-out"). A file whose verify process exceeds the
watchdog is recorded as status "resource-out" with no property records; a
crash or an unparseable trace is status "error". `certified` is true only
when the property's certificate exists AND rfn_check accepted it — a
conclusive verdict without a valid certificate is a gating failure waiting
to happen, not a soft state.

tools/bench_gate.py --corpus-baseline gates only on the file set,
statuses, verdicts, and certification bits.

`peak_rss_bytes`/`cpu_ms` (new in v2) come from the batch summary of the
file's `--trace-json` trace: the process's RSS high-water mark and its CPU
over the run. Like seconds they are informational — machine-dependent,
never gated. Both are 0 when the run timed out or crashed, or its trace was
unreadable.
tools/trace_report.py --corpus still accepts rfn-corpus-v1 baselines
(without the two fields) so older committed baselines keep validating.

Usage:
  tools/corpus_run.py --cli build/tools/rfn --check build/tools/rfn_check \
      --corpus tests/corpus --out corpus_summary.json

Re-baselining (after adding a corpus file or an intentional verdict
change): regenerate and commit tests/corpus/baseline.json together with the
change that moved it, and say why in the commit message:

  tools/corpus_run.py --cli build/tools/rfn --check build/tools/rfn_check \
      --out tests/corpus/baseline.json
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile
import time

SCHEMA = "rfn-corpus-v2"
AIGER_SUFFIXES = (".aag", ".aig")


def sanitize_file_stem(name):
    """Mirrors rfn_cli's cert-file naming for property names."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def parse_trace(path):
    """Reads an rfn-trace-v2 JSONL file; returns (property records,
    batch summary) or raises ValueError on a malformed artifact."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ValueError(f"trace line {lineno}: not JSON ({err})")
    if not records or records[-1].get("type") != "batch-summary":
        raise ValueError("trace does not end in a batch-summary record")
    summary = records[-1]
    if summary.get("trace_version") != "rfn-trace-v2":
        raise ValueError(
            f"trace_version {summary.get('trace_version')!r} is not rfn-trace-v2")
    props = [r for r in records if r.get("type") == "property"]
    for r in props:
        if "name" not in r or "verdict" not in r:
            raise ValueError("property record lacks name/verdict")
    for key in ("peak_rss_bytes", "cpu_ms"):
        if not isinstance(summary.get(key), (int, float)):
            raise ValueError(f"batch summary lacks {key}")
    return props, summary


def run_file(cli, check, path, workdir, timeout):
    """Verifies one AIGER file; returns its rfn-corpus-v2 file record."""
    name = os.path.basename(path)
    stem = sanitize_file_stem(name)
    cert_dir = os.path.join(workdir, stem + ".certs")
    trace = os.path.join(workdir, stem + ".jsonl")
    cmd = [cli, "verify", path, "--cert-dir", cert_dir, "--trace-json", trace]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"corpus_run: {name}: watchdog budget ({timeout}s) exceeded",
              file=sys.stderr)
        return {"file": name, "status": "resource-out",
                "seconds": round(time.monotonic() - start, 3),
                "peak_rss_bytes": 0, "cpu_ms": 0,
                "properties": []}
    seconds = round(time.monotonic() - start, 3)

    # Exit 0: all verdicts conclusive. Exit 1: at least one inconclusive /
    # resource-out property — still a parseable run, the verdicts tell the
    # story. Anything else (or a missing/garbled trace) is an error.
    if proc.returncode not in (0, 1):
        print(f"corpus_run: {name}: verify exited {proc.returncode}:\n"
              f"{proc.stderr.strip()}", file=sys.stderr)
        return {"file": name, "status": "error", "seconds": seconds,
                "peak_rss_bytes": 0, "cpu_ms": 0, "properties": []}
    try:
        props, summary = parse_trace(trace)
    except (OSError, ValueError) as err:
        print(f"corpus_run: {name}: {err}", file=sys.stderr)
        return {"file": name, "status": "error", "seconds": seconds,
                "peak_rss_bytes": 0, "cpu_ms": 0, "properties": []}

    properties = []
    for r in props:
        certified = False
        if r["verdict"] in ("T", "F"):
            cert = os.path.join(cert_dir,
                                sanitize_file_stem(r["name"]) + ".cert.json")
            if os.path.exists(cert):
                res = subprocess.run([check, cert, path],
                                     capture_output=True, text=True,
                                     timeout=timeout)
                certified = res.returncode == 0
                if not certified:
                    print(f"corpus_run: {name}: rfn_check refused the "
                          f"certificate for {r['name']!r}:\n"
                          f"{res.stderr.strip()}{res.stdout.strip()}",
                          file=sys.stderr)
            else:
                print(f"corpus_run: {name}: no certificate emitted for "
                      f"conclusive property {r['name']!r}", file=sys.stderr)
        properties.append({"name": r["name"], "verdict": r["verdict"],
                           "certified": certified})
    return {"file": name, "status": "ok", "seconds": seconds,
            "peak_rss_bytes": int(summary["peak_rss_bytes"]),
            "cpu_ms": round(float(summary["cpu_ms"]), 3),
            "properties": properties}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cli", required=True, help="path to the rfn CLI binary")
    ap.add_argument("--check", required=True,
                    help="path to the rfn_check binary")
    ap.add_argument("--corpus", default="tests/corpus",
                    help="directory of .aag/.aig files (default tests/corpus)")
    ap.add_argument("--out", required=True,
                    help="where to write the rfn-corpus-v2 JSON summary")
    ap.add_argument("--timeout-per-file", type=float, default=120.0,
                    help="watchdog budget per file in seconds (default 120)")
    ap.add_argument("--keep-work", metavar="DIR",
                    help="keep certificates/traces in DIR instead of a "
                         "temporary directory")
    args = ap.parse_args()

    try:
        files = sorted(f for f in os.listdir(args.corpus)
                       if f.endswith(AIGER_SUFFIXES))
    except OSError as err:
        sys.exit(f"corpus_run: cannot list {args.corpus}: {err}")
    if not files:
        sys.exit(f"corpus_run: no .aag/.aig files in {args.corpus}")

    def run_all(workdir):
        records = []
        for f in files:
            rec = run_file(args.cli, args.check,
                           os.path.join(args.corpus, f), workdir,
                           args.timeout_per_file)
            certified = sum(p["certified"] for p in rec["properties"])
            print(f"corpus_run: {rec['file']}: {rec['status']} "
                  f"({len(rec['properties'])} properties, "
                  f"{certified} certified, {rec['seconds']:.2f}s)")
            records.append(rec)
        return records

    if args.keep_work:
        os.makedirs(args.keep_work, exist_ok=True)
        records = run_all(args.keep_work)
    else:
        with tempfile.TemporaryDirectory(prefix="rfn-corpus-") as workdir:
            records = run_all(workdir)

    verdicts = collections.Counter()
    certified = 0
    n_props = 0
    for rec in records:
        for p in rec["properties"]:
            verdicts[p["verdict"]] += 1
            certified += p["certified"]
            n_props += 1
    doc = {
        "schema": SCHEMA,
        "corpus": args.corpus,
        "files": records,
        "totals": {
            "files": len(records),
            "properties": n_props,
            "verdicts": {v: verdicts.get(v, 0)
                         for v in ("T", "F", "?", "resource-out")},
            "certified": certified,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    bad = [r["file"] for r in records if r["status"] != "ok"]
    print(f"corpus_run: {len(records)} files, {n_props} properties "
          f"({verdicts.get('T', 0)} hold, {verdicts.get('F', 0)} fail, "
          f"{certified} certified) -> {args.out}")
    if bad:
        print(f"corpus_run: non-ok files: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
