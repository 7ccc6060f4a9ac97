#!/usr/bin/env python3
"""Bench regression gate for rfn-bench-v1, rfn-corpus and rfn-trace-v2 runs.

Bench mode compares a fresh `bench/micro_engines --json` run against the
checked-in baseline (BENCH_portfolio.json) and exits nonzero when a
benchmark regressed:

  * wall time per iteration grew by more than --time-tolerance (default 20%),
  * the deterministic bdd_peak_nodes counter grew by more than
    --node-tolerance (default 10%),
  * or a baseline benchmark is missing from the current run.

Wall time is noisy on shared CI runners, hence the generous default
tolerance; the BDD peak-node counter is deterministic for a fixed workload
and is the gate's sharp edge.

Usage:
  bench/micro_engines --benchmark_filter=Portfolio --json current.json
  tools/bench_gate.py --baseline BENCH_portfolio.json --current current.json

Re-baselining (after an intentional perf change): regenerate the baseline
from a Release build and commit it together with the change that moved it:

  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
  ./build/bench/micro_engines --benchmark_filter=Portfolio \
      --json BENCH_portfolio.json

and say why in the commit message.

Prof mode diffs the BDD arena's peak bytes between two rfn-trace-v2 batch
summaries (the last record of an `rfn verify --trace-json` file):

  tools/bench_gate.py --prof-baseline BENCH_bdd_heap.jsonl \
      --prof-current trace.jsonl

and fails when the summary's metrics.gauges["bdd.heap_bytes"].max grew past
--byte-tolerance (default 25%) over the baseline, or is missing from the
current run. The BDD arena byte counter (node pool + unique-table buckets +
computed cache) is byte-exact and — for a fixed workload — fully
deterministic, so the generous tolerance only absorbs allocator
capacity-doubling granularity, not noise. The summary's cpu_ms and
peak_rss_bytes are deliberately NOT gated here: they are machine-dependent
(the wall gate above already covers time). BENCH_bdd_heap.jsonl holds the
peak of `builtin:processor --bad bad_mutex --bad error_flag`. Re-baselining
after an intentional memory-footprint change:

  ./build/tools/rfn verify builtin:processor --bad bad_mutex \
      --bad error_flag --trace-json trace.jsonl
  tail -n 1 trace.jsonl > BENCH_bdd_heap.jsonl

and commit BENCH_bdd_heap.jsonl with the change that moved it, saying why.

Corpus mode diffs two corpus documents (from tools/corpus_run.py;
rfn-corpus-v2, with rfn-corpus-v1 baselines still accepted so pre-profiler
checkouts keep gating):

  tools/bench_gate.py --corpus-baseline tests/corpus/baseline.json \
      --corpus-current corpus_summary.json

and fails on any semantic drift: a baseline file or property missing from
the current run, a file status that degraded (ok -> resource-out/error), a
verdict flip, or a certification regression (certified true -> false).
Wall-clock seconds and the v2 peak_rss_bytes/cpu_ms fields are
deliberately NOT gated — they are machine-dependent; the verdicts and
certificates are not. New files or
properties in the current run are reported but do not fail the gate (they
fail corpus_run's own totals check if broken); commit a regenerated
baseline to start gating them.
"""

import argparse
import json
import sys

GATED_COUNTERS = ("bdd_peak_nodes",)
CORPUS_SCHEMAS = ("rfn-corpus-v2", "rfn-corpus-v1")
# The byte-exact arena gauge the prof gate covers.
HEAP_GAUGE = "bdd.heap_bytes"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "rfn-bench-v1":
        sys.exit(f"bench_gate: {path}: not an rfn-bench-v1 document "
                 f"(schema={doc.get('schema')!r})")
    benchmarks = {}
    for i, b in enumerate(doc.get("benchmarks", [])):
        name = b.get("name")
        if not name:
            sys.exit(f"bench_gate: {path}: benchmark record {i} has no "
                     f"\"name\" — malformed artifact, not a regression")
        benchmarks[name] = b
    return benchmarks


def load_corpus(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in CORPUS_SCHEMAS:
        sys.exit(f"bench_gate: {path}: not an rfn-corpus document "
                 f"(schema={doc.get('schema')!r}, "
                 f"want one of {list(CORPUS_SCHEMAS)})")
    files = {}
    for i, rec in enumerate(doc.get("files", [])):
        name = rec.get("file")
        if not name:
            sys.exit(f"bench_gate: {path}: file record {i} has no \"file\" "
                     f"— malformed artifact, not a regression")
        files[name] = rec
    return files


def corpus_gate(baseline_path, current_path):
    baseline = load_corpus(baseline_path)
    current = load_corpus(current_path)

    failures = []
    checked = 0
    for fname, base in sorted(baseline.items()):
        cur = current.get(fname)
        if cur is None:
            failures.append(f"{fname}: missing from current run")
            continue
        base_status = base.get("status", "ok")
        cur_status = cur.get("status", "ok")
        if base_status == "ok" and cur_status != "ok":
            failures.append(f"{fname}: status degraded ok -> {cur_status}")
            continue
        cur_props = {p["name"]: p for p in cur.get("properties", [])}
        for p in base.get("properties", []):
            cp = cur_props.get(p["name"])
            checked += 1
            if cp is None:
                failures.append(f"{fname}: property {p['name']!r} missing "
                                f"from current run")
                continue
            if cp.get("verdict") != p.get("verdict"):
                failures.append(
                    f"{fname}: {p['name']}: verdict flipped "
                    f"{p.get('verdict')!r} -> {cp.get('verdict')!r}")
            if p.get("certified") and not cp.get("certified"):
                failures.append(
                    f"{fname}: {p['name']}: certification regressed "
                    f"(was certified, now is not)")
    for fname in sorted(set(current) - set(baseline)):
        print(f"bench_gate: {fname}: new file, not in the baseline "
              f"(re-baseline to start gating it)")

    if failures:
        print("bench_gate: corpus FAILED", file=sys.stderr)
        for f in failures:
            print(f"bench_gate:   {f}", file=sys.stderr)
        print("bench_gate: if the drift is intentional, regenerate "
              "tests/corpus/baseline.json (see the module docstring)",
              file=sys.stderr)
        return 1
    print(f"bench_gate: corpus PASSED ({len(baseline)} files, "
          f"{checked} properties)")
    return 0


def load_heap_peak(path):
    """The BDD arena's peak bytes from the batch summary on the last line of
    an rfn-trace-v2 file."""
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    summary = json.loads(lines[-1]) if lines else {}
    if summary.get("type") != "batch-summary":
        sys.exit(f"bench_gate: {path}: last record is not an rfn-trace-v2 "
                 f"batch summary (type={summary.get('type')!r})")
    gauge = summary.get("metrics", {}).get("gauges", {}).get(HEAP_GAUGE)
    if not isinstance(gauge, dict) or gauge.get("max") is None:
        sys.exit(f"bench_gate: {path}: no {HEAP_GAUGE} gauge max in the "
                 f"batch summary — malformed artifact, not a regression")
    return gauge["max"]


def prof_gate(baseline_path, current_path, tolerance):
    base_peak = load_heap_peak(baseline_path)
    cur_peak = load_heap_peak(current_path)
    if base_peak > 0 and cur_peak > base_peak * (1.0 + tolerance):
        print("bench_gate: prof FAILED", file=sys.stderr)
        print(f"bench_gate:   {HEAP_GAUGE} max {cur_peak} vs baseline "
              f"{base_peak} (+{(cur_peak / base_peak - 1.0) * 100.0:.1f}% > "
              f"{tolerance * 100.0:.0f}%)", file=sys.stderr)
        print("bench_gate: if the footprint growth is intentional, "
              "regenerate BENCH_bdd_heap.jsonl (see the module docstring)",
              file=sys.stderr)
        return 1
    print(f"bench_gate: prof PASSED ({HEAP_GAUGE} max {cur_peak} vs "
          f"{base_peak})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="checked-in rfn-bench-v1 JSON")
    ap.add_argument("--current", help="freshly generated rfn-bench-v1 JSON")
    ap.add_argument("--corpus-baseline",
                    help="checked-in rfn-corpus JSON (corpus mode)")
    ap.add_argument("--corpus-current",
                    help="freshly generated rfn-corpus JSON (corpus mode)")
    ap.add_argument("--prof-baseline",
                    help="checked-in batch summary, BENCH_bdd_heap.jsonl "
                         "(prof mode)")
    ap.add_argument("--prof-current",
                    help="fresh rfn-trace-v2 file from rfn verify "
                         "--trace-json (prof mode)")
    ap.add_argument("--time-tolerance", type=float, default=0.20,
                    help="allowed relative wall-time growth (default 0.20)")
    ap.add_argument("--node-tolerance", type=float, default=0.10,
                    help="allowed relative bdd_peak_nodes growth (default 0.10)")
    ap.add_argument("--byte-tolerance", type=float, default=0.25,
                    help="allowed relative bdd.heap_bytes peak growth in "
                         "prof mode (default 0.25)")
    args = ap.parse_args()

    if bool(args.corpus_baseline) != bool(args.corpus_current):
        ap.error("--corpus-baseline and --corpus-current go together")
    if bool(args.prof_baseline) != bool(args.prof_current):
        ap.error("--prof-baseline and --prof-current go together")
    modes = sum(bool(m) for m in (args.corpus_baseline, args.prof_baseline,
                                  args.baseline or args.current))
    if modes > 1:
        ap.error("bench, corpus, and prof modes are separate invocations")
    if args.corpus_baseline:
        return corpus_gate(args.corpus_baseline, args.corpus_current)
    if args.prof_baseline:
        return prof_gate(args.prof_baseline, args.prof_current,
                         args.byte_tolerance)
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required (or the "
                 "--corpus-* / --prof-* pair)")

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue

        base_t = base.get("real_seconds_per_iter", 0.0)
        cur_t = cur.get("real_seconds_per_iter")
        if cur_t is None:
            # A silent 0.0 here would make a broken artifact look like a
            # speedup; a baseline metric absent from the new artifact is a
            # schema break and must fail loudly.
            failures.append(f"{name}: real_seconds_per_iter missing from "
                            f"current run (malformed artifact?)")
            continue
        if base_t > 0 and cur_t > base_t * (1.0 + args.time_tolerance):
            failures.append(
                f"{name}: wall time {cur_t * 1e3:.3f} ms/iter vs baseline "
                f"{base_t * 1e3:.3f} ms/iter "
                f"(+{(cur_t / base_t - 1.0) * 100.0:.1f}% > "
                f"{args.time_tolerance * 100.0:.0f}%)")
        else:
            print(f"bench_gate: {name}: wall time ok "
                  f"({cur_t * 1e3:.3f} vs {base_t * 1e3:.3f} ms/iter)")

        for counter in GATED_COUNTERS:
            base_c = base.get("counters", {}).get(counter)
            cur_c = cur.get("counters", {}).get(counter)
            if base_c is None or base_c <= 0:
                continue
            if cur_c is None:
                failures.append(f"{name}: counter {counter} missing from current run")
            elif cur_c > base_c * (1.0 + args.node_tolerance):
                failures.append(
                    f"{name}: {counter} {cur_c:.0f} vs baseline {base_c:.0f} "
                    f"(+{(cur_c / base_c - 1.0) * 100.0:.1f}% > "
                    f"{args.node_tolerance * 100.0:.0f}%)")
            else:
                print(f"bench_gate: {name}: {counter} ok "
                      f"({cur_c:.0f} vs {base_c:.0f})")

    if failures:
        print("bench_gate: FAILED", file=sys.stderr)
        for f in failures:
            print(f"bench_gate:   {f}", file=sys.stderr)
        print("bench_gate: if the regression is intentional, re-baseline "
              "(see the module docstring)", file=sys.stderr)
        return 1
    print(f"bench_gate: PASSED ({len(baseline)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
