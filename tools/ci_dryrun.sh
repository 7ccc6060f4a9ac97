#!/usr/bin/env bash
# The CI jobs, defined once. .github/workflows/ci.yml runs each hosted job
# as one call of this script; locally it runs them back to back, on
# machines without act or network access.
#
#   tools/ci_dryrun.sh            the local set: build-test (gcc Release),
#                                 sanitize (thread), bench-gate, serve, corpus
#   tools/ci_dryrun.sh --full     the whole matrix and both sanitizers
#   tools/ci_dryrun.sh build-test <gcc|clang> <Debug|Release>
#   tools/ci_dryrun.sh sanitize <thread|address,undefined>
#   tools/ci_dryrun.sh bench-gate | serve | corpus
#
# Each job builds into its own build-ci-* directory and leaves its artifacts
# there. In the local and --full sets, matrix cells whose compiler is absent
# are skipped with a notice; a job named explicitly never skips.
set -euo pipefail
cd "$(dirname "$0")/.."

LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

note() { printf '\n=== %s ===\n' "$*"; }
fail() { echo "ci_dryrun: $*" >&2; exit 1; }

configure() { # <dir> <extra cmake args...>
  local dir=$1; shift
  cmake -B "$dir" -S . "$@" "${LAUNCHER_ARGS[@]}" >/dev/null
}

build_and_test() { # <dir> <extra cmake args...>
  local dir=$1; shift
  configure "$dir" "$@"
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

cxx_of() { # <gcc|clang>
  case $1 in
    gcc) echo g++ ;;
    clang) echo clang++ ;;
    *) fail "unknown compiler '$1' (gcc, clang)" ;;
  esac
}

# Boots rfn_serve on a fresh socket, replays the tenant mix through one
# connection into <log>, and waits for the daemon to shut down.
serve_replay() { # <builddir> <socket> <log>
  local bdir=$1 sock=$2 log=$3
  "./$bdir/tools/rfn_serve" --socket "$sock" --workers 2 --admit-mem-mb 512 &
  local pid=$!
  for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
  python3 tools/serve_replay.py --socket "$sock" --log "$log" --shutdown
  wait "$pid"
}

# Writes <out>: the fails-trace witness <cert> with one pinned register
# literal of its last cycle flipped. Prints nothing and writes nothing for
# a holds-invariant witness.
tamper_trace() { # <cert> <out>
  python3 - "$1" "$2" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["kind"] == "fails-trace":
    state = doc["trace"]["steps"][-1]["state"]
    assert state, "last trace cycle pins no register"
    state[0][1] ^= 1
    json.dump(doc, open(sys.argv[2], "w"))
PY
}

# Emits rfn-cert-v1 witnesses for a builtin design's properties and has the
# independent rfn_check binary re-check every one of them. Each fails-trace
# witness is also re-checked with one pin of its last cycle flipped: the
# checker must refuse it (exit 1, obligation trace-replay).
check_certs() { # <builddir> <design> <property args...>
  local bdir=$1 design=$2; shift 2
  "./$bdir/tools/rfn" verify "builtin:$design" "$@" \
    --cert-dir "$bdir/certs-$design"
  local cert bogus="$bdir/tampered.cert.json" rc
  for cert in "$bdir/certs-$design"/*.cert.json; do
    "./$bdir/tools/rfn_check" "$cert" "builtin:$design"
    rm -f "$bogus"
    tamper_trace "$cert" "$bogus"
    [[ -f $bogus ]] || continue
    rc=0
    "./$bdir/tools/rfn_check" "$bogus" "builtin:$design" \
      2>"$bogus.err" || rc=$?
    [[ $rc == 1 ]] && grep -q trace-replay "$bogus.err" ||
      fail "rfn_check did not refuse a tampered $cert (exit $rc)"
  done
}

# --- job: build-test --------------------------------------------------------
# The full tier-1 suite for one {compiler} x {build type} cell.
job_build_test() { # <gcc|clang> <Debug|Release>
  local compiler=$1 build_type=$2 cxx
  cxx=$(cxx_of "$compiler")
  command -v "$cxx" >/dev/null 2>&1 || fail "$cxx not installed"
  note "build-test ($compiler $build_type)"
  build_and_test "build-ci-$compiler-$build_type" \
    -DCMAKE_BUILD_TYPE="$build_type" \
    -DCMAKE_C_COMPILER="$compiler" -DCMAKE_CXX_COMPILER="$cxx"
  # The paper-scale Table 1 processor through the front door: both
  # properties certified, every certificate re-checked by rfn_check (about
  # 1 s in Release).
  note "build-test ($compiler $build_type): paper-scale processor certificates"
  check_certs "build-ci-$compiler-$build_type" processor@paper \
    --bad bad_mutex --bad error_flag
}

# --- job: sanitize ----------------------------------------------------------
# RFN_SANITIZE instruments the whole tree, then the engines' cancellation
# paths run once more under it. Under TSan the suites that exercise threads
# (executor, watchdog, serve) are re-run explicitly so a discovery hiccup
# can never silently drop them.
job_sanitize() { # <thread|address,undefined>
  local san=$1 t
  local dir="build-ci-sanitize-${san//,/-}"
  note "sanitize ($san)"
  # A sift rollback truncates the BDD node pool with resize() and keeps its
  # capacity, so ASan cannot see an index past the size but inside the
  # capacity; the standard library's assertions can.
  local flags=()
  [[ $san == thread ]] || flags=(-DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS)
  build_and_test "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRFN_SANITIZE="$san" \
    "${flags[@]}"
  if [[ $san != thread ]]; then
    note "sanitize ($san): BDD arena, sifting and rollback suites"
    for t in bdd_test bdd_reorder_test bdd_property_test prof_test; do
      "./$dir/tests/$t"
    done
  fi
  # Netlist fanins and CSR fanouts are views into shared pools, and the
  # time-frame view indexes (frame, gate) nodes by shifted ids: the suites
  # that build and walk them (ATPG over netlists and frame views, min-cut)
  # run once more by name.
  note "sanitize ($san): netlist storage and frame view suites"
  for t in netlist_test analysis_test implication_test comb_atpg_test \
           seq_atpg_test edge_cases_test mincut_test; do
    "./$dir/tests/$t"
  done
  # A time-limited, certified run per builtin design must finish conclusive
  # with the instrumentation quiet (every engine polls the run's token).
  note "sanitize ($san): budgeted certify runs"
  local spec design prop
  for spec in "fifo bad_full_q" "processor bad_mutex" \
              "iu iu0" "usb bad_se1"; do
    read -r design prop <<<"$spec"
    "./$dir/tools/rfn" verify "builtin:$design" --bad "$prop" \
      --time-limit 10 --certify
  done
  # Witnesses of both polarities: the cut-cone Tseitin encoder and the Sim3
  # trace replay (accepting and refusing) are the surfaces watched here.
  note "sanitize ($san): certificates checked by rfn_check"
  check_certs "$dir" fifo --bad bad_full_q --bad bad_af_q --bad bad_hf_q
  check_certs "$dir" processor --bad bad_mutex --bad error_flag
  check_certs "$dir" iu --bad bad_dec --bad iu0
  check_certs "$dir" usb --bad bad_se1 --bad usb1_0
  [[ $san == thread ]] || return 0

  note "sanitize (thread): concurrency suites"
  for t in netlist_fuzz_test trace_span_test prof_test sat_test session_test \
           serve_test; do
    "./$dir/tests/$t"
  done
  # Accept loop, connection threads, fair-share queue and executor workers
  # all race by design: one instrumented boot + replay watches the lot end
  # to end.
  note "sanitize (thread): serve daemon boot + replay"
  serve_replay "$dir" "/tmp/rfn-tsan-$$.sock" "$dir/tsan-serve-session.jsonl"
  python3 tools/trace_report.py --serve "$dir/tsan-serve-session.jsonl"
  # The time limit + span exporter: the run must degrade to resource-out
  # (exit exactly 1: inconclusive verdict, not a TSan abort) with a
  # budget-trip span.
  note "sanitize (thread): time-limited resource-out run"
  local rc=0
  "./$dir/tools/rfn" verify tests/data/slow24.v --bad bad \
    --time-limit 0.3 --trace-spans "$dir/tsan-spans.json" || rc=$?
  [[ $rc == 1 ]] || fail "time-limited run exited $rc (expected 1: resource-out)"
  python3 tools/trace_report.py "$dir/tsan-spans.json" | grep budget_trip
  # A 1 MiB RSS budget is below any live process's footprint: the run must
  # degrade to resource-out (exit 1, never an OOM kill or a hang) with the
  # tripped budget named in the trace. The watchdog's RSS poll races the
  # engines by design; TSan watches the trip hand-off.
  note "sanitize (thread): memory-budget resource-out run"
  rc=0
  "./$dir/tools/rfn" verify tests/data/slow24.v --bad bad \
    --budget-mem-mb 1 --trace-json "$dir/tsan-mem-trace.jsonl" || rc=$?
  [[ $rc == 1 ]] || fail "memory-budgeted run exited $rc (expected 1)"
  grep -q '"reason":"mem-budget"' "$dir/tsan-mem-trace.jsonl"
  # Span export from an instrumented run, folded into collapsed stacks.
  "./$dir/tools/rfn" verify tests/data/demo.v --bad bad_q \
    --trace-spans "$dir/tsan-spans-demo.json"
  python3 tools/trace_report.py --folded "$dir/tsan-spans-demo.json" \
    >"$dir/tsan-spans-demo.folded"
  [[ -s "$dir/tsan-spans-demo.folded" ]] || fail "empty folded stacks"
}

# --- job: bench-gate --------------------------------------------------------
# Release bench run diffed against the checked-in BENCH_portfolio.json
# (>20% wall-time or >10% BDD peak-node growth fails; see
# tools/bench_gate.py for re-baselining), plus the trajectory gate, the
# certified batch runs of every shipped design, the
# end-to-end benchmark's self-test and the memory gate against
# BENCH_bdd_heap.jsonl. Every gate is followed by a synthetic
# regression that must fail it: a gate that cannot fail gates nothing.
job_bench_gate() {
  local d=build-ci-bench
  note "bench-gate"
  configure "$d" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$d" -j "$(nproc)" --target micro_engines rfn_cli rfn_check

  note "bench-gate: trace tooling self-check"
  python3 tools/trace_report.py --self-check
  # Trajectory gate: the loop calls its engines in a fixed order on one
  # thread, so every run of the same options must report the same
  # per-property iterations and final abstraction size.
  note "bench-gate: repeated runs walk one trajectory"
  processor_run() { # <trace> <rfn verify args...>
    local trace=$1; shift
    "./$d/tools/rfn" verify builtin:processor --bad bad_mutex \
      --bad error_flag "$@" --trace-json "$trace" >/dev/null
    python3 tools/trace_report.py --batch "$trace" >/dev/null
  }
  local run traces=()
  for run in 0 1 2; do
    traces+=("$d/trajectory-default-$run.jsonl")
    processor_run "${traces[-1]}"
  done
  python3 tools/trace_report.py --trajectory "${traces[@]}"
  # Negative self-checks: a copy of the first run in which one property
  # ended on one more register, or one iteration took one more image step,
  # must be refused.
  python3 - "$d" <<'EOF'
import json, sys
d = sys.argv[1]
records = [json.loads(line) for line in open(f"{d}/trajectory-default-0.jsonl")]
def write(name, record_type, mutate):
    recs = json.loads(json.dumps(records))
    mutate(next(r for r in recs if r.get("type") == record_type))
    open(f"{d}/{name}", "w").write("\n".join(json.dumps(r) for r in recs) + "\n")
write("trajectory-bumped-regs.jsonl", "property",
      lambda r: r.update(final_abstract_regs=r["final_abstract_regs"] + 1))
write("trajectory-bumped-steps.jsonl", "iteration",
      lambda r: r["reach"].update(steps=r["reach"]["steps"] + 1))
EOF
  local bumped
  for bumped in regs steps; do
    if python3 tools/trace_report.py --trajectory \
        "$d/trajectory-default-0.jsonl" "$d/trajectory-bumped-$bumped.jsonl" \
        2>/dev/null; then
      fail "trajectory gate accepted a run with one more $bumped"
    fi
  done

  # Traces are recorded before the gate so a failing gate still leaves a
  # profile behind (CI uploads it): the first question about a perf
  # regression is "where did the time go", and the span trace answers it
  # offline (Perfetto or trace_report.py).
  note "bench-gate: record run traces"
  "./$d/tools/rfn" verify tests/data/demo.v --bad bad_q \
    --trace-spans "$d/run-spans.json" --trace-json "$d/run-trace.jsonl"
  python3 tools/trace_report.py "$d/run-spans.json"
  python3 tools/trace_report.py --batch "$d/run-trace.jsonl"

  # Every shipped design's property suite through a VerifySession. Exit 0
  # requires every verdict conclusive (the processor suite contains
  # intentionally VIOLATED properties) and, via --cert-dir, every conclusive
  # verdict turned into an rfn-cert-v1 witness (a trace for Fails, an
  # inductive invariant for Holds) that the independent rfn_check binary
  # re-validates against a fresh elaboration. Each rfn-trace-v2 artifact is
  # re-validated by trace_report.py, its batch summary's cost fields
  # (cpu_ms, peak_rss_bytes) included.
  note "bench-gate: batch verification of the shipped designs"
  run_batch() { # <design> <property args...>
    local design=$1; shift
    "./$d/tools/rfn" verify "builtin:$design" "$@" \
      --trace-json "$d/batch-$design.jsonl" --cert-dir "$d/certs-$design"
    python3 tools/trace_report.py --batch "$d/batch-$design.jsonl"
    local cert
    for cert in "$d/certs-$design"/*.cert.json; do
      "./$d/tools/rfn_check" "$cert" "builtin:$design"
    done
  }
  run_batch fifo --bad bad_full_q --bad bad_af_q --bad bad_hf_q
  run_batch processor --bad bad_mutex --bad error_flag
  run_batch iu --bad bad_dec --bad iu0 --bad iu1 --bad iu2 --bad iu3 --bad iu4
  run_batch usb --bad bad_se1 --bad usb1_0 --bad usb1_1 --bad usb2_0 --bad usb2_1

  # The end-to-end benchmark's self-test: every BENCHMARK.json workload at
  # small scale, untraced and traced, must print exactly the declared metrics
  # and pass its own checks (verdicts, certificates, coverage tables, traced
  # replay), and an injected wrong verdict must fail the run. run.py builds
  # its own Release tree with Ninja, here under $d/e2ebench.
  note "bench-gate: end-to-end benchmark self-test"
  CARGO_TARGET_DIR="$d" python3 e2ebench/selftest.py

  note "bench-gate: RFN benches against BENCH_portfolio.json"
  "./$d/bench/micro_engines" --benchmark_filter=Portfolio \
    --json "$d/bench-current.json"
  python3 tools/bench_gate.py --baseline BENCH_portfolio.json \
    --current "$d/bench-current.json"

  note "bench-gate self-check (synthetic +25% regression must exit nonzero)"
  python3 - "$d" <<'EOF'
import json, sys
d = sys.argv[1]
doc = json.load(open(f"{d}/bench-current.json"))
for b in doc["benchmarks"]:
    b["real_seconds_per_iter"] *= 1.25
json.dump(doc, open(f"{d}/bench-regressed.json", "w"))
EOF
  if python3 tools/bench_gate.py --baseline "$d/bench-current.json" \
      --current "$d/bench-regressed.json"; then
    fail "bench_gate accepted a 25% regression"
  fi

  # The gate reads the BDD arena's peak bytes (the batch summary's
  # bdd.heap_bytes gauge max). The arena capacities of a fixed run are
  # run-to-run identical, so the gate's 25% tolerance only absorbs
  # allocator doubling granularity, not noise.
  note "bench-gate: prof gate against BENCH_bdd_heap.jsonl"
  "./$d/tools/rfn" verify builtin:processor --bad bad_mutex \
    --bad error_flag --trace-json "$d/prof-current.jsonl"
  python3 tools/trace_report.py --batch "$d/prof-current.jsonl"
  python3 tools/bench_gate.py --prof-baseline BENCH_bdd_heap.jsonl \
    --prof-current "$d/prof-current.jsonl"

  note "prof gate self-check (injected byte regression must exit nonzero)"
  python3 - "$d" <<'EOF'
import json, sys
d = sys.argv[1]
summary = json.loads(open(f"{d}/prof-current.jsonl").read().splitlines()[-1])
heap = summary["metrics"]["gauges"]["bdd.heap_bytes"]
heap["max"] = int(heap["max"] * 1.5)
open(f"{d}/prof-regressed.jsonl", "w").write(json.dumps(summary) + "\n")
EOF
  if python3 tools/bench_gate.py --prof-baseline BENCH_bdd_heap.jsonl \
      --prof-current "$d/prof-regressed.jsonl"; then
    fail "prof gate accepted an injected byte regression"
  fi
}

# --- job: serve -------------------------------------------------------------
# rfn_serve booted for real: a three-tenant request mix over the builtin
# designs replayed through one connection. The repeat requests must report
# the verdicts, iterations and final abstraction sizes of their first
# requests (serve_replay.py; every request runs cold), an oversubscribed
# request must be rejected by name before any engine work, and the captured
# session log (streamed rfn-trace-v2 records plus the rfn-resp-v1 lines) is
# re-validated offline by trace_report.py --serve, which also refuses any
# field of the removed warm-state cache.
job_serve() {
  local d=build-ci-bench
  note "serve smoke"
  configure "$d" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$d" -j "$(nproc)" --target rfn_serve serve_test
  python3 tools/trace_report.py --self-check
  "./$d/tests/serve_test"
  serve_replay "$d" "/tmp/rfn-ci-$$.sock" "$d/serve-session.jsonl"
  python3 tools/trace_report.py --serve "$d/serve-session.jsonl"
}

# --- job: corpus ------------------------------------------------------------
# The committed AIGER corpus through batch sessions: corpus_run.py fans
# tests/corpus/*.aag|*.aig through `rfn verify` under per-file watchdogs and
# re-checks every emitted certificate with rfn_check against the same AIGER
# file; the gate diffs the rfn-corpus-v2 summary against
# tests/corpus/baseline.json (verdict flips, certification regressions and
# missing entries fail; wall time and the per-file RSS/CPU fields
# do not). An injected verdict flip must then fail the gate.
job_corpus() {
  local d=build-ci-bench
  note "corpus gate"
  configure "$d" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$d" -j "$(nproc)" --target rfn_cli rfn_check
  python3 tools/trace_report.py --self-check
  python3 tools/corpus_run.py \
    --cli "$d/tools/rfn" --check "$d/tools/rfn_check" \
    --corpus tests/corpus --out "$d/corpus-current.json"
  python3 tools/trace_report.py --corpus "$d/corpus-current.json"
  python3 tools/bench_gate.py \
    --corpus-baseline tests/corpus/baseline.json \
    --corpus-current "$d/corpus-current.json"

  note "corpus gate self-check (injected verdict flip must exit nonzero)"
  python3 - "$d" <<'EOF'
import json, sys
d = sys.argv[1]
doc = json.load(open(f"{d}/corpus-current.json"))
prop = doc["files"][0]["properties"][0]
prop["verdict"] = "F" if prop["verdict"] == "T" else "T"
json.dump(doc, open(f"{d}/corpus-flipped.json", "w"))
EOF
  if python3 tools/bench_gate.py \
      --corpus-baseline tests/corpus/baseline.json \
      --corpus-current "$d/corpus-flipped.json"; then
    fail "corpus gate accepted an injected verdict flip"
  fi
}

# --- job selection ----------------------------------------------------------
run_set() { # <full: 0|1>
  local cells=("gcc Release") sanitizers=(thread) cell compiler build_type san
  if [[ $1 == 1 ]]; then
    cells=("gcc Debug" "gcc Release" "clang Debug" "clang Release")
    sanitizers=(thread "address,undefined")
  fi
  for cell in "${cells[@]}"; do
    read -r compiler build_type <<<"$cell"
    if ! command -v "$(cxx_of "$compiler")" >/dev/null 2>&1; then
      note "build-test ($cell): SKIPPED ($(cxx_of "$compiler") not installed locally)"
      continue
    fi
    job_build_test "$compiler" "$build_type"
  done
  for san in "${sanitizers[@]}"; do job_sanitize "$san"; done
  job_bench_gate
  job_serve
  job_corpus
  echo
  echo "ci_dryrun: all jobs green"
}

case "${1:-}" in
  "") run_set 0 ;;
  --full) run_set 1 ;;
  build-test) job_build_test "${2:?compiler}" "${3:?build type}" ;;
  sanitize) job_sanitize "${2:?sanitizer}" ;;
  bench-gate) job_bench_gate ;;
  serve) job_serve ;;
  corpus) job_corpus ;;
  *) fail "unknown job '$1' (build-test, sanitize, bench-gate, serve, corpus, --full)" ;;
esac
