#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml — same jobs, same commands —
# for machines without act or network access.
#
#   tools/ci_dryrun.sh            one matrix cell (gcc Release) + TSan +
#                                 bench gate + corpus gate + gate self-checks
#   tools/ci_dryrun.sh --full     the whole matrix and both sanitizers
#
# Cells whose toolchain is absent locally (clang, ccache) are skipped with a
# notice instead of failing: the hosted workflow installs them itself.
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

note() { printf '\n=== %s ===\n' "$*"; }

build_and_test() { # <dir> <extra cmake args...>
  local dir=$1; shift
  cmake -B "$dir" -S . "$@" "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

# --- job: build-test matrix -------------------------------------------------
matrix_cells=("gcc Release")
if [[ $FULL == 1 ]]; then
  matrix_cells=("gcc Debug" "gcc Release" "clang Debug" "clang Release")
fi
for cell in "${matrix_cells[@]}"; do
  read -r compiler build_type <<<"$cell"
  cxx=$([[ $compiler == gcc ]] && echo g++ || echo clang++)
  if ! command -v "$cxx" >/dev/null 2>&1; then
    note "build-test ($cell): SKIPPED ($cxx not installed locally)"
    continue
  fi
  note "build-test ($cell)"
  build_and_test "build-ci-$compiler-$build_type" \
    -DCMAKE_BUILD_TYPE="$build_type" \
    -DCMAKE_C_COMPILER="$compiler" -DCMAKE_CXX_COMPILER="$cxx"
done

# --- job: sanitize ----------------------------------------------------------
sanitizers=(thread)
[[ $FULL == 1 ]] && sanitizers=(thread "address,undefined")
for san in "${sanitizers[@]}"; do
  note "sanitize ($san)"
  dir="build-ci-sanitize-${san//,/-}"
  build_and_test "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRFN_SANITIZE="$san"
  note "sanitize ($san): SAT engine suite + budgeted bdd+sat run"
  "./$dir/tests/sat_test"
  "./$dir/tools/rfn" verify builtin:processor --bad error_flag \
    --engine bdd,sat --workers 3 --budget-ms 5000 --certify
  note "sanitize ($san): PDR suite + budgeted bdd+sat+pdr certify runs"
  "./$dir/tests/pdr_test"
  for spec in "fifo bad_full_q" "processor bad_mutex" \
              "iu iu0" "usb bad_se1"; do
    read -r design prop <<<"$spec"
    "./$dir/tools/rfn" verify "builtin:$design" --bad "$prop" \
      --engine bdd,sat,pdr --workers 3 --budget-ms 10000 --certify
  done
  note "sanitize ($san): certificates checked by rfn_check"
  check_certs() { # <builddir> <design> <property args...>
    local bdir=$1 design=$2; shift 2
    "./$bdir/tools/rfn" verify "builtin:$design" "$@" \
      --cert-dir "$bdir/certs-$design"
    local cert
    for cert in "$bdir/certs-$design"/*.cert.json; do
      "./$bdir/tools/rfn_check" "$cert" "builtin:$design"
    done
  }
  check_certs "$dir" fifo --bad bad_full_q --bad bad_af_q --bad bad_hf_q
  check_certs "$dir" processor --bad bad_mutex --bad error_flag
  check_certs "$dir" iu --bad bad_dec --bad iu0
  check_certs "$dir" usb --bad bad_se1 --bad usb1_0
  if [[ $san == thread ]]; then
    note "sanitize (thread): concurrency suites"
    "./$dir/tests/portfolio_test"
    "./$dir/tests/netlist_fuzz_test"
    "./$dir/tests/trace_span_test"
    "./$dir/tests/prof_test"
    "./$dir/tests/sat_test"
    "./$dir/tests/serve_test"
    "./$dir/tests/pdr_test"
    note "sanitize (thread): serve daemon boot + replay"
    # Accept loop, connection threads, fair-share queue, executor workers
    # and the warm-cache lease hand-off all race by design — one
    # instrumented boot + replay watches the lot end to end.
    "./$dir/tools/rfn_serve" --socket "/tmp/rfn-tsan-$$.sock" \
      --workers 2 --admit-mem-mb 512 &
    serve_pid=$!
    for _ in $(seq 100); do [[ -S "/tmp/rfn-tsan-$$.sock" ]] && break; sleep 0.1; done
    python3 tools/serve_replay.py --socket "/tmp/rfn-tsan-$$.sock" \
      --log "$dir/tsan-serve-session.jsonl" --shutdown
    wait "$serve_pid"
    python3 tools/trace_report.py --serve "$dir/tsan-serve-session.jsonl"
    note "sanitize (thread): budgeted resource-out run"
    # Must degrade cleanly (exit exactly 1: inconclusive verdict, not a
    # TSan abort) with a budget-trip span.
    rc=0
    "./$dir/tools/rfn" verify tests/data/slow24.v --bad bad --workers 3 \
      --budget-ms 300 --trace-spans "$dir/tsan-spans.json" || rc=$?
    if [[ $rc != 1 ]]; then
      echo "ci_dryrun: budgeted run exited $rc (expected 1: resource-out)" >&2
      exit 1
    fi
    python3 tools/trace_report.py "$dir/tsan-spans.json" | grep budget_trip
    note "sanitize (thread): memory-budget resource-out run"
    # A 1 MiB RSS budget is below any live process's footprint: the run
    # must degrade to resource-out (exit 1, never an OOM kill or a hang)
    # with the tripped budget named in the trace. The watchdog's RSS poll
    # races the engines by design — TSan watches the trip hand-off.
    rc=0
    "./$dir/tools/rfn" verify tests/data/slow24.v --bad bad --workers 3 \
      --budget-mem-mb 1 --trace-json "$dir/tsan-mem-trace.jsonl" || rc=$?
    if [[ $rc != 1 ]]; then
      echo "ci_dryrun: memory-budgeted run exited $rc (expected 1)" >&2
      exit 1
    fi
    grep -q '"reason":"mem-budget"' "$dir/tsan-mem-trace.jsonl"
    "./$dir/tools/rfn" verify tests/data/demo.v --bad bad_q --workers 3 \
      --prof-json "$dir/tsan-prof.json" --prof-folded "$dir/tsan-prof.folded"
    python3 tools/trace_report.py --prof "$dir/tsan-prof.json"
  fi
done

# --- job: bench-gate --------------------------------------------------------
note "bench-gate"
cmake -B build-ci-bench -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-ci-bench -j "$(nproc)" --target micro_engines rfn_cli rfn_check

note "bench-gate: trace tooling self-check"
python3 tools/trace_report.py --self-check

# Traces are recorded before the gate, like the hosted job, so a failing
# gate still leaves a profile behind (CI uploads it as an artifact).
note "bench-gate: record run traces"
./build-ci-bench/tools/rfn verify tests/data/demo.v --bad bad_q --workers 3 \
  --trace-spans build-ci-bench/run-spans.json \
  --trace-json build-ci-bench/run-trace.jsonl
python3 tools/trace_report.py build-ci-bench/run-spans.json
python3 tools/trace_report.py --batch build-ci-bench/run-trace.jsonl

# Batch verification of every shipped design's property suite through a
# VerifySession, each rfn-trace-v2 artifact re-validated by trace_report.py.
# Exit 0 requires every verdict conclusive (the processor suite contains
# intentionally VIOLATED properties) and every conclusive verdict turned
# into an rfn-cert-v1 witness via --cert-dir (trace for Fails, inductive
# invariant for Holds); every witness is then re-validated by the
# independent rfn_check binary against a fresh design elaboration.
note "bench-gate: batch verification of the shipped designs"
# Each design also emits an rfn-prof-v1 artifact; trace_report.py --prof
# re-validates it, including the CPU-consistency bound (no engine set can
# burn more CPU than race-wall x workers allows).
run_batch() { # <out> <design> <property args...>
  local out=$1 design=$2; shift 2
  ./build-ci-bench/tools/rfn verify "builtin:$design" "$@" \
    --trace-json "$out" --cert-dir "build-ci-bench/certs-$design" \
    --prof-json "build-ci-bench/prof-$design.json"
  python3 tools/trace_report.py --batch "$out"
  python3 tools/trace_report.py --prof "build-ci-bench/prof-$design.json"
  local cert
  for cert in "build-ci-bench/certs-$design"/*.cert.json; do
    ./build-ci-bench/tools/rfn_check "$cert" "builtin:$design"
  done
}
run_batch build-ci-bench/batch-fifo.jsonl fifo \
  --bad bad_full_q --bad bad_af_q --bad bad_hf_q
run_batch build-ci-bench/batch-processor.jsonl processor \
  --bad bad_mutex --bad error_flag
run_batch build-ci-bench/batch-iu.jsonl iu \
  --bad bad_dec --bad iu0 --bad iu1 --bad iu2 --bad iu3 --bad iu4
run_batch build-ci-bench/batch-usb.jsonl usb \
  --bad bad_se1 --bad usb1_0 --bad usb1_1 --bad usb2_0 --bad usb2_1

./build-ci-bench/bench/micro_engines --benchmark_filter='Portfolio|Session|SatBmc' \
  --json build-ci-bench/bench-current.json
python3 tools/bench_gate.py --baseline BENCH_portfolio.json \
  --current build-ci-bench/bench-current.json

# --- bench_gate self-check: a synthetic 25% regression must fail the gate ---
note "bench-gate self-check (synthetic +25% regression must exit nonzero)"
python3 - <<'EOF'
import json
doc = json.load(open("build-ci-bench/bench-current.json"))
for b in doc["benchmarks"]:
    b["real_seconds_per_iter"] *= 1.25
json.dump(doc, open("build-ci-bench/bench-regressed.json", "w"))
EOF
if python3 tools/bench_gate.py --baseline build-ci-bench/bench-current.json \
    --current build-ci-bench/bench-regressed.json; then
  echo "ci_dryrun: bench_gate accepted a 25% regression" >&2
  exit 1
fi

# --- prof gate: subsystem peak bytes vs BENCH_prof.json ---------------------
# The profile is recorded sequentially (--workers 0): the arena capacities
# are then run-to-run identical, so the gate's 25% tolerance only absorbs
# allocator doubling granularity, not noise.
note "bench-gate: prof gate against BENCH_prof.json"
./build-ci-bench/tools/rfn verify builtin:processor --bad bad_mutex \
  --bad error_flag --workers 0 --engine bdd,sat \
  --prof-json build-ci-bench/prof-current.json
python3 tools/trace_report.py --prof build-ci-bench/prof-current.json
python3 tools/bench_gate.py --prof-baseline BENCH_prof.json \
  --prof-current build-ci-bench/prof-current.json

note "prof gate self-check (injected byte regression must exit nonzero)"
python3 - <<'EOF'
import json
doc = json.load(open("build-ci-bench/prof-current.json"))
bdd = doc["subsystems"]["bdd"]
bdd["peak_bytes"] = int(bdd["peak_bytes"] * 1.5)
json.dump(doc, open("build-ci-bench/prof-regressed.json", "w"))
EOF
if python3 tools/bench_gate.py --prof-baseline BENCH_prof.json \
    --prof-current build-ci-bench/prof-regressed.json; then
  echo "ci_dryrun: prof gate accepted an injected byte regression" >&2
  exit 1
fi
# --- job: serve smoke -------------------------------------------------------
# rfn_serve booted for real: three tenants replayed through one connection,
# repeats proving warm_cache.hits > 0 (a resident server that reloads cold
# every time is just a slow CLI), an oversubscribed request rejected by
# name, and the captured session log re-validated by trace_report --serve.
note "serve smoke"
cmake --build build-ci-bench -j "$(nproc)" --target rfn_serve serve_test
./build-ci-bench/tests/serve_test
./build-ci-bench/tools/rfn_serve --socket "/tmp/rfn-ci-$$.sock" \
  --workers 2 --admit-mem-mb 512 &
serve_pid=$!
for _ in $(seq 100); do [[ -S "/tmp/rfn-ci-$$.sock" ]] && break; sleep 0.1; done
python3 tools/serve_replay.py --socket "/tmp/rfn-ci-$$.sock" \
  --log build-ci-bench/serve-session.jsonl --shutdown
wait "$serve_pid"
python3 tools/trace_report.py --serve build-ci-bench/serve-session.jsonl \
  | tee build-ci-bench/serve-report.txt
grep -Eq 'warm_hits=[1-9]' build-ci-bench/serve-report.txt

# --- job: corpus ------------------------------------------------------------
# The committed AIGER corpus through batch sessions, every certificate
# re-checked by rfn_check, the summary gated against the checked-in
# baseline, then an injected verdict flip must fail the gate.
note "corpus gate"
python3 tools/corpus_run.py \
  --cli build-ci-bench/tools/rfn --check build-ci-bench/tools/rfn_check \
  --corpus tests/corpus --out build-ci-bench/corpus-current.json
python3 tools/trace_report.py --corpus build-ci-bench/corpus-current.json
python3 tools/bench_gate.py \
  --corpus-baseline tests/corpus/baseline.json \
  --corpus-current build-ci-bench/corpus-current.json

note "corpus gate self-check (injected verdict flip must exit nonzero)"
python3 - <<'EOF'
import json
doc = json.load(open("build-ci-bench/corpus-current.json"))
prop = doc["files"][0]["properties"][0]
prop["verdict"] = "F" if prop["verdict"] == "T" else "T"
json.dump(doc, open("build-ci-bench/corpus-flipped.json", "w"))
EOF
if python3 tools/bench_gate.py \
    --corpus-baseline tests/corpus/baseline.json \
    --corpus-current build-ci-bench/corpus-flipped.json; then
  echo "ci_dryrun: corpus gate accepted an injected verdict flip" >&2
  exit 1
fi

echo
echo "ci_dryrun: all jobs green"
