#!/usr/bin/env python3
"""Fast self-test of the end-to-end benchmark, on the small designs.

    python3 e2ebench/selftest.py

Builds the benchmark binary (as run.py does), then for every workload in
BENCHMARK.json:
  * runs it untraced and traced at small scale and checks that the result
    line has exactly the four result keys, that every printed metric has the
    name and unit BENCHMARK.json declares (end_to_end untraced, per_layer
    traced) and that the run was correct;
  * runs it with one expected result flipped (--inject-wrong-verdict) and
    checks that the run fails: nonzero exit, correct false, failed > 0.
Exits 0 when every check passes. Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402


def result_line(exe, args):
    proc = subprocess.run([exe] + args, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def main():
    exe = run.build()
    if exe is None:
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        base = ["--workload", w, "--seed", "7", "--seconds", "0", "--scale", "small"]
        for trace in ("0", "1"):
            code, res, err = result_line(exe, base + ["--trace", trace])
            where = "%s --trace %s" % (w, trace)
            if res is None:
                problems.append("%s: no result line\n%s" % (where, err))
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(res)))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                wrong = sorted(k for k in got if k in declared[trace]
                               and got[k] != declared[trace][k])
                problems.append("%s: metrics missing %s, undeclared %s, wrong unit %s"
                                % (where, missing, extra, wrong))
            if code != 0 or not res["correct"] or res["failed"] != 0 \
                    or res["attempted"] < 1:
                problems.append("%s: exit %d, result %s\n%s"
                                % (where, code, {k: res[k] for k in res if k != "metrics"},
                                   err))
        code, res, err = result_line(exe, base + ["--trace", "0",
                                                  "--inject-wrong-verdict"])
        if code == 0 or res is None or res["correct"] or res["failed"] < 1:
            problems.append("%s: an injected wrong result was not caught (exit %d)"
                            % (w, code))
        else:
            print("selftest: %s: injected wrong result caught, failed_frac %d/%d"
                  % (w, res["failed"], res["attempted"]))
    for p in problems:
        print("selftest: FAILED " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
