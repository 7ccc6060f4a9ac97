#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 e2ebench/spread.py --workloads table1-paper,table2-iu --seeds 10

For each workload and end-to-end metric it prints the median of the
per-seed values and the interquartile range as a share of that median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json, and last the largest spread / bound of any metric. Runs are
sequential, one process at a time, with the run_seconds of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not res["correct"]:
                print("%s seed %d: exit %d, correct %s" % (w, seed, proc.returncode,
                                                          res["correct"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            worst = max(worst, spread / bounds[name])
            print("%-14s %-12s median %-12.6g spread %6.2f%%  bound %g%%" % (
                w, name, med, 100.0 * spread, 100.0 * bounds[name]))
            sys.stdout.flush()
    print("worst spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
