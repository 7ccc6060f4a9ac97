#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload table1-paper --seed 1 --seconds 32 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench), as a Release build of ../src plus the
benchmark binary rfn_e2ebench; later runs only rebuild what changed. Build
output goes to standard error, so the last line of standard output is the
binary's JSON result. With --trace 1 the spans of the traced pass are
written to <build dir>/spans-<workload>.json. Every other argument is passed
through to the binary (see main.cpp); the exit status is the binary's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def build():
    """Configures (once) and builds rfn_e2ebench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no src/ beside the benchmark; run from a full checkout",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rfn_e2ebench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "rfn_e2ebench")


def main(argv):
    exe = build()
    if exe is None:
        return 2
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] \
            and "--workload" in args and "--spans-out" not in args:
        workload = args[args.index("--workload") + 1]
        args += ["--spans-out", os.path.join(build_dir(), "spans-%s.json" % workload)]
    return subprocess.run([exe] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
