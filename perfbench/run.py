#!/usr/bin/env python3
"""Builds and runs the PEC benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload figure11 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The program is built from the checkout's own sources into
.bench_build/perfbench in one fixed optimized configuration (CMake Release);
build output goes to stderr. The last line of stdout is the benchmark's JSON
result. --selftest plants a wrong program output in front of each check and
exits 0 only if every check reports it.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
PEC = os.path.join(BUILD, "pec", "tools", "pec")
WORKLOADS = ("figure11", "failing", "serve_warm", "figure11_parallel")
RUN_TIMEOUT_S = 170

# (workload, planted fault, check that must report it)
PLANTS = (
    ("figure11", "figure11-proved", "figure11-proved"),
    ("figure11", "figure11-permute", "figure11-permute"),
    ("failing", "failing-rejected", "failing-rejected"),
    ("figure11_parallel", "parallel-verdict", "parallel-verdict"),
    ("serve_warm", "serve-bytes", "serve-bytes"),
    ("serve_warm", "apply-semantics", "apply-semantics"),
)


def die(msg):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no PEC sources under %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench", "pec"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run(workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--pec", PEC]
    cmd += list(extra)
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=capture)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))


def selftest():
    ok = True
    for workload, plant, check in PLANTS:
        p = run(workload, 1, 1, 0, ["--plant", plant], capture=True)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if p.returncode == 0 and lines else {}
        tag = "CHECK FAILED [%s]" % check
        caught = (result.get("correct") is False and
                  result.get("failed", 0) > 0 and tag in p.stderr)
        print("%-18s %-17s %s" % (workload, plant,
                                  "caught" if caught else "NOT CAUGHT"))
        ok &= caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="Chrome trace path (traced runs)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    build()
    if args.selftest:
        return selftest()
    extra = ["--trace-out", args.trace_out] if args.trace_out else []
    return run(args.workload, args.seed, args.seconds, args.trace,
               extra).returncode


if __name__ == "__main__":
    sys.exit(main())
