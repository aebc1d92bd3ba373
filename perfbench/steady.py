#!/usr/bin/env python3
"""Steadiness check of the PEC benchmark (see perfbench/README.md).

For each workload, runs two interleaved sets of runs (A, B, A, B, ...),
each run on its own seed, and prints for every end-to-end metric:

  - the spread of each set, and of both sets together: (Q3 - Q1) /
    median, with the quartiles of statistics.quantiles(values, n=4),
    against a third of the metric's bound (not for setup_s, which is one
    cold set-up per run);
  - the shift of set B's median from set A's, either way, against the
    bound;
  - the share of failed operations in each set.

As context rather than metrics, it prints per run the steal time read from
/proc/stat while the run lasted and the ratio of the median pass time to
the fastest pass time (how much of the run the host's slow phase took).

  python3 perfbench/steady.py --runs 10
  python3 perfbench/steady.py --runs 5 --workloads failing
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def steal_ticks():
    try:
        with open("/proc/stat") as f:
            cpu = f.readline().split()
        return int(cpu[8])
    except (OSError, IndexError, ValueError):
        return 0


def one_run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    s0 = steal_ticks()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    steal_s = (steal_ticks() - s0) / os.sysconf("SC_CLK_TCK")
    if p.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed, p.stderr))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    m = re.search(r"pass_min_ms=([\d.]+) pass_median_ms=([\d.]+)", p.stderr)
    ratio = float(m.group(2)) / float(m.group(1)) if m else float("nan")
    return result, steal_s, ratio


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed", type=int, default=100,
                    help="first seed; every run gets its own")
    args = ap.parse_args()

    ok = True
    seed = args.seed
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label in ("A", "B"):
                result, steal_s, ratio = one_run(bench, workload, seed)
                sets[label].append(result)
                print("  %s run %2d seed %4d  steal %.2fs  median/fastest "
                      "pass %.2f  %s" % (
                          label, i, seed, steal_s, ratio,
                          " ".join("%s=%.4g" % (k, v["value"]) for k, v in
                                   result["metrics"].items())),
                      flush=True)
                seed += 1
        print("%s:" % workload)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            sa, ma = spread(a)
            sb, mb = spread(b)
            sab, _ = spread(a + b)
            shift = (mb - ma) / ma if metric["better"] == "lower" \
                else (ma - mb) / ma
            spread_ok = name == "setup_s" or max(sa, sb, sab) <= bound / 3
            good = spread_ok and abs(shift) <= bound
            ok &= good
            print("  %-12s median A %-10.5g B %-10.5g spread A %.3f B %.3f "
                  "all %.3f shift %+.3f bound %.2f (spread target %.3f)  %s"
                  % (name, ma, mb, sa, sb, sab, shift, bound, bound / 3,
                     "ok" if good else "NOT STEADY"))
        shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"]
                                                       for r in v)
                  for k, v in sets.items()}
        same = all(r["failed"] * sets["A"][0]["attempted"] ==
                   sets["A"][0]["failed"] * r["attempted"]
                   for r in sets["A"] + sets["B"])
        ok &= same
        print("  failed share A %.6f B %.6f  %s" % (
            shares["A"], shares["B"], "ok" if same else "DIFFERS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
