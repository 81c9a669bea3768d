#!/usr/bin/env python3
"""Run one commit's benchmark twice over and check it against its bounds.

    python3 perfbench/steadiness.py [--workloads spawn,reduce] [--runs 10]

Run from the root of the checkout. For each workload (default: those in
BENCHMARK.json) it makes two sets of --runs untraced runs of
`perfbench/run.py` at BENCHMARK.json's run_seconds, each run on its own
seed: seeds 1..runs for the first set, runs+1..2*runs for the second. For
every end-to-end metric it reports, per set, the median, the quartiles
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median, and the
second median's drift from the first in the metric's "worse" direction.
A metric is OVER when either set's spread or the drift exceeds its bound.
Both sets must also fail the same share of passes. Exit status 1 when a
bound is broken.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    print(f"  {workload} seed {seed}: attempted {result['attempted']} "
          f"failed {result['failed']}", file=sys.stderr)
    return result


def summarise(results, name):
    values = [r["metrics"][name]["value"] for r in results]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    n = args.runs
    broken = False
    for workload in workloads:
        sets = [[run_once(workload, seed)
                 for seed in range(first, first + n)]
                for first in (FIRST_SEED, FIRST_SEED + n)]
        print(f"\n{workload}: 2 sets of {n} runs, {bench['run_seconds']} s "
              f"each, seeds {FIRST_SEED}-{FIRST_SEED + 2 * n - 1}\n")
        print("| metric | median 1 | Q1 | Q3 | spread 1 | median 2 | Q1 | Q3 "
              "| spread 2 | drift | bound | verdict |")
        print("|" + "---|" * 12)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            m1, q11, q31, s1 = summarise(sets[0], name)
            m2, q12, q32, s2 = summarise(sets[1], name)
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (m2 - m1) / m1
            ok = max(s1, s2, drift) <= bound
            broken = broken or not ok
            print(f"| {name} | {m1:.6g} | {q11:.6g} | {q31:.6g} | {s1:.3f} "
                  f"| {m2:.6g} | {q12:.6g} | {q32:.6g} | {s2:.3f} "
                  f"| {drift:+.3f} | {bound} | {'pass' if ok else 'OVER'} |")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        print(f"\nfailed share per set: {shares[0]:.6g}, {shares[1]:.6g}")
        broken = broken or shares[0] != shares[1]
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
