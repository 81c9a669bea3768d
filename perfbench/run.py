#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload spawn|lookup|reduce [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of the checkout. --seconds defaults to run_seconds in
BENCHMARK.json. The first run configures and builds a Release perfbench
(and the cilkm library it links) under .bench_build/; later runs only
rebuild what changed. Build output goes to stderr. Everything the benchmark prints goes
to stdout, ending with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the span trace is written next to the build, checked with
check_trace.py, and summarised (self time per span name) before the JSON
line. Exit status is 0 only when the build, the run and the trace checks
all succeed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, HERE)
import check_trace  # noqa: E402


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def build(out_dir):
    """Configure once, then build the perfbench target. Returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def commit_id():
    """The git commit, or a hash of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["spawn", "lookup", "reduce"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    seconds = args.seconds or run_seconds()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    trace_out = os.path.join(build_dir(),
                             f"trace-{args.workload}-{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if args.trace:
        errors, summary = check_trace.check_file(trace_out)
        for line in summary:
            print(line)
        if errors:
            for e in errors[:20]:
                print(f"perfbench: trace check: {e}", file=sys.stderr)
            return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
