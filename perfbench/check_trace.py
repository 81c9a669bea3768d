#!/usr/bin/env python3
"""Check a perfbench span trace and summarise self time per span name.

    python3 perfbench/check_trace.py TRACE.json

The checks:
  * every pass has exactly one root span, named "pass";
  * every other span's parent exists, belongs to the same pass, and
    contains it in time, so spans nest within their pass;
  * every span's self time (its duration minus its children's) is >= 0;
  * the per-pass counter deltas sum to the run's totals: worker counters
    per pool, allocator counters over all passes.

Exit status 1 when any check fails.
"""

import collections
import json
import sys


def check(trace):
    """Return (errors, summary lines) for a loaded trace."""
    errors = []
    passes = {p["id"]: p for p in trace["passes"]}
    spans = trace["spans"]
    by_id = {}
    for s in spans:
        if s["id"] in by_id:
            errors.append(f"span {s['id']}: duplicate id")
        by_id[s["id"]] = s
    roots = collections.Counter()
    child_time = collections.defaultdict(int)
    for s in spans:
        sid = s["id"]
        if s["pass"] not in passes:
            errors.append(f"span {sid}: unknown pass {s['pass']}")
        if s["t1"] < s["t0"]:
            errors.append(f"span {sid} ({s['name']}): ends before it starts")
        if s["parent"] == 0:
            roots[s["pass"]] += 1
            if s["name"] != "pass":
                errors.append(f"span {sid} ({s['name']}): root span is not a pass")
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"span {sid} ({s['name']}): unknown parent {s['parent']}")
            continue
        if parent["pass"] != s["pass"]:
            errors.append(f"span {sid} ({s['name']}): parent in another pass")
        if s["t0"] < parent["t0"] or s["t1"] > parent["t1"]:
            errors.append(f"span {sid} ({s['name']}): outside its parent "
                          f"{parent['id']} ({parent['name']})")
        child_time[s["parent"]] += s["t1"] - s["t0"]
    for pid in passes:
        if roots[pid] != 1:
            errors.append(f"pass {pid}: {roots[pid]} root spans, want 1")

    self_ns = collections.defaultdict(int)
    calls = collections.Counter()
    for s in spans:
        own = s["t1"] - s["t0"] - child_time[s["id"]]
        if own < 0:
            errors.append(f"span {s['id']} ({s['name']}): negative self time {own} ns")
        self_ns[s["name"]] += own
        calls[s["name"]] += 1

    totals = trace["totals"]
    for key, want in totals.items():
        if key.startswith("workers_p"):
            procs = int(key[len("workers_p"):])
            members = [p for p in trace["passes"] if p["procs"] == procs]
        else:
            members = trace["passes"]
        for name, total in want.items():
            got = sum(p["counters"].get(name, 0) for p in members)
            if got != total:
                errors.append(f"totals.{key}.{name}: passes sum to {got}, run total {total}")

    summary = ["trace: %d passes, %d spans; self time by span name:"
               % (len(passes), len(spans))]
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        summary.append("trace:   %-22s %8d spans %12.3f ms self"
                       % (name, calls[name], ns / 1e6))
    return errors, summary


def check_file(path):
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        return [f"cannot read {path}: {e}"], []
    try:
        return check(trace)
    except (KeyError, TypeError, ValueError) as e:
        return [f"malformed trace {path}: {e!r}"], []


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors, summary = check_file(argv[1])
    for line in summary:
        print(line)
    for e in errors:
        print("error: " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
