#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench the way run.py does, then checks that
  * every checker accepts a correct pass and reports each corrupted result
    as failed (perfbench --self-test);
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric its workload
    exercises (lookup builds its reducers at set-up, so it has no
    construction, first-touch or destruction figures);
  * each workload's trace file passes check_trace.py: spans nest within
    their pass, self times are >= 0, per-pass counter deltas sum to the
    run's totals;
  * check_trace.py itself reports traces that break those rules.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import check_trace  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
BINARY = None
# Per-layer metrics that need reducers built, first touched and destroyed
# inside a pass.
LIFECYCLE = {f"{layer}.{what}" for layer in ("spa", "hypermap")
             for what in ("first_lookup_ns", "reducer_ctor_ns", "reducer_dtor_ns")}


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())


def perfbench(*args):
    proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                          timeout=170)
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_checkers_catch_corrupted_results(self):
        proc = perfbench("--self-test")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("self-test: ok", proc.stdout)
        self.assertNotIn("FAILED", proc.stdout)


class Runs(unittest.TestCase):
    def assert_metrics(self, res, wanted):
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_run_prints_end_to_end_metrics(self):
        proc = perfbench("--workload", "spawn", "--seconds", "1", "--seed", "7")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for key in ("commit:", "compiler:", "flags:", "nproc:", "cpu:",
                    "seed: 7", "reference: spawn plain serial pass"):
            self.assertIn(key, proc.stdout)
        res = result(proc)
        self.assert_metrics(res, BENCH["end_to_end"])
        for m in BENCH["end_to_end"]:
            self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_runs_pass_trace_checks(self):
        with tempfile.TemporaryDirectory() as tmp:
            for w in ("spawn", "lookup", "reduce"):
                with self.subTest(workload=w):
                    out = os.path.join(tmp, w + ".json")
                    proc = perfbench("--workload", w, "--seconds", "1",
                                     "--trace", "1", "--trace-out", out)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    wanted = [m for m in BENCH["per_layer"]
                              if w != "lookup" or m["name"] not in LIFECYCLE]
                    self.assert_metrics(result(proc), wanted)
                    errors, summary = check_trace.check_file(out)
                    self.assertEqual(errors, [])
                    self.assertTrue(summary)

    def test_bad_arguments_are_refused(self):
        for args in (["--workload", "nope", "--seconds", "1"],
                     ["--workload", "spawn", "--seconds", "1", "--trace", "2"],
                     ["--workload", "spawn", "--seconds", "1", "--seed", "-1"],
                     ["--workload", "spawn"], []):
            with self.subTest(args=args):
                proc = perfbench(*args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(proc.stdout.strip().startswith("{"))


def tiny_trace():
    """A well-formed two-pass trace."""
    return {
        "passes": [
            {"id": 1, "procs": 4, "counters": {"steals": 3, "mem.views.allocs": 5}},
            {"id": 2, "procs": 1, "counters": {"steals": 0, "mem.views.allocs": 2}},
        ],
        "spans": [
            {"id": 1, "parent": 0, "pass": 1, "name": "pass", "t0": 0, "t1": 100, "count": 0},
            {"id": 2, "parent": 1, "pass": 1, "name": "runtime.run", "t0": 10, "t1": 90, "count": 0},
            {"id": 3, "parent": 2, "pass": 1, "name": "reducers.ctor", "t0": 20, "t1": 30, "count": 8},
            {"id": 4, "parent": 2, "pass": 1, "name": "reducers.dtor", "t0": 40, "t1": 50, "count": 8},
            {"id": 5, "parent": 0, "pass": 2, "name": "pass", "t0": 200, "t1": 300, "count": 0},
        ],
        "totals": {"workers_p4": {"steals": 3}, "workers_p1": {"steals": 0},
                   "mem": {"mem.views.allocs": 7}},
    }


class TraceChecker(unittest.TestCase):
    def errors(self, trace):
        return check_trace.check(trace)[0]

    def test_well_formed_trace_passes(self):
        self.assertEqual(self.errors(tiny_trace()), [])

    def test_span_outside_parent_is_reported(self):
        t = tiny_trace()
        t["spans"][3]["t1"] = 95
        self.assertTrue(any("outside its parent" in e for e in self.errors(t)))

    def test_negative_self_time_is_reported(self):
        t = tiny_trace()
        t["spans"][2].update(t0=15, t1=85)
        t["spans"][3].update(t0=15, t1=85)
        self.assertTrue(any("negative self time" in e for e in self.errors(t)))

    def test_span_in_another_pass_is_reported(self):
        t = tiny_trace()
        t["spans"][2]["pass"] = 2
        self.assertTrue(any("another pass" in e for e in self.errors(t)))

    def test_missing_pass_root_is_reported(self):
        t = tiny_trace()
        del t["spans"][4]
        self.assertTrue(any("0 root spans" in e for e in self.errors(t)))

    def test_counter_totals_mismatch_is_reported(self):
        for key, name in (("workers_p4", "steals"), ("mem", "mem.views.allocs")):
            t = copy.deepcopy(tiny_trace())
            t["totals"][key][name] += 1
            self.assertTrue(any(f"totals.{key}.{name}" in e for e in self.errors(t)))


if __name__ == "__main__":
    unittest.main()
