#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the repository:

    python3 perfbench/test_perfbench.py

They build the driver (through run.py's build step) and check that:
  * paper_error_pct over EXPERIMENTS.md's 48 cells is about 27.2%, and
    every metric name and unit uses only the allowed characters
    (perfbench_selftest);
  * the driver's metric catalogue is exactly the one BENCHMARK.json names;
  * an unknown workload exits 2 and lists the candidates;
  * a short run prints a last line with exactly the contract's keys.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["paper_tables", "service_open_loop", "scale_1024"]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.build() != 0:
            raise RuntimeError("perfbench build failed")

    def test_selftest(self):
        out = subprocess.run([os.path.join(run.BUILD, "perfbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("27.23", out.stdout)

    def test_metric_names(self):
        bench = load_benchmark()
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in bench[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                names.append(m["name"])
        for w in bench["workloads"]:
            self.assertRegex(w["name"], NAME)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_catalogue_matches_benchmark_json(self):
        bench = load_benchmark()
        out = subprocess.run(
            [os.path.join(run.BUILD, "perfbench_selftest"), "--list"],
            capture_output=True, text=True, check=True)
        listed = {"end_to_end": [], "per_layer": []}
        for line in out.stdout.splitlines():
            group, name, unit = line.split()
            listed[group].append((name, unit))
        for group in listed:
            self.assertEqual(
                listed[group],
                [(m["name"], m["unit"]) for m in bench[group]], group)
        self.assertEqual([w["name"] for w in bench["workloads"]], WORKLOADS)

    def test_unknown_workload_exits_2_with_candidates(self):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "no_such_workload", "--seed", "1", "--seconds", "1", "--trace",
             "0"], capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(out.returncode, 2)
        for name in WORKLOADS:
            self.assertIn(name, out.stderr)
        self.assertEqual(out.stdout.strip().count("{"), 0)

    def test_result_line(self):
        bench = load_benchmark()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "service_open_loop", "--seed", "3", "--seconds", "1", "--trace",
             "0"], capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        self.assertIn("seed 3", lines)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in bench["end_to_end"]))
        for m in bench["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)


if __name__ == "__main__":
    unittest.main()
