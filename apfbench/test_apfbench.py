#!/usr/bin/env python3
"""Tests of the apfbench benchmark itself.

    python3 apfbench/test_apfbench.py            # schema + smoke runs (~2 min)
    python3 apfbench/test_apfbench.py Schema     # schema only (instant)

Run from the root of the repository. The schema tests check BENCHMARK.json
and the per-layer table in apfbench/layers.json against each other. The smoke tests build the benchmark, run every
workload for a couple of seconds traced and untraced, and check that each
run passes its output checks and emits exactly the metrics BENCHMARK.json
lists, with their units. The isolation test runs the benchmark in a
directory holding only BENCHMARK.json and apfbench/, where it must fail
without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = 2


def load(rel):
    with open(os.path.join(ROOT, rel)) as f:
        return json.load(f)


def run_bench(cwd, workload, trace, seconds=SMOKE_SECONDS, seed=7):
    cmd = load("BENCHMARK.json")["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class Schema(unittest.TestCase):
    def setUp(self):
        self.spec = load("BENCHMARK.json")

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        for path in self.spec["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)), path)

    def test_names_and_units(self):
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertNotIn("\n", w["why"])
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_setup_s_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))

    def test_layer_table_matches(self):
        table = load("apfbench/layers.json")["per_layer"]
        self.assertEqual([r["name"] for r in table],
                         [m["name"] for m in self.spec["per_layer"]])
        workloads = {w["name"] for w in self.spec["workloads"]}
        for row in table:
            self.assertTrue(set(row["on"]) <= workloads, row["name"])


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load("BENCHMARK.json")
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in listed})
        context = json.loads(lines[-2])["context"]
        self.assertEqual(context["width"], 2)
        if trace:
            with open(context["trace_file"]) as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(events)
            self.assertTrue(all(e["ph"] == "X" for e in events))
        else:
            for k, v in result["metrics"].items():
                self.assertGreater(v["value"], 0, k)

    def test_workloads(self):
        for w in load("BENCHMARK.json")["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)


class Isolation(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        spec = load("BENCHMARK.json")
        iso = os.path.join(ROOT, ".bench_build", "isolation")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(iso, path))
        workload = spec["workloads"][0]["name"]
        try:
            proc = run_bench(iso, workload, 0)
        finally:
            shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(unittest.main(argv=sys.argv[:1] + sys.argv[1:], verbosity=2))
