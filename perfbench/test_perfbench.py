#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the benchmark's own rules, then runs every
workload in tiny mode, traced and untraced, and checks that the result
line parses, is correct, and reports every metric of BENCHMARK.json by
name with its unit. The first test builds the benchmark if needed.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout


class SpecTest(unittest.TestCase):
    def test_workloads_and_metrics(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["broadcast", "churn", "chaos"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_unknown_workload_is_refused(self):
        code, out = run_bench("--workload", "nope", "--seed", "1")
        self.assertNotEqual(code, 0)
        self.assertEqual(out, "")


class TinyRunTest(unittest.TestCase):
    def check(self, workload, trace):
        code, out = run_bench("--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace), "--tiny")
        self.assertEqual(code, 0, out)
        report, last = out.strip().rsplit("\n", 1)
        result = json.loads(last)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertIn(m["name"], report)
        return result

    def test_broadcast(self):
        self.check("broadcast", 0)
        layers = self.check("broadcast", 1)["metrics"]
        self.assertEqual(layers["routing.recomputes"]["value"], 0)
        self.assertEqual(layers["sub.subscribe_events"]["value"], 0)
        self.assertGreater(layers["sim.step.host_rx_n"]["value"], 0)

    def test_churn(self):
        self.check("churn", 0)
        layers = self.check("churn", 1)["metrics"]
        self.assertGreater(layers["counting.rounds_started"]["value"], 0)
        self.assertGreater(layers["sub.subscribe_events"]["value"], 0)

    def test_chaos(self):
        self.check("chaos", 0)
        layers = self.check("chaos", 1)["metrics"]
        self.assertGreater(layers["audit.calls"]["value"], 0)
        self.assertGreater(layers["routing.recomputes"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
