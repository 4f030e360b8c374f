#!/usr/bin/env python3
"""The benchmark's own test: a smoke test at tiny sizes plus one run of
each seeded workload on the held-out seed.

Run from the root of a checkout (takes about a minute after the build):

    python3 perfbench/test_bench.py

It checks that
  * one command (a traced run) prints every metric BENCHMARK.json names,
    with its unit, and the JSON result carries exactly the metrics the
    mode promises;
  * each injected broken result (conservation, order, accounting) makes
    the output checks fail and counts toward `failed`;
  * simulated metrics and per-layer counts repeat exactly across runs;
  * svc-overload and noc-mesh pass every check on HELD_OUT_SEED, at full
    size. No tuning of the benchmark or a claimed gain may use that seed.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDED = ["svc-overload", "noc-mesh"]
HELD_OUT_SEED = 9001


def bench(*args):
    """Runs run.py; returns (stdout lines, parsed JSON of the last line)."""
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    return lines, json.loads(lines[-1])


def tiny(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny", *extra)


def is_host_time(metric):
    return metric["unit"] == "s" or metric["name"] == "trace_overhead_share"


class SmokeTest(unittest.TestCase):
    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_metric_printed_with_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = tiny(workload, 1)
                text = "\n".join(lines[:-1])
                for m in SPEC["end_to_end"] + SPEC["per_layer"]:
                    pattern = r"^  %s = \S+ %s\b" % (re.escape(m["name"]), re.escape(m["unit"]))
                    self.assertRegex(text, re.compile(pattern, re.M), m["name"])
                self.check_result(result, SPEC["per_layer"])
                _, result = tiny(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_injected_broken_result_fails_checks(self):
        for kind in ["conservation", "order", "accounting"]:
            with self.subTest(kind=kind):
                lines, result = tiny("svc-overload", 0, "--inject", kind)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(any(l.startswith("CHECK FAILED") and l.endswith(": " + kind)
                                    for l in lines), kind)

    def test_simulated_metrics_and_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [tiny(workload, 1)[1]["metrics"] for _ in range(2)]
                for m in SPEC["per_layer"]:
                    if not is_host_time(m):
                        self.assertEqual(runs[0][m["name"]], runs[1][m["name"]], m["name"])

    def test_held_out_seed(self):
        for workload in SEEDED:
            with self.subTest(workload=workload):
                _, result = bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                                  "--seconds", "1", "--trace", "0")
                self.check_result(result, SPEC["end_to_end"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
