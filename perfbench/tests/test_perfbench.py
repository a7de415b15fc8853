#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

They drive perfbench/run.py exactly as a benchmark run does (which builds
the harness on first use) with a one-second budget, and check that

  * every metric BENCHMARK.json names is printed, with its unit, by the
    run kind it belongs to (--trace 0: end_to_end, --trace 1: per_layer),
    and failed_share / fidelity_err_pct appear in the text output;
  * each correctness check has teeth: a wrong reference digest
    (paper_campaign), a shard-twin mismatch (sharded_fleet) and a
    zero-width fidelity band (hybrid_fleet) turn every flow of the run
    into a failure, and `--workload all` exits non-zero when one
    workload's result is incorrect.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


def bench(workload, trace, *extra):
    proc = run_bench(workload, trace, *extra)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class MetricsPrinted(unittest.TestCase):
    def check_run(self, workload, trace, listed):
        result, text = bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], text)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for m in listed:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float))
            self.assertTrue(
                any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                    for line in text),
                f"{m['name']} not printed with its unit")
        return text

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                text = self.check_run(workload, 0, SPEC["end_to_end"])
                self.assertTrue(any(l.split()[:1] == ["failed_share"] and
                                    "ops=" in l and "ops_failed=" in l
                                    for l in text))
                if workload == "hybrid_fleet":
                    self.assertTrue(any("fidelity_err_pct" in l for l in text))

    def test_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, SPEC["per_layer"])


class ChecksHaveTeeth(unittest.TestCase):
    def assert_all_failed(self, workload, fault):
        result, text = bench(workload, 0, "--fault", fault)
        self.assertFalse(result["correct"], text)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"], text)

    def test_wrong_reference_digest(self):
        self.assert_all_failed("paper_campaign", "digest")

    def test_shard_twin_mismatch(self):
        self.assert_all_failed("sharded_fleet", "shard_twin")

    def test_zero_width_fidelity_band(self):
        self.assert_all_failed("hybrid_fleet", "fidelity_band")

    def test_all_fails_when_one_workload_is_incorrect(self):
        # The fault breaks only hybrid_fleet's check; the others pass.
        proc = run_bench("all", 0, "--fault", "fidelity_band")
        self.assertNotEqual(proc.returncode, 0, proc.stderr)
        results = [json.loads(l) for l in proc.stdout.splitlines()
                   if l.startswith("{")]
        self.assertEqual([r["correct"] for r in results],
                         [w != "hybrid_fleet" for w in WORKLOADS])


if __name__ == "__main__":
    unittest.main(verbosity=2)
