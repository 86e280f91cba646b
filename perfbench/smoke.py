"""Smoke test of the benchmark itself (about a minute):

    python3 perfbench/smoke.py

Runs every workload for a few ops, traced and untraced, and checks the
result format against BENCHMARK.json, that the checks catch a corrupted
output, that count metrics repeat across processes, that the traced run
shows the layers each workload was chosen for, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, root=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=root, timeout=600,
    )
    if not check:
        return proc
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


class Smoke(unittest.TestCase):
    def assert_format(self, result, spec_metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, units(spec_metrics))
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_runs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = bench("--workload", name, "--trace", "0", "--max-ops", "3")
                self.assert_format(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual((result["attempted"], result["failed"]), (3, 0))
                for metric, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, metric)

    def test_corrupted_output_counts_as_failed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = bench(
                    "--workload", name, "--trace", "0", "--max-ops", "2", "--inject-fault"
                )
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.0)

    def test_traced_runs(self):
        layers = {}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = bench("--workload", name, "--trace", "1", "--max-ops", "2")
                second = bench("--workload", name, "--trace", "1", "--max-ops", "2")
                self.assert_format(first, SPEC["per_layer"])
                self.assertTrue(first["correct"])
                self.assertEqual(first["metrics"]["failed_frac"]["value"], 0.0)
                counts = [
                    k for k, m in first["metrics"].items()
                    if m["unit"] in ("count", "bytes")
                ]
                for key in counts:
                    self.assertEqual(
                        first["metrics"][key]["value"], second["metrics"][key]["value"], key
                    )
                layers[name] = {k: m["value"] for k, m in first["metrics"].items()}

        def self_s(workload):
            return {
                k[: -len(".self_s")]: v for k, v in layers[workload].items()
                if k.endswith(".self_s")
            }

        base = self_s("base_sweep")
        self.assertEqual(max(base, key=base.get), "series")
        lemma = self_s("lemma_grid")
        self.assertEqual(layers["lemma_grid"]["series.calls"], 0)
        top_two = sorted(lemma, key=lemma.get, reverse=True)[:2]
        self.assertEqual(set(top_two), {"janowski", "inequalities"})
        counter = self_s("counterexample")
        for layer in ("search", "figure", "serialize", "cli"):
            self.assertGreater(counter[layer], 0.0, layer)

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", WORKLOADS[0], "--trace", "0", root=bare, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
