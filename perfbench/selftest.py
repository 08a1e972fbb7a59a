#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Each workload is shrunk (fewer patients, a narrow model) and run untraced and
traced in this process. The test checks that every metric named in
BENCHMARK.json is emitted with its unit, that the checks pass, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (caps BLAS threads before numpy loads)

run.cap_threads()
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402

SEED = 1
TINY = dict(patients=20, ratios=(0.4, 0.2, 0.4), hidden=16, layers=1, heads=2, d_pre=8,
            pretrain_epochs=1, folds=2)


def tiny(wl):
    return dataclasses.replace(wl, **TINY, max_seq_len=min(wl.max_seq_len, 64))


class SelfTest(unittest.TestCase):
    def run_tiny(self, name: str, trace: bool) -> dict:
        with tempfile.TemporaryDirectory(prefix=".scratch-", dir=HERE) as root:
            detail, result = bench.run(tiny(bench.WORKLOADS[name]), SEED, 0.0, trace, root)
        self.assertEqual(detail["failures"], [])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result["metrics"]

    def assert_metrics(self, metrics: dict, declared: list) -> None:
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_workload_emits_every_metric(self):
        declared = bench.SPEC
        for name in [w["name"] for w in declared["workloads"]]:
            with self.subTest(workload=name):
                e2e = self.run_tiny(name, trace=False)
                self.assert_metrics(e2e, declared["end_to_end"])
                for m in declared["end_to_end"]:
                    self.assertGreater(e2e[m["name"]]["value"], 0, m["name"])
                self.assert_metrics(self.run_tiny(name, trace=True), declared["per_layer"])

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".scratch-", dir=HERE) as root:
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(HERE, Path(root) / HERE.name,
                            ignore=shutil.ignore_patterns(".scratch-*", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "pretrain-dense",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
