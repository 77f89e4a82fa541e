"""Fast self-test of the benchmark harness (tiny inputs, about a minute).

    python3 perfbench/selftest.py

Checks the output schema against BENCHMARK.json, that every verdict is
right (error ratio 0), that two traced runs with one seed count exactly
the same calls, that a second seed changes refute's inputs and no other
workload's, and that the benchmark fails without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import HELD_OUT_SEED, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, seed: int = 1, trace: int = 0, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines) -> dict:
    return json.loads(lines[-1])


def digest(lines) -> str:
    return next(line.rsplit(" ", 1)[1] for line in lines if "inputs_sha256" in line)


class HarnessTest(unittest.TestCase):

    def check_schema(self, out: dict, section: str):
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(out["correct"], True)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, want)
        for m in out["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_schema_and_verdicts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload)
                self.assertEqual(code, 0, lines)
                out = result(lines)
                self.check_schema(out, "end_to_end")
                self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))
                self.assertTrue(any(line.split()[:2] == ["error_ratio", "0"]
                                    for line in lines))

    def test_traced_calls_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, lines = bench(workload, trace=1)
                    self.assertEqual(code, 0, lines)
                    out = result(lines)
                    self.check_schema(out, "per_layer")
                    runs.append({k: v["value"] for k, v in out["metrics"].items()
                                 if v["unit"] in ("count", "B", "ratio")})
                self.assertEqual(runs[0], runs[1])
                self.assertGreater(runs[0]["presheaf.act.calls"], 0)

    def test_second_seed_changes_only_refute(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (digest(bench(workload, seed)[1])
                                 for seed in (1, HELD_OUT_SEED))
                if workload == "refute":
                    self.assertNotEqual(first, second)
                else:
                    self.assertEqual(first, second)

    def test_fails_without_the_program(self):
        bare = os.path.join(HERE, ".work", f"bare-{os.getpid()}")
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".work", "results",
                                                          "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            code, lines = bench("refute", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
