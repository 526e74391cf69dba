"""Self-tests of the benchmark, at smoke size (a few ops per cycle, one set-up).

    python3 bench/selftest.py

They run `bench/run.py` from the root of the checkout, as its users do,
and take about 30 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that depend only on the seed, never on timing
EXACT = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls_per_op")] + [
    "models.field.samples_per_op",
    "flow.rk4_passes_per_op",
    "classify.realize.attempts_per_op",
]
SMOKE_LIMIT_S = 30.0


def bench(cwd: Path, workload: str, trace: int, seed: int = 1) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


class BenchmarkSelfTest(unittest.TestCase):
    def metrics(self, workload: str, trace: int, seed: int = 1) -> dict:
        proc = bench(ROOT, workload, trace, seed)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return {name: entry["value"] for name, entry in result["metrics"].items()}

    def test_every_metric_emitted_for_every_workload_at_smoke_size(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    start = time.monotonic()
                    values = self.metrics(workload, trace)
                    self.assertLess(time.monotonic() - start, SMOKE_LIMIT_S)
                    self.assertEqual(set(values), {m["name"] for m in SPEC[kind]})
                    if trace == 0:
                        self.assertTrue(all(v > 0 for v in values.values()), values)
                    else:
                        # layer self times add up to the traced op time, up to the tracing overhead
                        slack = max(values["trace.overhead_ms_per_op"], 0.0) + 0.05 * values["trace.op_ms_mean"]
                        self.assertGreaterEqual(values["trace.unattributed_ms_per_op"], 0.0)
                        self.assertLessEqual(values["trace.unattributed_ms_per_op"], slack)

    def test_exact_counts_repeat_on_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = self.metrics(workload, 1, seed=5), self.metrics(workload, 1, seed=5)
                self.assertEqual({k: first[k] for k in EXACT}, {k: second[k] for k in EXACT})

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench(bare, WORKLOADS[0], 0)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
