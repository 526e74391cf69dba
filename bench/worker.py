"""One workload process of the homscat benchmark.

    python bench/worker.py --workload NAME --mode {setup,measure,trace} --seed N --seconds S --t0 T [--smoke]

`bench/run.py` starts it with the BLAS thread count pinned and `src/` on
PYTHONPATH; T is the monotonic clock reading just before the process was
started.  Every mode sets up (imports, one warm-up op) and reports the
set-up time, calibrated like the op times (see REF_NOMINAL_S).  `measure` then runs the closed loop with one client for whole
op cycles until S seconds and at least 100 ops have passed.  `trace` runs
each op of a fixed list untraced and traced, and reports the per-layer
numbers.  The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import homscat
from tracer import LAYERS, Tracer, layer_totals
from workloads import WORKLOADS, Cli, symplectic_defect

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # ten samples beyond the 90th percentile
HARD_CAP_S = 120.0  # the loop ends here even short of MIN_OPS
SMOKE_OPS = 4  # ops per cycle at smoke size

# The speed a shared host gives this process drifts by tens of percent over
# seconds to minutes, and CPU time drifts with wall time.  So a fixed piece of
# work, independent of homscat, is timed after every op: small matrix
# products, a batched product and interpreter arithmetic, the mix that the
# package's kernels run.  Each op time is divided by the median time of this
# reference around it, which reads as milliseconds on a machine where the
# reference takes REF_NOMINAL_S.
REF_NOMINAL_S = 1e-3
REF_WINDOW = 5  # ops on each side of an op whose reference times calibrate it
_REF_SMALL = np.random.default_rng(0).standard_normal((6, 6)) / 6
_REF_BATCH = np.random.default_rng(1).standard_normal((512, 6, 6)) / 6


def reference_s() -> float:
    start = time.perf_counter()
    x = np.eye(6)
    for _ in range(60):
        x = _REF_SMALL @ x
        x = x / np.abs(x).max()
    y = _REF_BATCH
    for _ in range(6):
        y = (_REF_BATCH @ y) / 3.0
    s = 0
    for i in range(3000):
        s += i * i
    return time.perf_counter() - start


def calibrated(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by REF_NOMINAL_S over the median reference time around it."""
    return [
        t * REF_NOMINAL_S / statistics.median(refs[max(0, k - REF_WINDOW): k + REF_WINDOW + 1])
        for k, t in enumerate(times)
    ]


def run_op(wl, op, tracer=None) -> tuple[float, dict]:
    """Time one op's call; check its output untimed.  A raise is a failed op."""
    start = time.perf_counter()
    try:
        out = wl.run(op, tracer)
    except Exception:  # an op that raises is counted as failed, never dropped
        return time.perf_counter() - start, {"ok": False, "error": traceback.format_exc()}
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(op, out)
    except Exception:
        return elapsed, {"ok": False, "error": traceback.format_exc()}


class Loop:
    """Closed loop with one client over seeded op cycles."""

    def __init__(self, wl, seed: int, smoke: bool):
        self.wl, self.seed, self.smoke = wl, seed, smoke
        self.failed = 0

    def cycle(self, c: int) -> list:
        ops = self.wl.cycle(np.random.default_rng([self.seed, c]))
        return ops[:SMOKE_OPS] if self.smoke else ops

    def run(self, op, tracer=None) -> tuple[float, dict]:
        elapsed, info = run_op(self.wl, op, tracer)
        if not info["ok"]:
            self.failed += 1
            if self.failed <= 3:
                sys.stderr.write(f"{self.wl.name} op {op.cls} failed: {info}\n")
        return elapsed, info


def measure(loop: Loop, seconds: float) -> dict:
    times, refs, classes = [], [], []
    start = time.monotonic()
    min_ops = 1 if loop.smoke else MIN_OPS
    c = 1
    while True:
        for op in loop.cycle(c):
            times.append(loop.run(op)[0])
            refs.append(reference_s())
            classes.append(op.cls)
        c += 1
        elapsed = time.monotonic() - start
        if (elapsed >= seconds and len(times) >= min_ops) or elapsed >= HARD_CAP_S:
            break
    who = resource.RUSAGE_CHILDREN if isinstance(loop.wl, Cli) else resource.RUSAGE_SELF
    return {
        "op_s": calibrated(times, refs),
        "wall_op_s": times,
        "ref_ms_median": statistics.median(refs) * 1e3,
        "classes": classes,
        "cycles": c - 1,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def trace(loop: Loop, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics over a fixed op list, which repeats exactly on a seed."""
    cycles = 1 if loop.smoke else max(1, round(seconds / 2 / loop.wl.cycle_s))
    ops = [op for c in range(1, cycles + 1) for op in loop.cycle(c)]
    n = len(ops)
    plain, traced, infos = [], [], []
    tracer = Tracer()
    for k, op in enumerate(ops):
        tracer.op = k
        # each op runs untraced and traced back to back, in alternating order,
        # so that drift in machine speed cancels from the overhead
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(loop.run(op)[0])
                continue
            tracer.install()
            try:
                elapsed, info = loop.run(op, tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            infos.append(info)

    self_s, calls, incl = layer_totals(tracer.spans)
    counts = tracer.counts

    def per_op(x: float) -> float:
        return x / n

    m = {
        "matkit.eigh.calls_per_op": per_op(calls["matkit.eigh"]),
        "matkit.eigh.ms_per_op": per_op(incl["matkit.eigh"] * 1e3),
        "matkit.expm.calls_per_op": per_op(calls["matkit.expm"]),
        "matkit.expm.ms_per_op": per_op(incl["matkit.expm"] * 1e3),
        "majorize.solve_bracket.ms_per_op": per_op(incl["majorize.solve_bracket"] * 1e3),
        "majorize.mirsky.ms_per_op": per_op(incl["majorize.mirsky"] * 1e3),
        "models.field.calls_per_op": per_op(calls["models.field"]),
        "models.field.samples_per_op": per_op(counts["models.field.samples"]),
        "models.field.ms_per_op": per_op(incl["models.field"] * 1e3),
        "flow.solve.calls_per_op": per_op(calls["flow.solve"]),
        "flow.rk4_passes_per_op": per_op(calls["flow.rk4"]),
        # each solve accepts exactly its final pass
        "flow.useful_pass_ratio": calls["flow.solve"] / calls["flow.rk4"] if calls["flow.rk4"] else 0.0,
        "flow.T_used_mean": statistics.fmean(T for T, _ in tracer.scatter_results) if tracer.scatter_results else 0.0,
        "flow.sigma_err_max": max((i.get("sigma_err", 0.0) for i in infos), default=0.0),
        "flow.symplectic_defect_max": max((symplectic_defect(s) for _, s in tracer.scatter_results), default=0.0),
        "classify.hessian.calls_per_op": per_op(calls["classify.hessian"]),
        "classify.realize.attempts_per_op": per_op(counts["classify.realize.attempts"]),
        "cli.python_ms": per_op(counts["cli.python_s"] * 1e3),
        "cli.numpy_import_ms": per_op(counts["cli.numpy_import_s"] * 1e3),
        "cli.homscat_import_ms": per_op(counts["cli.homscat_import_s"] * 1e3),
        "cli.json_bytes_per_op": per_op(sum(i.get("json_bytes", 0) for i in infos)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = per_op(self_s[layer] * 1e3)
    for sub in Cli.classes:
        ms = [t * 1e3 for t, op in zip(plain, ops) if op.cls == sub]
        m[f"cli.{sub}.ms_p50"] = statistics.median(ms) if ms else 0.0
    op_ms = per_op(sum(traced) * 1e3)
    attributed = sum(m[f"{layer}.self_ms_per_op"] for layer in LAYERS)
    attributed += m["cli.python_ms"] + m["cli.numpy_import_ms"] + m["cli.homscat_import_ms"]
    m["trace.op_ms_mean"] = op_ms
    m["trace.untraced_op_ms_mean"] = per_op(sum(plain) * 1e3)
    m["trace.overhead_ms_per_op"] = op_ms - m["trace.untraced_op_ms_mean"]
    m["trace.overhead_ops_per_s"] = n / sum(traced) - n / sum(plain)
    m["trace.unattributed_ms_per_op"] = op_ms - attributed

    spans_path.write_text(json.dumps({"ops": [op.cls for op in ops], "spans": tracer.spans}))
    return {"metrics": m, "ops": n, "cycles": cycles, "missing_entry_points": sorted(tracer.missing)}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    source = ROOT / "src" / "homscat"
    if Path(homscat.__file__).resolve().parent != source.resolve():
        sys.stderr.write(f"homscat was imported from {homscat.__file__}, not from {source}\n")
        return 2
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](workdir)
        loop = Loop(wl, args.seed, args.smoke)
        warm_up = wl.cycle(np.random.default_rng([args.seed, 0]), shuffle=False)[0]
        run_op(wl, warm_up)
        setup_s = time.monotonic() - args.t0
        ref_s = statistics.median(reference_s() for _ in range(2 * REF_WINDOW + 1))
        result = {"setup_s": setup_s * REF_NOMINAL_S / ref_s, "wall_setup_s": setup_s, "env": environment()}
        if args.mode == "measure":
            result.update(measure(loop, args.seconds))
        elif args.mode == "trace":
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            result.update(trace(loop, args.seconds, spans_path))
        result["failed"] = loop.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
