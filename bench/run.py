"""homscat benchmark.

    python3 bench/run.py --workload {scatter,ensemble,realize,cli,all} --seed N --seconds S --trace {0,1}

Each workload runs in fresh worker processes (`bench/worker.py`) with one
BLAS thread and `src/` on PYTHONPATH, so the program is the source tree of
this checkout.  With `--trace 0` the workload is set up several times, each
time in a new process, and then measured in a closed loop with one client;
the end-to-end metrics are printed, their times calibrated against a fixed
reference kernel (see worker.py), with the uncalibrated wall-clock figures
beside them.  With `--trace 1` a separate traced process prints the
per-layer metrics.  Metric names and units come from
BENCHMARK.json.  A readable report comes first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only if every op passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scatter", "ensemble", "realize", "cli")
SETUP_REPS = 5  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # every worker ends within this many seconds of the start
START = time.monotonic()


def machine() -> dict:
    cpu = "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "?")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "loadavg": os.getloadavg()}


def spawn(workload: str, mode: str, args) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--mode", mode,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        argv.append("--smoke")
    t0 = time.monotonic()
    with subprocess.Popen([*argv, "--t0", repr(t0)], env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (t0 - START)))
        except BaseException:  # a timeout or an interrupt: stop the worker and every process it started
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0:
        raise SystemExit(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload: str, args) -> tuple[dict, dict, list[str]]:
    """Metrics as {name: (value, samples)}, the raw result, and report lines."""
    runs = [spawn(workload, "setup", args) for _ in range(1 if args.smoke else SETUP_REPS - 1)]
    res = spawn(workload, "measure", args)
    runs.append(res)

    def timings(op_s: list[float], setups: list[float]) -> dict:
        ms = sorted(t * 1e3 for t in op_s)
        n = len(ms)
        return {
            "ops_per_s": (n / sum(op_s), n),
            "op_ms_p50": (statistics.median(ms), n),
            "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8] if n > 1 else ms[0], n),
            "setup_s": (statistics.median(setups), len(setups)),
        }

    metrics = timings(res["op_s"], [r["setup_s"] for r in runs])
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], 1)
    wall = timings(res["wall_op_s"], [r["wall_setup_s"] for r in runs])
    n = len(res["op_s"])
    lines = [
        f"{workload}: {n} ops in {res['cycles']} cycles, {res['failed']} failed, fail_frac {res['failed'] / n:.4g}",
        f"  uncalibrated wall clock: {', '.join(f'{k} {v[0]:.4g}' for k, v in wall.items())}; "
        f"reference kernel median {res['ref_ms_median']:.4g} ms",
    ]
    res.update(attempted=n, wall_metrics={k: v[0] for k, v in wall.items()})
    return metrics, res, lines


def per_layer(workload: str, args) -> tuple[dict, dict, list[str]]:
    res = spawn(workload, "trace", args)
    m = res["metrics"]
    metrics = {name: (value, res["ops"]) for name, value in m.items()}
    lines = [
        f"{workload}: {res['ops']} ops ({res['cycles']} cycles), each run untraced and traced, {res['failed']} failed",
        f"  tracing overhead: traced - untraced ops_per_s = {m['trace.overhead_ops_per_s']:+.4g} 1/s "
        f"({m['trace.overhead_ms_per_op']:+.4g} ms per op)",
        f"  layer self times cover {m['trace.op_ms_mean'] - m['trace.unattributed_ms_per_op']:.4g} ms "
        f"of the {m['trace.op_ms_mean']:.4g} ms traced op; unattributed {m['trace.unattributed_ms_per_op']:.4g} ms",
    ]
    if res["missing_entry_points"]:
        lines.append(f"  entry points not found, their metrics read 0: {', '.join(res['missing_entry_points'])}")
    res["attempted"] = 2 * res["ops"]
    return metrics, res, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="homscat benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="a few ops per cycle, one set-up: runs in seconds")
    args = parser.parse_args()

    host = machine()
    if not (ROOT / "src" / "homscat" / "__init__.py").is_file():
        sys.stderr.write(f"no homscat source tree at {ROOT / 'src' / 'homscat'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in wanted}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    print(f"homscat benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"machine: {host['nproc']} CPUs ({host['cpu']}), load average at start "
          f"{' '.join(f'{x:.2f}' for x in host['loadavg'])}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    attempted = failed = 0
    values = {}
    for workload in workloads:
        metrics, res, lines = (per_layer if args.trace else end_to_end)(workload, args)
        env = res["env"]
        print(f"environment: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
              f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, OMP_NUM_THREADS={env['OMP_NUM_THREADS']}")
        for line in lines:
            print(line)
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise SystemExit(f"{workload} did not produce the metrics {missing}")
        for name, unit in units.items():
            value, samples = metrics[name]
            print(f"  {name:<36} {value:>14.6g} {unit:<12} n={samples}")
            values[name if len(workloads) == 1 else f"{workload}.{name}"] = {"value": value, "unit": unit}
        attempted += res["attempted"]
        failed += res["failed"]
        res.update(machine=host, metrics={k: v[0] for k, v in metrics.items()})
        (out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
