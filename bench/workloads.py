"""The four benchmark workloads: op generation from a seed, the timed call,
and the untimed output check.

An op is one public-API call.  Each workload draws its ops in cycles: a
cycle holds every op class in fixed proportions, shuffled, with fresh draws
per op, so a second seed keeps the same mix.  The proportions put the
median and the 90th percentile of op time inside one class each, away from
the gaps between classes, so that both percentiles are steady from run to
run.  Every call goes through a module attribute looked up at call time, so
that the tracer's patched entry points are the ones called.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from homscat import classify, flow, matkit, models

BENCH_DIR = Path(__file__).resolve().parent
# acceptance-suite bounds for the output checks
SIGMA_TOL = 1e-7
SYMPLECTIC_TOL = 1e-7


@dataclass
class Op:
    cls: str
    args: tuple


def symplectic_form(l: int) -> np.ndarray:
    return np.block([[np.zeros((l, l)), np.eye(l)], [-np.eye(l), np.zeros((l, l))]])


def expm(M: np.ndarray) -> np.ndarray:
    """Reference exponential, independent of homscat: Taylor to order 18
    after scaling the max-row-sum norm to at most 1/4, then squaring."""
    norm = float(np.abs(M).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0 else 0
    A = M / 2.0 ** squarings
    E = term = np.eye(M.shape[0])
    for k in range(1, 19):
        term = term @ A / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def symplectic_defect(sigma) -> float:
    S = np.asarray(sigma)
    J = symplectic_form(S.shape[0] // 2)
    return float(np.abs(S.T @ J @ S - J).max())


def random_symmetric(rng, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n))
    return 0.5 * (raw + raw.T)


def draw_omega(rng, l: int) -> np.ndarray:
    # increasing with gaps of at least 0.25, so the squares stay distinct
    return 1.0 + 0.5 * np.arange(l) + rng.uniform(0.0, 0.25, l)


def signature(H: np.ndarray) -> tuple[int, int, int]:
    """Inertia by LAPACK at the package's zero tolerance 1e-7 * max(1, |H|)."""
    w = np.linalg.eigvalsh(0.5 * (H + H.T))
    tol = 1e-7 * max(1.0, float(np.abs(H).max()))
    pos, neg = int(np.sum(w > tol)), int(np.sum(w < -tol))
    return pos, neg, w.size - pos - neg


class Workload:
    name = ""
    # cycle length in seconds on seed code (2-core Xeon, one BLAS thread);
    # sizes the traced run, which must hold the same ops on every run
    cycle_s = 1.0
    # op classes in rising cost, with their count per cycle
    classes: dict = {}

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def cycle(self, rng, shuffle: bool = True) -> list[Op]:
        ops = [self.draw(key, rng) for key, count in self.classes.items() for _ in range(count)]
        if shuffle:
            ops = [ops[k] for k in rng.permutation(len(ops))]
        return ops

    def draw(self, key, rng) -> Op:
        raise NotImplementedError

    def run(self, op: Op, tracer=None):
        raise NotImplementedError

    def check(self, op: Op, out) -> dict:
        """Check values of one op; "ok" says whether it passed."""
        raise NotImplementedError


class Scatter(Workload):
    """scattering_matrix(scattering_problem(spec)), then the Hessian and its inertia."""

    name = "scatter"
    cycle_s = 1.0
    classes = {(1, 3.0): 2, (1, 5.0): 2, (2, 3.0): 2, (2, 5.0): 2,
               (3, 3.0): 4, (3, 5.0): 2, (4, 3.0): 2, (4, 5.0): 4}
    EPS = (0.01, 0.05, 0.1)

    def draw(self, key, rng) -> Op:
        l, T = key
        spec = models.ModelSpec(
            l=l, n_hyp=1, omega=np.arange(1.0, l + 1.0), eps=self.EPS[rng.integers(3)],
            C=random_symmetric(rng, 2 * l), T_support=T,
        )
        return Op(f"l{l}-T{T:g}", (spec,))

    def run(self, op, tracer=None):
        problem = models.scattering_problem(op.args[0])
        result = flow.scattering_matrix(problem)
        H = classify.hessian_from_scattering(result.sigma, problem.D_center)
        return result, matkit.inertia(H)

    def check(self, op, out):
        spec = op.args[0]
        result, sig = out
        expected = expm(-spec.eps * symplectic_form(spec.l) @ spec.C)
        err = float(np.abs(result.sigma - expected).max())
        defect = symplectic_defect(result.sigma)
        ok = err <= SIGMA_TOL and defect <= SYMPLECTIC_TOL and sig.dim == 2 * spec.l
        return {"ok": ok, "sigma_err": err, "symplectic_defect": defect}


class Ensemble(Workload):
    """indefiniteness_ensemble over a few trials, with a fresh ensemble seed per op."""

    name = "ensemble"
    cycle_s = 0.8
    classes = {2: 2, 3: 5, 5: 3}
    TRIALS = 8

    def draw(self, l, rng) -> Op:
        omega = draw_omega(rng, l)
        return Op(f"l{l}", (np.diag(np.concatenate([omega, omega])), int(rng.integers(2 ** 31))))

    def run(self, op, tracer=None):
        D, seed = op.args
        return classify.indefiniteness_ensemble(D, self.TRIALS, seed)

    def check(self, op, out):
        ok = out.trials == self.TRIALS and out.definite_positive == 0 and out.definite_negative == 0
        return {"ok": ok}


class Realize(Workload):
    """realize_signature(l, m, omega, 1e-2) for every m at each l."""

    name = "realize"
    cycle_s = 6.2
    # l = 10 twice, so that the median falls inside its class, not at its edge
    classes = {(l, m): 2 if l == 10 else 1 for l in (2, 4, 6, 8, 10, 12) for m in range(1, 2 * l)}
    EPS = 1e-2

    def draw(self, key, rng) -> Op:
        l, m = key
        return Op(f"l{l}", (l, m, draw_omega(rng, l)))

    def run(self, op, tracer=None):
        l, m, omega = op.args
        return classify.realize_signature(l, m, omega, self.EPS)

    def check(self, op, out):
        l, m, omega = op.args
        D = np.diag(np.concatenate([omega, omega]))
        H = out.sigma.T @ D @ out.sigma - D
        target = (m, 2 * l - m, 0)
        return {"ok": out.achieved.inertia == target and signature(H) == target}


def _importtime_ms(stderr: str) -> tuple[float, float]:
    """numpy and homscat import times from `python -X importtime` output.

    The homscat figure is the cumulative time of the top-level homscat
    imports minus the numpy import nested inside them.
    """
    numpy_us = homscat_us = 0.0
    numpy_nested = False
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        if name == "numpy":
            numpy_us, numpy_nested = float(parts[1]), depth > 0
        elif depth == 0 and (name == "homscat" or name.startswith("homscat.")):
            homscat_us += float(parts[1])
    if numpy_nested:
        homscat_us -= numpy_us
    return numpy_us / 1e3, homscat_us / 1e3


class Cli(Workload):
    """One `python -m homscat <subcommand> ... --out FILE` process per op."""

    name = "cli"
    cycle_s = 1.6
    classes = {sub: 1 for sub in ("demo-integrable", "scatter", "classify", "realize",
                                  "indefinite", "reversible", "mirsky", "majorize")}

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self.drawn = 0

    def _write(self, doc) -> str:
        self.drawn += 1
        path = self.workdir / f"in{self.drawn}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _list_arg(self, flag: str, values) -> str:
        # one token, so that argparse does not take a leading minus sign for an option
        return flag + "=" + ",".join(repr(float(x)) for x in values)

    def draw(self, sub, rng) -> Op:
        l = int(rng.integers(1, 3))
        omega = draw_omega(rng, l)
        inputs = []
        if sub == "demo-integrable":
            argv = ["--l", str(l), self._list_arg("--omega", omega)]
        elif sub in ("scatter", "reversible"):
            C = random_symmetric(rng, 2 * l)
            if sub == "reversible":
                # commuting with diag(I, -I) makes exp(-eps J C) reversible
                C[:l, l:] = C[l:, :l] = 0.0
            spec = {"l": l, "n_hyp": 1, "omega": omega.tolist(), "eps": float(Scatter.EPS[rng.integers(3)]),
                    "C": C.ravel().tolist(), "T_support": 3.0}
            inputs = [self._write(spec)]
            argv = ["--spec", inputs[0]]
        elif sub == "classify":
            # [[A, 0], [0, A^-T]] [[I, S], [0, I]] is symplectic for any invertible A, symmetric S
            A = np.eye(l) + 0.3 * rng.standard_normal((l, l))
            shear = np.block([[np.eye(l), random_symmetric(rng, l)], [np.zeros((l, l)), np.eye(l)]])
            scale = np.block([[A, np.zeros((l, l))], [np.zeros((l, l)), np.linalg.inv(A).T]])
            sigma = scale @ shear
            inputs = [self._write({"dim": 2 * l, "data": sigma.ravel().tolist()})]
            argv = ["--sigma", inputs[0], self._list_arg("--omega", omega)]
        elif sub == "realize":
            m = int(rng.integers(1, 2 * l))
            argv = ["--l", str(l), "--m", str(m), self._list_arg("--omega", omega), "--eps", "0.01"]
        elif sub == "indefinite":
            argv = ["--l", str(l), self._list_arg("--omega", omega), "--trials", "5",
                    "--seed", str(int(rng.integers(2 ** 31)))]
        elif sub == "mirsky":
            n = int(rng.integers(3, 7))
            eigs = rng.uniform(-2.0, 2.0, n)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            # a diagonal of Q diag(eigs) Q^T is majorized by eigs (Schur)
            diag = np.diag((Q * eigs) @ Q.T)
            argv = [self._list_arg("--diag", diag), self._list_arg("--eigs", eigs)]
        else:
            n = int(rng.integers(3, 7))
            argv = [self._list_arg("--a", rng.uniform(-1, 1, n)), self._list_arg("--b", rng.uniform(-1, 1, n))]
        out = str(self.workdir / f"out{self.drawn}.json")
        self.drawn += 1
        return Op(sub, ([sub, *argv, "--out", out], inputs, out))

    def run(self, op, tracer=None):
        argv, _, out = op.args
        Path(out).unlink(missing_ok=True)  # each op runs twice when traced; never check a stale file
        if tracer is None:
            return subprocess.run([sys.executable, "-m", "homscat", *argv],
                                  capture_output=True, text=True, timeout=120)
        spans_file = out + ".spans"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_child.py"), spans_file, *argv],
            capture_output=True, text=True, timeout=120,
        )
        reaped = time.monotonic()
        child = json.loads(Path(spans_file).read_text())
        numpy_ms, homscat_ms = _importtime_ms(proc.stderr)
        tracer.merge(child["spans"], child["counts"], child["scatter"], child["missing"])
        python_s = (child["boot"] - start) + (reaped - child["main_end"])
        tracer.counts["cli.python_s"] += python_s
        tracer.counts["cli.numpy_import_s"] += numpy_ms / 1e3
        tracer.counts["cli.homscat_import_s"] += homscat_ms / 1e3
        return proc

    def check(self, op, out):
        argv, inputs, path = op.args
        try:
            payload = json.loads(Path(path).read_text()) if out.returncode == 0 else {}
        except (OSError, json.JSONDecodeError):
            payload = {}
        ok = out.returncode == 0 and payload.get("command") == op.cls and payload.get("pass", True) is True
        io_bytes = sum(os.path.getsize(p) for p in [*inputs, path] if os.path.exists(p))
        return {"ok": ok, "json_bytes": io_bytes, "exit": out.returncode, "stderr": out.stderr[-300:]}


WORKLOADS = {w.name: w for w in (Scatter, Ensemble, Realize, Cli)}
