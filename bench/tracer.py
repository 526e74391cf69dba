"""Span tracing of homscat from outside the package.

The tracer wraps each layer's public entry points and patches the wrapper
into every ``homscat.*`` module namespace that binds the original, because
``from .matkit import ...`` copies the name into the importing module.  Tiny
helpers (``max_abs``, ``standard_symplectic_form``, ...) stay unwrapped so
the overhead stays low; their time lands in the caller's self time.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
turned into per-layer numbers by :func:`layer_totals`.  This module imports
only the standard library, so that loading it inside a traced CLI process
does not move the numpy import out of the homscat import.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  The layer of a span is the part of its
# name before the first dot.  "matkit.eigh" is whichever matkit function
# returns eigenpairs, so the name survives a change of eigensolver.
ENTRY_POINTS = [
    ("matkit", "eigh*", "matkit.eigh"),
    ("matkit", "matrix_exponential", "matkit.expm"),
    ("matkit", "inertia", "matkit.inertia"),
    ("matkit", "spd_sqrt", "matkit.spd_sqrt"),
    ("matkit", "is_symplectic", "matkit.is_symplectic"),
    ("majorize", "solve_bracket", "majorize.solve_bracket"),
    ("majorize", "mirsky_matrix", "majorize.mirsky"),
    ("majorize", "majorizes", "majorize.majorizes"),
    ("models", "scattering_problem", "models.scattering_problem"),
    ("flow", "scattering_matrix", "flow.scattering_matrix"),
    ("flow", "fundamental_solution", "flow.solve"),
    ("flow", "_rk4_product", "flow.rk4"),
    ("classify", "hessian_from_scattering", "classify.hessian"),
    ("classify", "realize_signature", "classify.realize"),
    ("classify", "indefiniteness_ensemble", "classify.ensemble"),
    ("classify", "random_symplectic", "classify.random_symplectic"),
    ("classify", "reversible_signature", "classify.reversible"),
    ("cli", "main", "cli.main"),
]

LAYERS = ("matkit", "majorize", "models", "flow", "classify", "cli")


def _resolve(module, attr: str):
    if not attr.endswith("*"):
        return attr if callable(getattr(module, attr, None)) else None
    hits = [n for n, v in vars(module).items() if n.startswith(attr[:-1]) and callable(v)]
    return hits[0] if len(hits) == 1 else None


class Tracer:
    """Records spans around homscat entry points while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: dict[str, float] = defaultdict(float)
        # (T_used, sigma) of every scattering_matrix result
        self.scatter_results: list = []
        self.missing: set[str] = set()
        self._undo: list = []

    def span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every entry point of every imported homscat module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "homscat" or n.startswith("homscat.")]
        hooks = {
            "models.scattering_problem": self._wrap_field,
            "flow.scattering_matrix": self._record_scatter,
            "classify.realize": self._count_attempts,
        }
        for mod_name, attr, name in ENTRY_POINTS:
            module = sys.modules.get("homscat." + mod_name)
            if module is None:  # never imported, so never called
                continue
            resolved = _resolve(module, attr)
            if resolved is None:
                self.missing.add(f"homscat.{mod_name}.{attr}")
                continue
            original = getattr(module, resolved)
            wrapped = self.span(name, original, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def merge(self, spans, counts, scatter_results, missing) -> None:
        """Add what a traced child process recorded to the current op."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, self.op))
        for key, value in counts.items():
            self.counts[key] += value
        self.scatter_results.extend(scatter_results)
        self.missing.update(missing)

    def _wrap_field(self, args, kwargs, problem) -> None:
        field = problem.field
        counted = self.span("models.field", field)
        counts = self.counts

        def sampled(t):
            counts["models.field.samples"] += getattr(t, "size", 1)
            return counted(t)

        problem.field = sampled

    def _record_scatter(self, args, kwargs, result) -> None:
        self.scatter_results.append((result.T_used, result.sigma))

    def _count_attempts(self, args, kwargs, report) -> None:
        eps = kwargs["eps"] if "eps" in kwargs else args[3]
        self.counts["classify.realize.attempts"] += round(math.log2(float(eps) / report.eps_used)) + 1


def layer_totals(spans) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per-layer self seconds, and per-span-name call counts and inclusive seconds.

    A span's self time is its duration minus the durations of its direct
    children; summed over a tree it equals the root's duration.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    for k, (name, start, end, parent, _) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += end - start - child[k]
        calls[name] += 1
        incl[name] += end - start
    return self_s, calls, incl
