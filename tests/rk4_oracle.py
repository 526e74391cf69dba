"""RK4 step product built from fresh temporaries, with every pass of the
step doubling sampling its whole grid: the reference for
flow.fundamental_solution, which builds the stages in place and samples
each node once.

Both evaluate the same sums in the same order on the same field samples,
so they must agree bit for bit, and on a field that never meets the
tolerance both must stop at the same step count.
"""

import numpy as np

from homscat.flow import _MAX_FIELD_ELEMENTS, _field_values
from homscat.matkit import _positive_number, _square, max_abs


def _rk4_product(fld, t0, t1, n, d):
    # classic RK4 on the matrix equation, written as one update matrix per step
    # so the per-step factors can be built and multiplied in batch
    h = (t1 - t0) / n
    ts = t0 + (t1 - t0) * np.arange(2 * n + 1) / (2 * n)
    A = _field_values(fld, ts, d)
    A1 = A[0 : 2 * n : 2]
    Am = A[1 : 2 * n : 2]
    A4 = A[2 : 2 * n + 1 : 2]
    eye = np.eye(d)
    K1 = A1
    K2 = Am + (0.5 * h) * (Am @ K1)
    K3 = Am + (0.5 * h) * (Am @ K2)
    K4 = A4 + h * (A4 @ K3)
    U = eye + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    P = U
    while P.shape[0] > 1:
        m = P.shape[0]
        if m % 2:
            P = np.concatenate([P[1::2] @ P[0 : m - 1 : 2], P[m - 1 :]])
        else:
            P = P[1::2] @ P[0::2]
    return P[0]


def fundamental_solution(fld, t0, t1, tol=1e-10):
    t0, t1 = float(t0), float(t1)
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError("integration endpoints must be finite")
    if t1 < t0:
        raise ValueError("t0 must not exceed t1")
    tol = _positive_number(tol, "integrator tolerance")
    probe = np.asarray(fld(np.array([t0])), dtype=float)
    if probe.ndim != 3 or probe.shape[0] != 1:
        raise ValueError(f"field returned shape {probe.shape} for 1 time, expected (1, d, d)")
    d = _square(probe[0], "field value").shape[0]
    if t1 == t0:
        return np.eye(d)
    span = t1 - t0
    n = int(2 ** np.ceil(np.log2(max(16.0, 8.0 * span))))
    budget = tol * max(1.0, span)
    previous = None
    while True:
        if (2 * n + 1) * d * d > _MAX_FIELD_ELEMENTS:
            raise ArithmeticError(
                f"step refinement exhausted without meeting the tolerance: n = {n} steps of a "
                f"{d} x {d} field would exceed {_MAX_FIELD_ELEMENTS} field samples"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            current = _rk4_product(fld, t0, t1, n, d)
        if not np.isfinite(current).all():
            raise ArithmeticError(f"RK4 product overflowed with n = {n} steps over [{t0:g}, {t1:g}]")
        if previous is not None and max_abs(current - previous) <= budget:
            return current
        previous = current
        n *= 2
