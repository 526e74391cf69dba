"""Fundamental solutions of linear time-dependent systems and extraction of
the scattering matrix relative to the free centre rotation.

The scattering matrix of a centre-block problem is Psi(-T) Phi(T, -T) Psi(-T)
for T past the perturbation's support, where Phi is the fundamental solution
of the variational equation zdot = A(t) z and Psi(t) = exp(t J D) the free
centre flow.  That product is the propagator W(T, -T) of the co-rotating
frame w = Psi(-t) z, where wdot = Psi(t)^T (A(t) - J D) Psi(t) w has a
coefficient that vanishes outside the support.  So W is integrated once over
the declared support, and one unit slab beyond each end checks the
declaration, so that a mis-specified problem is reported instead of silently
truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matkit import (
    _positive_tol,
    _square,
    center_frequencies,
    max_abs,
    standard_symplectic_form,
    symplectic_rotation,
)

DEFAULT_SIGMA_TOL = 1e-8
DEFAULT_INTEGRATOR_TOL = 1e-10
# bound on the (2n + 1) d^2 field entries of one RK4 pass, which holds a few
# arrays of that size: 32 MiB each at the bound
_MAX_FIELD_ELEMENTS = 2 ** 22


class ScatteringConvergenceError(RuntimeError):
    """The field differs from J D beyond the declared support; `trace` holds
    the (T_used, residual) of the witness slabs that showed it."""

    def __init__(self, support_halfwidth: float, residual: float, tol: float):
        T = support_halfwidth + 1.0
        self.trace = [(T, residual)]
        super().__init__(
            f"the field differs from J D beyond the declared support halfwidth {support_halfwidth:g}: "
            f"the unit slabs out to |t| = {T:g} move the scattering matrix by {residual:.3e} > {tol:.3e}"
        )


def center_linear_flow(D_center, t: float) -> np.ndarray:
    """Free centre flow Psi(t): the symplectic rotation by t * omega."""
    w = center_frequencies(D_center)
    return symplectic_rotation(float(t) * w)


def _field_values(fld: Callable, ts: np.ndarray, d: int) -> np.ndarray:
    values = np.asarray(fld(ts), dtype=float)
    if values.shape != (ts.size, d, d):
        raise ValueError(f"field returned shape {values.shape} for {ts.size} times, expected ({ts.size}, {d}, {d})")
    if not np.all(np.isfinite(values)):
        raise ValueError("field produced non-finite values")
    return values


def _rk4_product(fld: Callable, t0: float, t1: float, n: int, d: int) -> np.ndarray:
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


def fundamental_solution(fld: Callable, t0: float, t1: float, tol: float = DEFAULT_INTEGRATOR_TOL) -> np.ndarray:
    """Phi(t1, t0) for udot = field(t) u, by fixed-step RK4 with step doubling.

    `fld` follows the field contract of ScatteringProblem: a 1-D array of
    times in, an (n, d, d) array out.  The step count is doubled until two
    successive refinements agree to within tol * max(1, t1 - t0) in max-abs
    norm; the finer result is returned.  A pass that would sample more than
    2**22 field entries, or whose product overflows, raises ArithmeticError
    instead.
    """
    t0, t1 = float(t0), float(t1)
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError("integration endpoints must be finite")
    if t1 < t0:
        raise ValueError("t0 must not exceed t1")
    tol = _positive_tol(tol, "integrator tolerance")
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


@dataclass(eq=False)
class ScatteringProblem:
    """A centre-block variational problem with a compactly supported perturbation.

    `field` maps a 1-D array of n times to the (n, 2l, 2l) array of
    coefficient matrices at those times; exceptions it raises propagate.
    Outside [-support_halfwidth, support_halfwidth] it must equal
    J @ D_center.  The declaration is the caller's contract:
    scattering_matrix integrates only over the declared support, and a
    field that still differs from J D in the unit slabs beyond it raises
    ScatteringConvergenceError.
    """

    field: Callable
    support_halfwidth: float
    D_center: np.ndarray

    def __post_init__(self):
        self.D_center = _square(self.D_center, "D_center")
        center_frequencies(self.D_center)
        self.support_halfwidth = _positive_tol(self.support_halfwidth, "support_halfwidth")
        _field_values(self.field, np.zeros(1), self.dim)

    @property
    def dim(self) -> int:
        return self.D_center.shape[0]


@dataclass(frozen=True, eq=False)
class ScatteringResult:
    """Scattering matrix with its convergence and structure diagnostics."""

    sigma: np.ndarray
    T_used: float
    residual: float
    symplectic_defect: float


def scattering_matrix(
    problem: ScatteringProblem,
    tol: float = DEFAULT_SIGMA_TOL,
    integrator_tol: float = DEFAULT_INTEGRATOR_TOL,
) -> ScatteringResult:
    """Psi(-T) Phi(T, -T) Psi(-T), solved in the co-rotating frame.

    With T_s = support_halfwidth, the co-rotating propagator W(T_s, -T_s)
    is the scattering matrix.  The unit slabs [T_s, T_s + 1] and
    [-T_s - 1, -T_s] are integrated as well; T_used = T_s + 1 and the
    residual is how far they move the result.  A residual above tol means
    the field differs from J D beyond the declared support and raises
    ScatteringConvergenceError.
    """
    tol = _positive_tol(tol, "scattering tolerance")
    D = problem.D_center
    d = problem.dim
    omega = center_frequencies(D)
    J = standard_symplectic_form(d // 2)
    JD = J @ D

    def corotating(ts):
        R = symplectic_rotation(np.multiply.outer(ts, omega))
        return R.swapaxes(1, 2) @ (_field_values(problem.field, ts, d) - JD) @ R

    T_s = problem.support_halfwidth
    inner = fundamental_solution(corotating, -T_s, T_s, integrator_tol)
    ahead = fundamental_solution(corotating, T_s, T_s + 1.0, integrator_tol)
    behind = fundamental_solution(corotating, -T_s - 1.0, -T_s, integrator_tol)
    sigma = ahead @ inner @ behind
    residual = max_abs(sigma - inner)
    if residual > tol:
        raise ScatteringConvergenceError(T_s, residual, tol)
    return ScatteringResult(
        sigma=sigma,
        T_used=T_s + 1.0,
        residual=residual,
        symplectic_defect=max_abs(sigma.T @ J @ sigma - J),
    )
