"""Fundamental solutions of linear time-dependent systems and extraction of
the scattering matrix relative to the free centre rotation.

The scattering matrix of a centre-block problem is Psi(-T) Phi(T, -T) Psi(-T)
for T past the perturbation's support, where Phi is the fundamental solution
of the variational equation zdot = A(t) z and Psi(t) = exp(t J D) the free
centre flow.  That product is the propagator W(T, -T) of the co-rotating
frame w = Psi(-t) z, where wdot = Psi(t)^T (A(t) - J D) Psi(t) w; a problem
states that coefficient, the support outside which it vanishes and the
CenterBlock of D and J.  So W is integrated once over the declared support,
and a Gronwall bound from field samples on one unit slab beyond each end
checks the declaration, so that a mis-specified problem is reported instead
of silently truncated.

The integrator keeps its RK4 stages and step grids in a workspace.  One
module-level slot retains a workspace of at most _RETAINED_BYTES = 1 MiB
(l <= 4 at n <= 256 steps) between solves, so its pages stay mapped: a
solve takes it out on entry and puts it back on exit unless it outgrew the
bound, and a nested or concurrent solve finds the slot empty and allocates
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matkit import (
    CenterBlock,
    _as_float,
    _float_array,
    _integer,
    _positive_number,
    _symplectic_defect,
    max_abs,
)

DEFAULT_SIGMA_TOL = 1e-8
DEFAULT_INTEGRATOR_TOL = 1e-10
# bound on the (2n + 1) d^2 field entries of one RK4 pass, 32 MiB at the bound; the solve's
# workspace holds the three stages, 3n d^2, and the grids of this pass and the last, (n + 1) d^2
# and (n/2 + 1) d^2, 72 MiB more at the bound; a first pass has at least 16 steps
_MAX_FIELD_ELEMENTS = 2 ** 22
_RETAINED_BYTES = 2 ** 20  # the most a workspace kept between solves may hold; l = 4 at n = 256 takes 641 KiB
_slot: list = []  # at most one workspace; list.pop and slice assignment are atomic, so threads never share one
_SLAB_NODES = np.linspace(0.0, 1.0, 65)  # spacing 1/64 on a unit slab beyond the support; never written


class ScatteringConvergenceError(ArithmeticError):
    """The field is nonzero beyond the declared support; `T_used` and
    `residual` are those of the unit slabs whose sampled norms showed it."""

    def __init__(self, support_halfwidth: float, excess, residual: float):
        T = self.T_used = support_halfwidth + 1.0
        self.residual = residual
        super().__init__(
            f"the field is nonzero beyond the declared support halfwidth {support_halfwidth:g}: its sampled "
            f"norm reaches {excess[0]:.3e} behind and {excess[1]:.3e} ahead on the unit slabs out to |t| = {T:g}, "
            f"which may move the scattering matrix by {residual:.3e} > {DEFAULT_SIGMA_TOL:.3e}"
        )


def _field_values(fld: Callable, ts: np.ndarray, d: int) -> np.ndarray:
    values = _float_array(fld(ts), "field")
    if values.shape != (ts.size, d, d):
        raise ValueError(f"field returned shape {values.shape} for {ts.size} times, expected ({ts.size}, {d}, {d})")
    return values


def _buffer(work: list, k: int, rows: int, d: int) -> np.ndarray:
    """Buffer k of the workspace as a (rows, d, d) array, first grown to exactly that size if smaller."""
    size = rows * d * d
    if work[k].size < size:
        work[k] = np.empty(size)
    return work[k][:size].reshape(rows, d, d)


def _rk4_product(A1: np.ndarray, Am: np.ndarray, A4: np.ndarray, h: float, work: list) -> np.ndarray:
    # classic RK4 on the matrix equation, one update matrix per step, built and multiplied in batch
    # from the field at the n step starts A1, midpoints Am and ends A4, n a power of two.  The stages
    # are built in place, in the workspace's buffer 0, in the evaluation order of U = I + (h/6)
    # (K1 + 2 K2 + 2 K3 + K4), K2 = Am + (h/2) Am K1, ..., so U is bit for bit that value; with
    # temporaries, as tests/rk4_oracle.py has them, the three passes of an l = 3 op took 9-18% longer
    # (see CHANGES.md).  The tree's products are new arrays (n >= 16), so no view into the workspace
    # is returned; writing them into it too took as few page faults and 3-5 us more per pass.
    n, d = A1.shape[:2]
    K = _buffer(work, 0, 3 * n, d)
    K2 = np.matmul(Am, A1, out=K[:n])
    K2 *= 0.5 * h
    K2 += Am
    K3 = np.matmul(Am, K2, out=K[n : 2 * n])
    K3 *= 0.5 * h
    K3 += Am
    K4 = np.matmul(A4, K3, out=K[2 * n :])
    K4 *= h
    K4 += A4
    U = K2
    U *= 2.0
    U += A1
    K3 *= 2.0
    U += K3
    U += K4
    U *= h / 6.0
    U += np.eye(d)
    P = U
    while P.shape[0] > 1:
        P = P[1::2] @ P[0::2]
    return P[0]


def _pass_steps(span: float, d: int, n: int | None = None) -> int:
    """The step count of the pass after one of n steps, or of the first when n is None, within the cap.
    A first pass takes 8 steps per unit time, at least 16, rounded up to a power of two."""
    if n is not None:  # a refinement: d is the solve's checked int, so the test is exact
        if (4 * n + 1) * d * d > _MAX_FIELD_ELEMENTS:
            raise ArithmeticError(f"step refinement exhausted without meeting the tolerance: n = {2 * n} steps "
                                  f"of a {d} x {d} field would exceed {_MAX_FIELD_ELEMENTS} field samples")
        return 2 * n
    with np.errstate(over="ignore"):  # 2.0 ** 1024 is inf, and Python floats overflow without a warning
        steps = float(2.0 ** np.ceil(np.log2(max(16.0, 8.0 * span))))
    side = float(np.fmin(_as_float(d), np.inf))  # fmin skips the NaN of an integer d beyond the float range
    # every solve compares the first pass with its double, so both must fit; the first beyond the cap is named
    last = 2 * steps if (2 * steps + 1) * side * side <= _MAX_FIELD_ELEMENTS else steps
    entries = (2 * last + 1) * side * side
    if entries <= _MAX_FIELD_ELEMENTS:
        return int(steps)
    compared = "" if last == steps else f" and is compared with n = {last:.17g}"
    raise ArithmeticError(
        f"a span of {span:g} starts at n = {steps:.17g} RK4 steps{compared}, whose (2n + 1) d^2 = "
        f"{entries:.17g} entries of the {side:.17g} x {side:.17g} field are beyond the cap of {_MAX_FIELD_ELEMENTS}"
    )


def fundamental_solution(fld: Callable, t0: float, t1: float, d: int) -> np.ndarray:
    """Phi(t1, t0) for udot = field(t) u, by fixed-step RK4 with step doubling.

    `fld` follows the field contract of ScatteringProblem: a 1-D array of
    times in, an (n, d, d) array out, for the positive integer d the caller
    states.  The first pass samples its n + 1 step ends, then its n
    midpoints; n is a power of two, so each doubling samples only the 2n
    new midpoints.  It doubles until two passes agree within
    DEFAULT_INTEGRATOR_TOL * max(1, t1 - t0) in max-abs norm and returns the
    finer; t1 == t0 gives the identity.  The cap of 2**22 field entries,
    (2n + 1) d^2 for n steps, is checked before each sampling, the first
    pass together with its double, so no field call precedes it: a span
    beyond it raises ArithmeticError, and so do a refinement that reaches it
    and a product that overflows.

    The stages and grids live in a workspace taken from the module's one
    slot and put back on exit, returned or raised, if it holds at most
    _RETAINED_BYTES = 2**20 bytes; a nested or concurrent solve finds the
    slot empty and allocates its own, and a larger one is not kept.  The
    result is a new array.
    """
    d = _integer(d, "d")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    t0, t1 = _as_float(t0), _as_float(t1)
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError("integration endpoints must be finite numbers")
    if t1 < t0:
        raise ValueError("t0 must not exceed t1")
    if t1 == t0:
        return np.eye(d)
    span = t1 - t0
    budget = DEFAULT_INTEGRATOR_TOL * max(1.0, span)
    n = _pass_steps(span, d)
    nodes = np.concatenate([np.arange(0, 2 * n + 1, 2), np.arange(1, 2 * n, 2)])
    A = _field_values(fld, t0 + span * nodes / (2 * n), d)
    A, Am = A[: n + 1], A[n + 1 :]
    try:
        work = _slot.pop()
    except IndexError:
        work = [np.empty(0)] * 3  # the stages K2, K3 and K4, then two grids
    try:
        previous = None
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                current = _rk4_product(A[:-1], Am, A[1:], span / n, work)
                if not np.isfinite(current).all():
                    raise ArithmeticError(f"RK4 product overflowed with n = {n} steps over [{t0:g}, {t1:g}]")
                if previous is not None and max_abs(current - previous) <= budget:
                    return current
            previous = current
            n = _pass_steps(span, d, n)
            # n doubles, so successive grids alternate between buffers 1 and 2 and never overwrite A
            grid = _buffer(work, 1 + n.bit_length() % 2, n + 1, d)
            grid[0::2], grid[1::2] = A, Am
            # A, the step starts and ends, holds the even nodes of this pass's grid bit for bit
            A, Am = grid, _field_values(fld, t0 + span * np.arange(1, 2 * n, 2) / (2 * n), d)
    finally:
        if sum(b.nbytes for b in work) <= _RETAINED_BYTES:
            _slot[:] = [work]


@dataclass(eq=False)
class ScatteringProblem:
    """A centre-block variational problem with a compactly supported perturbation.

    `center` is the CenterBlock that gives D and J; D_center reads its D.
    `field` maps a 1-D array of n times to the (n, 2l, 2l) array of the
    co-rotating perturbation Psi(t)^T (A(t) - J D) Psi(t) at those times;
    exceptions it raises propagate.  It must vanish outside
    [-support_halfwidth, support_halfwidth].  The declaration is the caller's
    contract: scattering_matrix integrates only over the declared support,
    and a field nonzero in the unit slabs beyond it raises
    ScatteringConvergenceError.
    """

    field: Callable
    support_halfwidth: float
    center: CenterBlock

    @property
    def D_center(self) -> np.ndarray:
        return self.center.D


@dataclass(frozen=True, eq=False)
class ScatteringResult:
    """Scattering matrix with its convergence and structure diagnostics."""

    sigma: np.ndarray
    T_used: float
    residual: float
    symplectic_defect: float


def scattering_matrix(problem: ScatteringProblem) -> ScatteringResult:
    """Psi(-T) Phi(T, -T) Psi(-T), solved in the co-rotating frame.

    With T_s = support_halfwidth, the co-rotating propagator W(T_s, -T_s)
    is the scattering matrix.  With e- and e+ the largest Frobenius norms of
    the field sampled at spacing 1/64 on [-T_s - 1, -T_s] and [T_s, T_s + 1],
    the residual |sigma|_F expm1(e- + e+) bounds how far those slabs could
    move sigma (Gronwall); T_used = T_s + 1.  A residual above
    DEFAULT_SIGMA_TOL means the field is nonzero beyond the declared support
    and raises ScatteringConvergenceError.  A support too long for the
    integrator's cap raises ArithmeticError before any field call, and a
    field of the wrong shape ValueError before any integration.
    """
    T_s = _positive_number(problem.support_halfwidth, "support_halfwidth")
    d = problem.center.dim
    _pass_steps(T_s + T_s, d)  # the span T_s - (-T_s) of the solve below
    slabs = _field_values(problem.field, np.concatenate([-(T_s + _SLAB_NODES), T_s + _SLAB_NODES]), d)
    sigma = fundamental_solution(problem.field, -T_s, T_s, d)
    with np.errstate(over="ignore"):
        # the Frobenius norms by np.linalg.norm's formula, without its dispatch
        excess = np.sqrt(np.add.reduce(slabs * slabs, axis=(1, 2))).reshape(2, 65).max(axis=1)
        residual = float(np.linalg.norm(sigma) * np.expm1(excess.sum()))
    if residual > DEFAULT_SIGMA_TOL:
        raise ScatteringConvergenceError(T_s, excess, residual)
    return ScatteringResult(
        sigma=sigma,
        T_used=T_s + 1.0,
        residual=residual,
        symplectic_defect=float(_symplectic_defect(sigma, problem.center.J)),
    )
