"""Hessian assembly from scattering matrices, signature classification, the
signature-realization pipeline, and the time-reversible case.

The reduced Hessian of the splitting function is sigma^T D sigma - D with
D = diag(omega, omega).  It is never definite; every indefinite signature
(m, 2l - m) is reachable by choosing a spectrum that majorizes the balanced
+-1 diagonal, building a symmetric target with that diagonal and spectrum,
solving the bracket equation for a generator B, and taking
sigma = exp(-eps J B) for small eps.  When an antisymplectic involution R
reverses the dynamics, sigma R sigma = R forces the signature (l, l).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .majorize import (
    CenterBlock,
    hessian_bracket,
    indefinite_spectrum,
    mirsky_matrix,
    solve_bracket,
)
from .matkit import (
    SignatureReport,
    _positive_tol,
    _slice_max_abs,
    _square,
    center_frequencies,
    eigh,
    inertia,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
)

_SYMPLECTIC_PRECONDITION_TOL = 1e-7
_STRUCTURE_TOL = 1e-10
_REALIZE_MAX_HALVINGS = 20
_MAX_FACTORS = 5
# bound on the matrix entries of one chunk of ensemble trials at _MAX_FACTORS
# factors each: the stacked kernels hold a few arrays of that size, 128 KiB each
_MAX_CHUNK_ELEMENTS = 2 ** 14


class RealizationError(RuntimeError):
    """The target signature was not reached: the eps halvings ran out, or eps
    puts the first-order Hessian eigenvalues under the zero tolerance."""


def hessian_from_scattering(sigma, D_center) -> np.ndarray:
    """sigma^T D sigma - D, or that of each slice of a (k, 2l, 2l) stack;
    requires every sigma symplectic within 1e-7."""
    S = _square(sigma, "scattering matrix", stack=True)
    D = _square(D_center, "D_center")
    center_frequencies(D)
    if S.shape[-2:] != D.shape:
        raise ValueError("scattering matrix and centre diagonal have different dimensions")
    J = standard_symplectic_form(D.shape[0] // 2)
    St = S.swapaxes(-1, -2)
    defect = _slice_max_abs(St @ J @ S - J)
    if (defect > _SYMPLECTIC_PRECONDITION_TOL).any():
        raise ValueError(f"scattering matrix is not symplectic (defect {defect.max():.3e})")
    return St @ D @ S - D


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Definite-signature counts over a seeded random symplectic ensemble."""

    l: int
    omega: np.ndarray
    trials: int
    seed: int
    tol: float
    definite_positive: int
    definite_negative: int
    largest_min_eigenvalue: float
    smallest_max_eigenvalue: float


def _random_symplectics(l: int, rngs, max_factors: int, max_norm: float) -> np.ndarray:
    """random_symplectic for each generator in turn, as a (k, 2l, 2l) stack.

    Every generator makes its draws in full before the next one starts; one
    stacked eigh then gives all spectral norms and one stacked exponential
    all factors, which each sigma multiplies out in draw order.
    """
    d = 2 * l
    generators, norms, counts = [], [], []
    for rng in rngs:
        count = 0
        for _ in range(int(rng.integers(1, max_factors + 1))):
            raw = rng.standard_normal((d, d))
            B = 0.5 * (raw + raw.T)
            if not B.any():
                continue
            generators.append(B)
            norms.append(rng.uniform(0.1, max_norm))
            count += 1
        counts.append(count)
    B = np.array(generators).reshape(-1, d, d)
    w, _ = eigh(B)
    B *= (np.array(norms) / np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])))[:, None, None]
    factors = iter(matrix_exponential(-standard_symplectic_form(l) @ B))
    sigmas = np.empty((len(counts), d, d))
    for k, count in enumerate(counts):
        sigma = np.eye(d)
        for _ in range(count):
            sigma = sigma @ next(factors)
        sigmas[k] = sigma
    return sigmas


def random_symplectic(
    l: int, rng: np.random.Generator, max_factors: int = _MAX_FACTORS, max_norm: float = 2.0
) -> np.ndarray:
    """Product of up to max_factors exponentials exp(-J B) with random
    symmetric B scaled to a spectral norm drawn from (0.1, max_norm]."""
    return _random_symplectics(l, [rng], max_factors, max_norm)[0]


def indefiniteness_ensemble(D_center, trials: int, seed: int, tol: float = 1e-9) -> EnsembleSummary:
    """Extreme Hessian eigenvalues over a seeded random symplectic ensemble.

    Each trial draws its generator from (seed, trial index), so the summary
    is reproducible regardless of evaluation order.  Trials run in chunks
    whose stacked factors hold at most _MAX_CHUNK_ELEMENTS matrix entries.
    An extreme eigenvalue beyond tol, which must be a finite positive
    number, counts its trial as definite.  Both definite counts must come
    out zero: the reduced Hessian is never definite.
    """
    D = _square(D_center, "D_center")
    omega = center_frequencies(D)
    trials = int(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    tol = _positive_tol(tol, "ensemble tolerance")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    chunk = max(1, _MAX_CHUNK_ELEMENTS // (_MAX_FACTORS * D.size))
    definite_pos = definite_neg = 0
    largest_min = -np.inf
    smallest_max = np.inf
    for start in range(0, trials, chunk):
        rngs = [np.random.default_rng((seed, k)) for k in range(start, min(start + chunk, trials))]
        sigmas = _random_symplectics(omega.size, rngs, _MAX_FACTORS, 2.0)
        w, _ = eigh(hessian_from_scattering(sigmas, D))
        lo, hi = w[:, -1], w[:, 0]
        largest_min = max(largest_min, float(np.max(lo)))
        smallest_max = min(smallest_max, float(np.min(hi)))
        definite_pos += int(np.count_nonzero(lo > tol))
        definite_neg += int(np.count_nonzero(hi < -tol))
    return EnsembleSummary(
        l=omega.size,
        omega=omega,
        trials=trials,
        seed=seed,
        tol=tol,
        definite_positive=definite_pos,
        definite_negative=definite_neg,
        largest_min_eigenvalue=largest_min,
        smallest_max_eigenvalue=smallest_max,
    )


@dataclass(frozen=True, eq=False)
class RealizationReport:
    """End-to-end witness that the signature (m, 2l - m) is realised."""

    l: int
    m: int
    b: np.ndarray
    G: np.ndarray
    B: np.ndarray
    eps_used: float
    sigma: np.ndarray
    achieved: SignatureReport
    first_order_gap: float
    gap_constant: float


def realize_signature(l: int, m: int, omega, eps: float) -> RealizationReport:
    """Construct a scattering matrix whose reduced Hessian has signature (m, 2l - m).

    Pipeline: majorizing spectrum -> symmetric target with the balanced +-1
    diagonal -> bracket solve for the generator B -> sigma = exp(-eps J B).
    If the achieved signature misses the target (the second-order terms are
    not yet dominated), eps is halved, up to 20 times.  A miss with the
    smallest first-order eigenvalue eps * min|b| at or below the zero
    tolerance raises at once: halving eps only moves it further below.
    """
    l, m = int(l), int(m)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if w.size != l:
        raise ValueError(f"omega must have length l = {l}, got {w.size}")
    eps = _positive_tol(eps, "eps")
    block = CenterBlock(w)
    balanced = np.concatenate([np.ones(l), -np.ones(l)])
    b = indefinite_spectrum(l, m)
    G = mirsky_matrix(balanced, b)
    B = solve_bracket(block, G)
    b_min = np.min(np.abs(b))
    target = (m, 2 * l - m, 0)
    eps_cur = eps
    for _ in range(_REALIZE_MAX_HALVINGS):
        sigma = matrix_exponential(-eps_cur * (block.J @ B))
        H = hessian_from_scattering(sigma, block.D)
        achieved = inertia(H)
        if achieved.inertia == target:
            gap = max_abs(H / eps_cur - hessian_bracket(block, B))
            return RealizationReport(
                l=l,
                m=m,
                b=b,
                G=G,
                B=B,
                eps_used=eps_cur,
                sigma=sigma,
                achieved=achieved,
                first_order_gap=gap,
                gap_constant=gap / eps_cur,
            )
        if eps_cur * b_min <= achieved.tol:
            raise RealizationError(
                f"eps = {eps_cur:.3g} puts the smallest first-order Hessian eigenvalue "
                f"eps * min|b| = {eps_cur * b_min:.3g} at or below the zero tolerance {achieved.tol:.3g}; "
                f"signature ({m}, {2 * l - m}) needs eps above {achieved.tol / b_min:.3g}"
            )
        eps_cur *= 0.5
    raise RealizationError(
        f"signature ({m}, {2 * l - m}) not reached after {_REALIZE_MAX_HALVINGS} halvings of eps; "
        "the frequency choice is numerically degenerate"
    )


def center_reversal(l: int) -> np.ndarray:
    """The centre-block involution diag(I_l, -I_l): q -> q, p -> -p."""
    l = int(l)
    if l < 1:
        raise ValueError("l must be at least 1")
    return np.diag(np.concatenate([np.ones(l), -np.ones(l)]))


def random_reversible_form(l: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric form commuting with the centre reversal: block
    diagonal over the +-1 eigenspaces, which makes exp(-eps J B) reversible."""
    def sym(n):
        raw = rng.standard_normal((n, n))
        return 0.5 * (raw + raw.T)

    B = np.zeros((2 * l, 2 * l))
    B[:l, :l] = sym(l)
    B[l:, l:] = sym(l)
    return B


@dataclass(frozen=True, eq=False)
class ReversibilityReport:
    residual: float
    tol: float
    passed: bool


def _validated_reversal(R) -> np.ndarray:
    A = _square(R, "reversal")
    if A.shape[0] % 2:
        raise ValueError("reversal must act on an even-dimensional space")
    scale = max(1.0, max_abs(A))
    if max_abs(A - A.T) > _STRUCTURE_TOL * scale:
        raise ValueError("reversal is not symmetric")
    if max_abs(A.T @ A - np.eye(A.shape[0])) > _STRUCTURE_TOL * scale:
        raise ValueError("reversal is not orthogonal")
    if max_abs(A @ A - np.eye(A.shape[0])) > _STRUCTURE_TOL * scale:
        raise ValueError("reversal is not an involution")
    J = standard_symplectic_form(A.shape[0] // 2)
    if max_abs(A @ J + J @ A) > _STRUCTURE_TOL * scale:
        raise ValueError("reversal is not antisymplectic")
    return A


def check_reversibility(sigma, R, tol: float) -> ReversibilityReport:
    """Residual of sigma R sigma = R for a validated antisymplectic involution R."""
    S = _square(sigma, "scattering matrix")
    A = _validated_reversal(R)
    if S.shape != A.shape:
        raise ValueError("scattering matrix and reversal have different dimensions")
    tol = _positive_tol(tol)
    residual = max_abs(S @ A @ S - A)
    return ReversibilityReport(residual=residual, tol=tol, passed=bool(residual <= tol))


def reversible_signature(sigma, R, D_center, tol: float, class_tol: float | None = None) -> SignatureReport:
    """Inertia of the reduced Hessian in the reversible case.

    Verifies the mechanism forcing the (l, l) signature: in the basis given
    by the symmetric square root S of (I + (R sigma)^T R sigma)/2, the map
    K = S (R sigma) S^{-1} is orthogonal and anticommutes with the
    transformed Hessian, so its spectrum is symmetric about zero.  The
    report is computed on the transformed Hessian: the counts agree with
    the raw one (the transform is a congruence) and the reported
    eigenvalues pair as +-lambda.  A degenerate Hessian is reported as
    such, never forced to (l, l).
    """
    report = check_reversibility(sigma, R, tol)
    if not report.passed:
        raise ValueError(
            f"scattering matrix is not reversible: residual {report.residual:.3e} exceeds {tol:.3e}"
        )
    S = np.asarray(sigma, dtype=float)
    D = _square(D_center, "D_center")
    H = hessian_from_scattering(S, D)
    A = np.asarray(R, dtype=float) @ S
    M = 0.5 * (np.eye(A.shape[0]) + A.T @ A)
    # every eigenvalue of M is at least 1/2, so one decomposition gives both roots
    w, V = eigh(M)
    sqrt_w = np.sqrt(w)
    root = (V * sqrt_w) @ V.T
    root_inv = (V / sqrt_w) @ V.T
    K = root @ A @ root_inv
    ortho_defect = max_abs(K.T @ K - np.eye(K.shape[0]))
    if ortho_defect > max(tol, 100.0 * report.residual):
        raise ArithmeticError(f"transformed reversal failed orthogonality (defect {ortho_defect:.3e})")
    H_t = root_inv @ H @ root_inv
    anti = max_abs(H_t @ K + K.T @ H_t)
    if anti > max(tol, 100.0 * report.residual) * max(1.0, max_abs(H_t)):
        raise ArithmeticError(f"transformed Hessian failed to anticommute (defect {anti:.3e})")
    return inertia(H_t, class_tol)
