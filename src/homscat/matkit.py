"""Dense linear algebra for small real matrices with symplectic structure.

Everything here targets matrices of at most a few dozen rows: the symmetric
eigensolver is LAPACK's (through numpy.linalg.eigh) reordered to descending
eigenvalues, the exponential is truncated scaling-and-squaring, and
tolerances are expressed in the entrywise max-abs norm.  Inertia counts rest
on the absolute-scale tolerance 1e-7 * max(1, |S|), far above the backward
error of the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EXP_SERIES_ORDER = 12
_SYMMETRY_TOL = 1e-10


class NotPositiveDefiniteError(ValueError):
    """Symmetric square root requested for a matrix that is not SPD."""


def max_abs(M) -> float:
    """Entrywise max-abs norm; the reference norm for tolerances throughout."""
    A = np.asarray(M, dtype=float)
    return float(np.max(np.abs(A))) if A.size else 0.0


def _square(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"{name} must be square and nonempty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def is_symmetric(M, tol: float = _SYMMETRY_TOL) -> bool:
    A = _square(M)
    return max_abs(A - A.T) <= tol * max(1.0, max_abs(A))


def _require_symmetric(M, name: str = "matrix", tol: float = _SYMMETRY_TOL) -> np.ndarray:
    A = _square(M, name)
    defect = max_abs(A - A.T)
    if defect > tol * max(1.0, max_abs(A)):
        raise ValueError(f"{name} is not symmetric (asymmetry {defect:.3e})")
    return 0.5 * (A + A.T)


def standard_symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, I], [-I, 0]]."""
    n = int(n)
    if n < 1:
        raise ValueError("the symplectic form needs at least one conjugate pair")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def is_symplectic(M, tol: float) -> bool:
    """True iff M^T J M reproduces J to within tol in max-abs norm."""
    A = _square(M)
    if A.shape[0] % 2:
        raise ValueError("symplectic matrices have even dimension")
    J = standard_symplectic_form(A.shape[0] // 2)
    return max_abs(A.T @ J @ A - J) <= tol


def symplectic_rotation(theta) -> np.ndarray:
    """Block-planar rotation by theta_i in each conjugate pair (i, n+i).

    The returned matrix is orthogonal and symplectic; it is the fundamental
    solution of the decoupled centre dynamics at unit frequencies theta.
    A (k, n) array of angles gives the (k, 2n, 2n) stack of its rows'
    rotations.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.ndim > 2 or th.shape[-1] == 0:
        raise ValueError("theta must be a nonempty vector of angles or a (k, n) array of them")
    if not np.all(np.isfinite(th)):
        raise ValueError("theta contains non-finite entries")
    n = th.shape[-1]
    c, s = np.cos(th), np.sin(th)
    R = np.zeros(th.shape[:-1] + (2 * n, 2 * n))
    i = np.arange(n)
    R[..., i, i] = c
    R[..., i, n + i] = s
    R[..., n + i, i] = -s
    R[..., n + i, n + i] = c
    return R


def matrix_exponential(M) -> np.ndarray:
    """exp(M) by scaling-and-squaring over a fixed-order truncated series.

    The argument is halved until its max-row-sum norm is at most 0.5, the
    series is summed to order 12 by Horner's scheme, and the result is
    squared back up.  Accuracy is far below 1e-8 for the matrix sizes used
    in this package.
    """
    A = _square(M)
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    A = A / (2.0 ** squarings)
    E = np.eye(A.shape[0])
    for k in range(_EXP_SERIES_ORDER, 0, -1):
        E = np.eye(A.shape[0]) + (A @ E) / k
    for _ in range(squarings):
        E = E @ E
    return E


def eigh(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues sorted descending, orthonormal eigenvector columns).
    """
    w, V = np.linalg.eigh(_require_symmetric(S, "eigendecomposition input"))
    return w[::-1], V[:, ::-1]


def classification_tol(S) -> float:
    """Scale-relative default tolerance separating zero from nonzero eigenvalues."""
    return 1e-7 * max(1.0, max_abs(S))


@dataclass(frozen=True, eq=False)
class SignatureReport:
    """Inertia of a symmetric matrix at a stated zero-tolerance.

    Eigenvalues with magnitude at most tol count as zero; ties at exactly
    +-tol are zeros, since a vanishing eigenvalue must be surfaced rather
    than silently classified.
    """

    n_pos: int
    n_neg: int
    n_zero: int
    eigenvalues: np.ndarray
    tol: float

    @property
    def inertia(self) -> tuple[int, int, int]:
        return (self.n_pos, self.n_neg, self.n_zero)

    @property
    def degenerate(self) -> bool:
        return self.n_zero > 0

    @property
    def dim(self) -> int:
        return self.n_pos + self.n_neg + self.n_zero


def inertia(S, tol: float | None = None) -> SignatureReport:
    """Count eigenvalues of a symmetric matrix above tol, below -tol, and between."""
    A = _require_symmetric(S, "inertia input")
    if tol is None:
        tol = classification_tol(A)
    if tol <= 0:
        raise ValueError("inertia tolerance must be positive")
    w, _ = eigh(A)
    n_pos = int(np.sum(w > tol))
    n_neg = int(np.sum(w < -tol))
    return SignatureReport(
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=int(w.size - n_pos - n_neg),
        eigenvalues=w,
        tol=float(tol),
    )


def spd_sqrt(S) -> np.ndarray:
    """Unique symmetric square root of a symmetric positive definite matrix."""
    A = _require_symmetric(S, "square root input")
    w, V = eigh(A)
    floor = classification_tol(A)
    if w[-1] <= floor:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {w[-1]:.3e} <= {floor:.3e}"
        )
    T = (V * np.sqrt(w)) @ V.T
    return 0.5 * (T + T.T)


def center_diagonal(omega) -> np.ndarray:
    """diag(omega, omega): the paired diagonal quadratic form of a centre block."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
        raise ValueError("omega must be a nonempty finite vector")
    return np.diag(np.concatenate([w, w]))


def center_frequencies(D) -> np.ndarray:
    """Recover omega from diag(omega, omega), validating the paired pattern."""
    A = _square(D, "centre diagonal")
    if A.shape[0] % 2:
        raise ValueError("centre diagonal must have even dimension")
    l = A.shape[0] // 2
    if max_abs(A - np.diag(np.diag(A))) > 1e-12 * max(1.0, max_abs(A)):
        raise ValueError("centre block must be diagonal")
    w = np.diag(A)[:l].copy()
    if max_abs(np.diag(A)[l:] - w) > 1e-12 * max(1.0, max_abs(A)):
        raise ValueError("centre diagonal must repeat its frequencies in both blocks")
    return w
