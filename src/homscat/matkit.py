"""Dense linear algebra for small real matrices with symplectic structure.

Everything here targets matrices of at most a few dozen rows: the symmetric
eigensolver is LAPACK's (through numpy.linalg.eigh) reordered to descending
eigenvalues, the exponential is truncated scaling-and-squaring, and
tolerances are expressed in the entrywise max-abs norm.  Inertia counts rest
on the absolute-scale tolerance 1e-7 * max(1, |S|), far above the backward
error of the eigensolver.  The eigensolver and the exponential also take a
(k, n, n) stack and treat each slice exactly as they treat that matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EXP_SERIES_ORDER = 12
_SYMMETRY_TOL = 1e-10


def max_abs(M) -> float:
    """Entrywise max-abs norm; the reference norm for tolerances throughout."""
    A = np.asarray(M, dtype=float)
    return float(np.max(np.abs(A))) if A.size else 0.0


def _square(M, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """M as a float array: one nonempty square matrix, or with stack=True also
    a (k, n, n) stack of them, k >= 0."""
    A = np.asarray(M, dtype=float)
    if A.ndim not in ((2, 3) if stack else (2,)) or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise ValueError(f"{name} must be square and nonempty, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _slice_max_abs(A: np.ndarray, floor: float = 0.0):
    """max(floor, max_abs) of a matrix, or of each slice of a stack."""
    return np.abs(A).max(axis=(-2, -1), initial=floor)


def _positive_tol(tol, name: str = "tolerance") -> float:
    """tol as a float, rejecting anything but a finite positive number (NaN included)."""
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"{name} must be a finite positive number, got {tol}")
    return tol


def _require_symmetric(M, name: str = "matrix", tol: float = _SYMMETRY_TOL, stack: bool = False) -> np.ndarray:
    """Symmetrized M; with stack=True each slice is checked against its own scale."""
    A = _square(M, name, stack)
    At = A.swapaxes(-1, -2)
    defect = _slice_max_abs(A - At)
    asymmetric = defect > tol * _slice_max_abs(A, 1.0)
    if asymmetric.any():
        raise ValueError(f"{name} is not symmetric (asymmetry {np.max(defect, where=asymmetric, initial=0.0):.3e})")
    return 0.5 * (A + At)


def standard_symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, I], [-I, 0]]."""
    n = int(n)
    if n < 1:
        raise ValueError("the symplectic form needs at least one conjugate pair")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


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
    """exp(M), or exp of each slice of a (k, n, n) stack, by scaling-and-squaring
    over a fixed-order truncated series.

    The argument is halved until its max-row-sum norm is at most 0.5, the
    series is summed to order 12 by Horner's scheme, and the result is
    squared back up.  Each slice of a stack keeps its own number of
    halvings, so it comes out bit for bit as it would alone.  Accuracy is
    far below 1e-8 for the matrix sizes used in this package.
    """
    A = _square(M, stack=True)
    shape = A.shape
    A = A.reshape((-1,) + shape[-2:])
    norm = np.abs(A).sum(axis=-1).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5)).astype(int)
    # slices sorted by squaring count, most first: round r squares the
    # leading slices whose count exceeds r
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    A = A[order] / (2.0 ** squarings)[:, None, None]
    I = np.eye(shape[-1])
    E = I
    for k in range(_EXP_SERIES_ORDER, 0, -1):
        E = I + (A @ E) / k
    counts = squarings.tolist()
    live = len(counts)
    for r in range(counts[0] if counts else 0):
        while counts[live - 1] <= r:
            live -= 1
        if live == len(counts):
            E = E @ E  # no slice is done yet, so nothing to copy back into
        else:
            E[:live] = E[:live] @ E[:live]
    return E[np.argsort(order)].reshape(shape)


def eigh(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, or of each slice of a (k, n, n) stack.

    Returns (eigenvalues sorted descending, orthonormal eigenvector columns),
    stacked like the input.  Every slice must pass the symmetry check.
    """
    w, V = np.linalg.eigh(_require_symmetric(S, "eigendecomposition input", stack=True))
    return w[..., ::-1], V[..., ::-1]


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
    tol = _positive_tol(classification_tol(A) if tol is None else tol, "inertia tolerance")
    w, _ = eigh(A)
    n_pos = int(np.sum(w > tol))
    n_neg = int(np.sum(w < -tol))
    return SignatureReport(
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=int(w.size - n_pos - n_neg),
        eigenvalues=w,
        tol=tol,
    )


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
