"""Dense linear algebra for small real matrices with symplectic structure.

Everything here targets matrices of at most a few dozen rows: the one
symmetric eigensolver is LAPACK's np.linalg.eigvalsh, called directly with
no wrapper, and no pipeline needs eigenvectors.  The exponential is
truncated scaling-and-squaring, and tolerances are expressed in the
entrywise max-abs norm.  Inertia counts rest on the absolute-scale
tolerance 1e-7 * max(1, |S|), far above the backward error of the
eigensolver.  The exponential and the symplectic defect also take a
(k, n, n) stack and treat each slice exactly as they treat that matrix
alone.
_float_array is the one parser of caller-supplied numbers, for every public
entry point through _square, _require_symmetric and CenterBlock, at the
entry point's boundary and before any arithmetic.  CenterBlock
alone turns centre frequencies into D = diag(omega, omega) and J, or reads
them back from a D array, which only the two classify functions that take
one do; the other pipelines pass the block object on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_EXP_SERIES_ORDER = 12
_SYMMETRY_TOL = 1e-10
_CLASSIFICATION_FLOOR = 1e-7
_SHARED_FORMS: dict[int, np.ndarray] = {}


def max_abs(M) -> float:
    """Entrywise max-abs norm; the reference norm for tolerances throughout.
    It measures arrays the package made, so it does not parse its argument."""
    A = np.asarray(M, dtype=float)
    return float(np.abs(A).max()) if A.size else 0.0


def _square(M, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """M as a float array: one nonempty square matrix, or with stack=True also
    a (k, n, n) stack of them, k >= 0."""
    A = _float_array(M, name)
    if A.ndim not in ((2, 3) if stack else (2,)) or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise ValueError(f"{name} must be square and nonempty, got shape {A.shape}")
    return A


def _symplectic_defect(S: np.ndarray, J: np.ndarray):
    """max|S^T J S - J| of S, or of each slice of a stack; NaN where it overflows, under the caller's errstate."""
    return np.abs(S.swapaxes(-1, -2) @ J @ S - J).max(axis=(-2, -1))


def _as_float(value) -> float:
    """value as a float; NaN for None, booleans, strings and anything float()
    rejects, such as an integer beyond the float range."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        return np.nan
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return np.nan


def _check_numbers(item, name: str) -> None:
    if isinstance(item, np.ndarray):
        if item.dtype.kind in "iuf":  # integer and real arrays hold numbers only
            return
        item = item.tolist()
    if isinstance(item, (list, tuple)):
        for entry in item:
            _check_numbers(entry, name)
    elif isinstance(item, bool) or not isinstance(item, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} entries must be numbers, got {item!r}")


def _float_array(value, name: str) -> np.ndarray:
    """A number or nested lists, tuples and arrays of numbers as a float array; a string, boolean,
    None, complex value, NaN, inf or other object anywhere in it raises ValueError naming name."""
    _check_numbers(value, name)
    try:
        A = np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} has an integer entry beyond the float range") from None
    except ValueError:
        raise ValueError(f"{name} must be a list of numbers or of equal-length rows of them") from None
    if not np.isfinite(A).all():
        entries = np.atleast_1d(A)
        index = tuple(np.argwhere(~np.isfinite(entries))[0])
        raise ValueError(f"{name} has a non-finite entry {entries[index]} at index {', '.join(map(str, index))}")
    return A


def _positive_number(value, name: str) -> float:
    """value as a float, rejecting anything but a finite positive number (NaN, None and booleans included)."""
    number = _as_float(value)
    if not 0.0 < number < np.inf:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return number


def _integer(value, name: str) -> int:
    """value as an int, rejecting None, booleans, numbers with a fractional
    part and integers beyond the float range."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if math.isnan(_as_float(value)):
            raise ValueError(f"{name} is an integer beyond the float range")
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _pair_count(l) -> int:
    """l, a number of centre pairs, as an int, if it is at least 1."""
    l = _integer(l, "l")
    if l < 1:
        raise ValueError("l must be at least 1")
    return l


def _require_symmetric(M, name: str = "matrix", tol: float = _SYMMETRY_TOL) -> np.ndarray:
    """Symmetrized M, one square matrix, if its asymmetry max|M - M^T| is at
    most tol times max(1, max|M|)."""
    A = _square(M, name)
    with np.errstate(over="ignore"):  # an asymmetry beyond the float range is inf, and fails the check
        defect = max_abs(A - A.T)
    if defect > tol * max(1.0, max_abs(A)):
        raise ValueError(f"{name} is not symmetric (asymmetry {defect:.3e})")
    return 0.5 * A + 0.5 * A.T  # halved first: entries may be near the float limit


def standard_symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, I], [-I, 0]]."""
    n = _integer(n, "n")
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
    th = np.atleast_1d(_float_array(theta, "theta"))
    if th.ndim > 2 or th.shape[-1] == 0:
        raise ValueError("theta must be a nonempty vector of angles or a (k, n) array of them")
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

    The argument is halved the fewest times that bring its max-row-sum norm
    to at most 0.5, read off the norm's binary exponent, the series is summed
    to order 12 by Horner's scheme, and the result is squared back up.  Each
    slice of a stack keeps its own number of halvings, so it comes out bit
    for bit as it would alone.  Accuracy is far below 1e-8 for the matrix
    sizes used in this package.  A slice whose norm or exponential is beyond
    the float range comes out non-finite, never as a finite wrong matrix.

    A stack of more than one slice is put in falling order of its counts by
    one stable argsort, undone at the end, and a single matrix by none; the
    round count is the leading slice's.  When no slice needs halving, the
    ldexp copy is skipped, since ldexp by 0 is the identity and E = A / 12
    makes a new array anyway; the argument is never written to and the
    result never shares its memory.  A norm beyond the float range gives a
    count of 1 (frexp(inf) has exponent 0), so the NaN patch runs only
    after halving, and only when some norm is infinite.
    """
    A = _square(M, stack=True)
    shape = A.shape
    A = A.reshape((-1,) + shape[-2:])
    norm = np.abs(A).sum(axis=-1).max(axis=-1)
    mantissa, exponent = np.frexp(np.maximum(norm, 0.5))  # norm = mantissa 2^exponent, 0.5 <= mantissa < 1
    squarings = exponent + (mantissa > 0.5)
    # slices in falling order of squarings, so that round r squares a leading run
    order = np.argsort(-squarings, kind="stable") if squarings.size > 1 else None
    if order is not None:
        A, norm, squarings = A[order], norm[order], squarings[order]
    rounds = int(squarings[0]) if squarings.size else 0
    if rounds:
        A = np.ldexp(A, -squarings[:, None, None])
        if norm.max() == np.inf:
            A[np.isinf(norm)] = np.nan
    I = np.eye(shape[-1])
    # Horner's E = I + (A @ E) / k from E = I, summed in place: A @ I is A and
    # x + I is I + x, so every step rounds exactly as that expression does
    E = A / _EXP_SERIES_ORDER
    E += I
    for k in range(_EXP_SERIES_ORDER - 1, 0, -1):
        E = A @ E
        E /= k
        E += I
    # round r squares the slices whose count exceeds r: the first live ones
    for r in range(rounds):
        live = np.count_nonzero(squarings > r)
        E[:live] = E[:live] @ E[:live]
    if order is not None:
        E[order] = E.copy()
    return E.reshape(shape)


def classification_tol(S) -> float:
    """Scale-relative tolerance separating zero from nonzero eigenvalues."""
    return _CLASSIFICATION_FLOOR * max(1.0, max_abs(S))


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


def inertia(S) -> SignatureReport:
    """Count eigenvalues of a symmetric matrix above tol, below -tol, and between,
    with tol the classification_tol of the symmetrized matrix.

    S is checked and symmetrized once by _require_symmetric, and its
    eigenvalues, in descending order, come from np.linalg.eigvalsh.
    """
    A = _require_symmetric(S, "inertia input")
    tol = classification_tol(A)
    w = np.linalg.eigvalsh(A)[::-1]
    n_pos = int(np.count_nonzero(w > tol))
    n_neg = int(np.count_nonzero(w < -tol))
    return SignatureReport(
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=int(w.size - n_pos - n_neg),
        eigenvalues=w,
        tol=tol,
    )


@dataclass(frozen=True, eq=False)
class CenterBlock:
    """Centre frequencies omega, any nonempty finite vector, with D = diag(omega, omega) built on
    first use and J shared per l; majorize checks the bracket's stricter hypothesis on omega."""

    omega: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(_float_array(self.omega, "omega"))
        if w.ndim != 1 or w.size == 0:
            raise ValueError("omega must be a nonempty finite vector")
        object.__setattr__(self, "omega", w)

    @cached_property
    def D(self) -> np.ndarray:
        return np.diag(np.concatenate([self.omega, self.omega]))

    @cached_property
    def J(self) -> np.ndarray:
        if self.l not in _SHARED_FORMS:  # read-only; one array per l <= 16 serves every block, 47 KB in all
            J = standard_symplectic_form(self.l)
            J.flags.writeable = False
            return _SHARED_FORMS.setdefault(self.l, J) if self.l <= 16 else J
        return _SHARED_FORMS[self.l]

    @classmethod
    def from_diagonal(cls, D) -> "CenterBlock":
        """The block whose D is the given diag(omega, omega), its pattern checked to a relative 1e-12."""
        A = _square(D, "centre diagonal")
        if A.shape[0] % 2:
            raise ValueError("centre diagonal must have even dimension")
        w = A.diagonal()[: A.shape[0] // 2].copy()
        gap = 1e-12 * max(1.0, max_abs(A))
        with np.errstate(over="ignore"):  # one check of the pattern diag(w, w); inf fails it
            if max_abs(A - np.diag(np.concatenate([w, w]))) > gap:
                if max_abs(A - np.diag(np.diag(A))) > gap:  # the off-diagonal part names the cause
                    raise ValueError("centre block must be diagonal")
                raise ValueError("centre diagonal must repeat its frequencies in both blocks")
        return cls(w)

    @property
    def l(self) -> int:
        return self.omega.size

    @property
    def dim(self) -> int:
        return 2 * self.omega.size
