"""Majorization order, inverse eigenvalue construction, and the bracket
operator generating first-order scattering Hessians.

The bracket sends a symmetric B to B @ J @ D - D @ J @ B over a centre block
D = diag(w_1..w_l, w_1..w_l).  Its kernel consists of the paired diagonals
diag(a_1..a_l, a_1..a_l); its range is the set of symmetric matrices whose
diagonal entries cancel in conjugate pairs.  Off the diagonal the bracket
splits into 2x2 systems with determinants +-(w_i^2 - w_j^2), one per
oscillator pair, so it is inverted in closed form (solve_bracket).
Together with Mirsky's diagonal-versus-spectrum criterion this lets us
build a symmetric target with any prescribed indefinite signature and
solve for a generator B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matkit import (
    _positive_tol,
    _require_symmetric,
    max_abs,
    standard_symplectic_form,
)

_MAJORIZE_TOL = 1e-10


class MajorizationError(ValueError):
    """Majorization precondition failed; `index` is the offending partial sum (1-based)."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class MajorizationWitness:
    """Partial-sum evidence for (or against) a <| b in the majorization order."""

    a_sorted: np.ndarray
    b_sorted: np.ndarray
    partial_sum_gaps: np.ndarray
    total_gap: float
    holds: bool
    tol: float

    def first_failure(self) -> int:
        """1-based index of the first violated partial sum, or len(a) for the total."""
        bad = np.nonzero(self.partial_sum_gaps < -self.tol)[0]
        if bad.size:
            return int(bad[0]) + 1
        return int(self.a_sorted.size)


def majorizes(a, b, tol: float = _MAJORIZE_TOL) -> MajorizationWitness:
    """Decide a <| b: sorted partial sums of a never exceed those of b, totals equal."""
    av = np.atleast_1d(np.asarray(a, dtype=float))
    bv = np.atleast_1d(np.asarray(b, dtype=float))
    if av.ndim != 1 or bv.ndim != 1 or av.size == 0:
        raise ValueError("majorization needs two nonempty vectors")
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    for name, v in (("a", av), ("b", bv)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"majorization vector {name} has a non-finite entry {v[bad[0]]} at index {bad[0]}")
    tol = _positive_tol(tol)
    a_sorted = np.sort(av)[::-1]
    b_sorted = np.sort(bv)[::-1]
    ca, cb = np.cumsum(a_sorted), np.cumsum(b_sorted)
    gaps = cb[:-1] - ca[:-1]
    total = float(cb[-1] - ca[-1])
    holds = bool(np.all(gaps >= -tol)) and abs(total) <= tol
    return MajorizationWitness(
        a_sorted=a_sorted,
        b_sorted=b_sorted,
        partial_sum_gaps=gaps,
        total_gap=total,
        holds=holds,
        tol=tol,
    )


def indefinite_spectrum(l: int, m: int) -> np.ndarray:
    """Zero-sum spectrum with m positive and 2l-m negative entries that
    majorizes the balanced diagonal (1,..,1,-1,..,-1).

    The vector is (2l-m, 1, ..., 1) followed by 2l-m copies of
    -(2l-1)/(2l-m); it realises the signature (m, 2l-m) through the Mirsky
    construction.
    """
    l, m = int(l), int(m)
    if l < 1:
        raise ValueError("l must be at least 1")
    if not 1 <= m <= 2 * l - 1:
        raise ValueError(f"m must lie in 1..{2 * l - 1}, got {m}")
    head = [float(2 * l - m)] + [1.0] * (m - 1)
    tail = [-(2.0 * l - 1.0) / (2 * l - m)] * (2 * l - m)
    return np.array(head + tail)


def mirsky_matrix(diag_entries, eigenvalues) -> np.ndarray:
    """Symmetric matrix with prescribed diagonal (in order) and spectrum.

    Requires diag_entries <| eigenvalues.  Starting from the diagonal matrix
    of eigenvalues, plane rotations pin diagonal entries to their targets one
    at a time, smallest target first: each step rotates the plane spanned by
    one unpinned slot at or below the target and one at or above it, which
    leaves the remaining unpinned block diagonal and preserves the spectrum
    exactly.  A final symmetric permutation restores the requested diagonal
    order.
    """
    d = np.atleast_1d(np.asarray(diag_entries, dtype=float))
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    witness = majorizes(d, lam, _MAJORIZE_TOL)
    if not witness.holds:
        k = witness.first_failure()
        raise MajorizationError(
            f"diagonal is not majorized by the spectrum: partial sum {k} fails "
            f"(gap {witness.partial_sum_gaps[k - 1] if k <= witness.partial_sum_gaps.size else witness.total_gap:.3e})",
            index=k,
        )
    n = d.size
    order = np.argsort(d, kind="stable")
    targets = d[order]
    A = np.diag(np.sort(lam))
    unpinned = list(range(n))
    pin_slot = np.empty(n, dtype=int)
    scale = max(1.0, max_abs(lam))
    snap = 1e-13 * scale
    for k, t in enumerate(targets):
        vals = np.array([A[s, s] for s in unpinned])
        below = vals <= t + snap
        above = vals >= t - snap
        a_idx = int(np.nonzero(below)[0][np.argmax(vals[below])]) if below.any() else int(np.argmin(np.abs(vals - t)))
        b_idx = int(np.nonzero(above)[0][np.argmin(vals[above])]) if above.any() else int(np.argmin(np.abs(vals - t)))
        a_slot, b_slot = unpinned[a_idx], unpinned[b_idx]
        va, vb = A[a_slot, a_slot], A[b_slot, b_slot]
        if a_slot == b_slot or vb - va <= snap:
            # target coincides with an available slot value, no rotation needed
            chosen = a_slot if abs(va - t) <= abs(vb - t) else b_slot
            pin_slot[k] = chosen
            unpinned.remove(chosen)
            continue
        c = np.sqrt((vb - t) / (vb - va))
        s = np.sqrt((t - va) / (vb - va))
        cp, cq = A[:, a_slot].copy(), A[:, b_slot].copy()
        A[:, a_slot] = c * cp - s * cq
        A[:, b_slot] = s * cp + c * cq
        rp, rq = A[a_slot, :].copy(), A[b_slot, :].copy()
        A[a_slot, :] = c * rp - s * rq
        A[b_slot, :] = s * rp + c * rq
        pin_slot[k] = a_slot
        unpinned.remove(a_slot)
    rank_of = np.empty(n, dtype=int)
    rank_of[order] = np.arange(n)
    placement = pin_slot[rank_of]
    out = A[np.ix_(placement, placement)]
    return 0.5 * (out + out.T)


@dataclass(frozen=True, eq=False)
class CenterBlock:
    """Paired diagonal quadratic form of the linearised centre dynamics.

    omega holds l nonzero frequencies with pairwise distinct squares; the
    block carries D = diag(omega, omega) together with the standard
    symplectic form of matching size.  Distinct squares are exactly what
    makes the bracket invertible off its paired-diagonal kernel: the 2x2
    systems of solve_bracket have determinants +-(w_i^2 - w_j^2).
    """

    omega: np.ndarray
    D: np.ndarray = field(init=False, repr=False)
    J: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ValueError("omega must be a nonempty finite vector")
        if np.any(w == 0.0):
            raise ValueError("all centre frequencies must be nonzero")
        sq = w * w
        gap = 1e-12 * max(1.0, float(sq.max()))
        for i in range(w.size):
            for j in range(i + 1, w.size):
                if abs(sq[i] - sq[j]) <= gap:
                    raise ValueError(
                        f"squared frequencies must be pairwise distinct, got "
                        f"omega[{i}]^2 ~ omega[{j}]^2 ~ {sq[i]:.6g}"
                    )
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "D", np.diag(np.concatenate([w, w])))
        object.__setattr__(self, "J", standard_symplectic_form(w.size))

    @property
    def l(self) -> int:
        return self.omega.size

    @property
    def dim(self) -> int:
        return 2 * self.omega.size


def _check_block_input(block: CenterBlock, M, name: str) -> np.ndarray:
    A = _require_symmetric(M, name)
    if A.shape[0] != block.dim:
        raise ValueError(f"{name} has dimension {A.shape[0]}, centre block expects {block.dim}")
    return A


def hessian_bracket(block: CenterBlock, B) -> np.ndarray:
    """B @ J @ D - D @ J @ B for symmetric B: the first-order Hessian of the
    splitting function under a perturbation generated by B.

    The result is symmetric and traceless for every symmetric B.
    """
    Bs = _check_block_input(block, B, "bracket argument")
    X = Bs @ (block.J @ block.D)
    return X + X.T


def in_bracket_range(block: CenterBlock, M, tol: float = 1e-8) -> bool:
    """True iff the diagonal of M cancels in conjugate pairs: M_ii + M_{l+i,l+i} = 0."""
    Ms = _check_block_input(block, M, "range candidate")
    tol = _positive_tol(tol)
    dvec = np.diag(Ms)
    l = block.l
    return bool(np.all(np.abs(dvec[:l] + dvec[l:]) <= tol))


def solve_bracket(block: CenterBlock, G) -> np.ndarray:
    """Minimum-norm symmetric B with bracket(B) = G, in closed form.

    Write B = [[P, Q], [Q^T, R]].  The bracket then splits into independent
    2x2 systems, one per oscillator pair i != j: (Q_ij, Q_ji) from the
    diagonal blocks G11_ij, G22_ij, and (P_ij, R_ij) from G12_ij, G12_ji.
    Each has determinant +-(w_i^2 - w_j^2), so the distinct-squares
    hypothesis on the centre block is exactly what makes them invertible.
    On the diagonal, G11_ii = -2 w_i Q_ii and G22_ii = 2 w_i Q_ii are
    consistent only when G_ii + G_{l+i,l+i} = 0, which is the range test;
    G12_ii = w_i (P_ii - R_ii) fixes only the difference; a common shift of
    P_ii and R_ii is the paired-diagonal kernel, and P_ii = -R_ii picks the
    representative orthogonal to it.
    """
    Gs = _check_block_input(block, G, "bracket target")
    tol = 1e-8 * max(1.0, max_abs(Gs))
    if not in_bracket_range(block, Gs, tol):
        raise ValueError(
            "target is outside the bracket range: diagonal entries do not cancel in conjugate pairs"
        )
    l, w = block.l, block.omega
    G11, G12, G22 = Gs[:l, :l], Gs[:l, l:], Gs[l:, l:]
    wi, wj = w[:, None], w[None, :]
    delta = wi * wi - wj * wj
    np.fill_diagonal(delta, 1.0)  # the diagonal is overwritten below
    Q = (wj * G11 + wi * G22) / delta
    P = (wi * G12.T - wj * G12) / delta
    R = (wj * G12.T - wi * G12) / delta
    k = np.arange(l)
    Q[k, k] = G22[k, k] / (2.0 * w)
    P[k, k] = G12[k, k] / (2.0 * w)
    R[k, k] = -P[k, k]
    B = np.block([[P, Q], [Q.T, R]])
    residual = max_abs(hessian_bracket(block, B) - Gs)
    if residual > 1e-8 * max(1.0, max_abs(Gs)):
        raise ArithmeticError(f"bracket solve left residual {residual:.3e}")
    return B
