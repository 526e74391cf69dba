"""Majorization order, inverse eigenvalue construction, and the bracket
operator generating first-order scattering Hessians.

The bracket sends a symmetric B to B @ J @ D - D @ J @ B over a centre
block D = diag(w_1..w_l, w_1..w_l) (matkit.CenterBlock).  Its kernel
consists of the paired diagonals diag(a_1..a_l, a_1..a_l); its range is the
set of symmetric matrices whose diagonal entries cancel in conjugate pairs.
Off the diagonal the bracket splits into 2x2 systems with determinants
+-(w_i^2 - w_j^2), one per oscillator pair, so it is inverted in closed form
(_solve_bracket, which realize_signature calls on its Mirsky target) on
blocks that pass _require_bracket_hypothesis.  Together
with Mirsky's diagonal-versus-spectrum criterion this lets us build a
symmetric target with any prescribed indefinite signature and solve for B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matkit import (
    CenterBlock,
    _count,
    _float_array,
    _integer,
    _require_block_dim,
    _require_symmetric,
    max_abs,
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


def majorizes(a, b) -> MajorizationWitness:
    """Decide a <| b: sorted partial sums of a never exceed those of b, totals equal, within
    _MAJORIZE_TOL * max(1, max|a|, max|b|), the witness's tol: the round-off of a partial sum
    grows with its entries.  Partial sums, or their differences, beyond the float range raise
    ValueError naming them."""
    av = np.atleast_1d(_float_array(a, "majorization vector a"))
    bv = np.atleast_1d(_float_array(b, "majorization vector b"))
    if av.ndim != 1 or bv.ndim != 1 or av.size == 0:
        raise ValueError("majorization needs two nonempty vectors")
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    a_sorted = np.sort(av)[::-1]
    b_sorted = np.sort(bv)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        ca, cb = np.cumsum(a_sorted), np.cumsum(b_sorted)
        diffs = cb - ca
    # a partial sum that overflows stays non-finite in every later one and in diffs
    if not np.isfinite(diffs).all():
        for what, sums in (
            ("vector a has partial sums", ca),
            ("vector b has partial sums", cb),
            ("vectors a and b have partial sums whose difference is", diffs),
        ):
            if not np.isfinite(sums).all():
                raise ValueError(f"majorization {what} beyond the float range")
    gaps = diffs[:-1]
    total = float(diffs[-1])
    tol = _MAJORIZE_TOL * max(1.0, max_abs(av), max_abs(bv))
    holds = bool((gaps >= -tol).all()) and abs(total) <= tol
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
    -(2l-1)/(2l-m) <= -1, so min|b| = 1; it realises the signature (m, 2l-m)
    through the Mirsky construction.
    """
    l, m = _count(l, "l"), _integer(m, "m")
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

    The pivots are chosen in scalar arithmetic on the diagonal, read back as
    Python floats.  Each rotation updates the column pair, then the row pair,
    elementwise: there is no matmul, so the result does not depend on the
    BLAS.  A rotation whose two values lie more than the float range apart
    raises ArithmeticError.
    """
    d = np.atleast_1d(_float_array(diag_entries, "Mirsky diagonal"))
    lam = np.atleast_1d(_float_array(eigenvalues, "Mirsky spectrum"))
    witness = majorizes(d, lam)
    if not witness.holds:
        k = witness.first_failure()
        raise MajorizationError(
            f"diagonal is not majorized by the spectrum: partial sum {k} fails "
            f"(gap {witness.partial_sum_gaps[k - 1] if k <= witness.partial_sum_gaps.size else witness.total_gap:.3e}, "
            f"whose magnitude exceeds the bound {witness.tol:.3e})",
            index=k,
        )
    order = np.argsort(d, kind="stable")
    targets = d[order].tolist()
    A = np.diag(np.sort(lam))
    unpinned = list(range(d.size))
    pinned = []  # the slot pinned to each target, in target order
    scale = max(1.0, max_abs(lam))
    snap = 1e-13 * scale
    for t in targets:
        # a: the largest value at or below t, b: the smallest at or above it,
        # the first in unpinned order on a tie, else the first nearest t
        hi, lo = t + snap, t - snap
        diag = A.diagonal().tolist()
        a_slot = b_slot = -1
        for slot in unpinned:
            v = diag[slot]
            if v <= hi and (a_slot < 0 or v > diag[a_slot]):
                a_slot = slot
            if v >= lo and (b_slot < 0 or v < diag[b_slot]):
                b_slot = slot
        if a_slot < 0 or b_slot < 0:
            nearest = min(unpinned, key=lambda slot: abs(diag[slot] - t))
            a_slot = nearest if a_slot < 0 else a_slot
            b_slot = nearest if b_slot < 0 else b_slot
        va, vb = diag[a_slot], diag[b_slot]
        if a_slot == b_slot or vb - va <= snap:
            # target coincides with an available slot value, no rotation needed
            chosen = a_slot if abs(va - t) <= abs(vb - t) else b_slot
            pinned.append(chosen)
            unpinned.remove(chosen)
            continue
        if vb - va == math.inf:
            raise ArithmeticError(
                f"the Mirsky rotation between the values {va:.3g} and {vb:.3g} is beyond the float range"
            )
        c = math.sqrt((vb - t) / (vb - va))
        s = math.sqrt((t - va) / (vb - va))
        # both new columns, then both new rows, are formed before either is stored
        x, y = A[:, a_slot], A[:, b_slot]
        A[:, a_slot], A[:, b_slot] = c * x - s * y, s * x + c * y
        x, y = A[a_slot], A[b_slot]
        A[a_slot], A[b_slot] = c * x - s * y, s * x + c * y
        pinned.append(a_slot)
        unpinned.remove(a_slot)
    placement = np.empty(d.size, dtype=int)
    placement[order] = pinned  # the slot of each diagonal entry, in the requested order
    out = A[np.ix_(placement, placement)]
    return 0.5 * out + 0.5 * out.T  # halved first: entries may be near the float limit


def _require_bracket_hypothesis(block: CenterBlock) -> CenterBlock:
    """block, if its frequencies are nonzero with squares in the float range
    and pairwise distinct: what _solve_bracket divides by, w_i and w_i^2 - w_j^2.

    It runs once per realize op and in every ModelSpec, so it calls array
    methods, not the np.any / np.max / np.diff wrappers around them, and
    takes the largest square as top * top: squaring rounds monotonically in
    |w|, so that is the largest entry of w * w, bit for bit.
    """
    w = block.omega
    if (w == 0.0).any():
        raise ValueError("all centre frequencies must be nonzero")
    aw = np.abs(w)
    top = float(aw.max())
    if top * top == np.inf:  # Python floats overflow without a warning
        k = int(aw.argmax())
        raise ValueError(f"omega[{k}] = {w[k]:g} is too large: its square overflows the float range")
    sq = w * w
    gap = 1e-12 * max(1.0, top * top)
    # some pair is within gap iff some neighbour pair of the sorted squares is
    s = np.sort(sq)
    if sq.size < 2 or (s[1:] - s[:-1]).min() > gap:
        return block
    # np.nonzero lists the pairs i < j in row-major order
    i, j = np.nonzero(np.triu(np.abs(sq[:, None] - sq[None, :]) <= gap, 1))
    raise ValueError(
        f"squared frequencies must be pairwise distinct, got "
        f"omega[{i[0]}]^2 ~ omega[{j[0]}]^2 ~ {sq[i[0]]:.6g}"
    )


def _bracket(block: CenterBlock, Bs: np.ndarray) -> np.ndarray:
    X = Bs @ (block.J @ block.D)
    return X + X.T


def hessian_bracket(block: CenterBlock, B) -> np.ndarray:
    """B @ J @ D - D @ J @ B for symmetric B: the first-order Hessian of the
    splitting function under a perturbation generated by B.

    With sigma = exp(-eps J B) = I - eps J B + O(eps^2), sigma^T = I + eps B J,
    so sigma^T D sigma - D = eps (B J D - D J B) + O(eps^2).  The result is
    symmetric and traceless for every symmetric B; a B or bracket beyond the
    float range raises ArithmeticError, without a warning.
    """
    Bs = _require_block_dim(_require_symmetric(B, "bracket argument"), block, "bracket argument")
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = _bracket(block, Bs)
    if not np.isfinite(bracket).all():
        raise ArithmeticError(f"the bracket of B is beyond the float range: max|B| = {max_abs(Bs):.3g}")
    return bracket


# an entry of B or of its bracket beyond the float range leaves the residual inf or NaN
@np.errstate(over="ignore", invalid="ignore")
def _solve_bracket(block: CenterBlock, Gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm symmetric B with bracket(B) = Gs, in closed form, and
    that bracket, whose distance to Gs is the certified residual.

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

    The block must pass _require_bracket_hypothesis and Gs must be an
    exactly symmetric 2l x 2l float array: it is not checked again here.
    The range test and the residual bound, both 1e-8 * max(1, max|Gs|), run
    on Gs: a target outside the range raises ValueError, and a residual
    above the bound ArithmeticError.  B is filled block by block and is
    exactly symmetric: P_ji and R_ji are the quotients P_ij and R_ij with
    numerator and denominator both negated.  The bracket of B, formed once for the residual bound, is what
    realize_signature measures its first-order gap against.

    It runs once per realize op, so the range test calls the array's own
    methods, not the np.diag / np.all wrappers, and the diagonal fills read
    the diagonals of G12 and G22 as views, not gathered by an index, divide
    by 2 w once, and set R_ii from the very quotient stored in P_ii: the
    same floats by fewer numpy calls.
    """
    l, w = block.l, block.omega
    scale = max(1.0, max_abs(Gs))
    dvec = Gs.diagonal()
    if not (np.abs(dvec[:l] + dvec[l:]) <= 1e-8 * scale).all():
        raise ValueError(
            "target is outside the bracket range: diagonal entries do not cancel in conjugate pairs"
        )
    G11, G12, G22 = Gs[:l, :l], Gs[:l, l:], Gs[l:, l:]
    wi, wj = w[:, None], w[None, :]
    delta = wi * wi - wj * wj
    np.fill_diagonal(delta, 1.0)  # the diagonal is overwritten below
    B = np.empty((2 * l, 2 * l))
    B[:l, :l] = (wi * G12.T - wj * G12) / delta
    B[:l, l:] = (wj * G11 + wi * G22) / delta
    B[l:, l:] = (wj * G12.T - wi * G12) / delta
    P, Q, R = B[:l, :l], B[:l, l:], B[l:, l:]
    k, two_w = np.arange(l), 2.0 * w
    Q[k, k] = G22.diagonal() / two_w
    P[k, k] = p = G12.diagonal() / two_w
    R[k, k] = -p
    B[l:, :l] = Q.T
    bracket = _bracket(block, B)
    residual = max_abs(bracket - Gs)
    if not residual <= 1e-8 * scale:
        if np.isfinite(residual):
            raise ArithmeticError(f"bracket solve left residual {residual:.3e}")
        raise ArithmeticError(f"bracket solve of a target with max|G| = {scale:.3g} is beyond the float range")
    return B, bracket

