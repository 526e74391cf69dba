"""Signature realization that re-validates every intermediate array and
forms the Hessian and the bracket of B twice each: the reference for
classify.realize_signature, which validates each input once and computes
each derived quantity once.

The functions below are the realize path as it stood before that change,
verbatim apart from their imports: the Mirsky construction comes from
mirsky_oracle, and the exponential and the spectrum from homscat.  The
centre block and the frequency reader are copies of the versions that
path called, which checked the bracket's hypothesis in the block's
constructor, so the oracle keeps their arithmetic and their order of
rejections.  One rule came later and is in both paths: an attempt whose
sigma is off symplectic is a miss, and eps halves, instead of an error.
The symplectic defect is matkit's one kernel, the formula this path wrote
inline, and the eigenvalue copy checks one matrix, all its caller passes.
Both paths do the same arithmetic in the same order, so their reports
must agree bit for bit, and their errors word for word.
"""

from dataclasses import dataclass, field

import numpy as np

from homscat.classify import (
    _REALIZE_MAX_HALVINGS,
    _SYMPLECTIC_PRECONDITION_TOL,
    RealizationError,
    RealizationReport,
)
from homscat.majorize import indefinite_spectrum
from homscat.matkit import (
    _CLASSIFICATION_FLOOR,
    SignatureReport,
    _positive_number,
    _require_symmetric,
    _square,
    _symplectic_defect,
    classification_tol,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
)
from mirsky_oracle import mirsky_matrix


@dataclass(frozen=True, eq=False)
class CenterBlock:
    omega: np.ndarray
    D: np.ndarray = field(init=False, repr=False)
    J: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ValueError("omega must be a nonempty finite vector")
        if np.any(w == 0.0):
            raise ValueError("all centre frequencies must be nonzero")
        top = float(np.max(np.abs(w)))
        if top * top == np.inf:  # Python floats overflow without a warning
            k = int(np.argmax(np.abs(w)))
            raise ValueError(f"omega[{k}] = {w[k]:g} is too large: its square overflows the float range")
        sq = w * w
        gap = 1e-12 * max(1.0, float(sq.max()))
        # np.nonzero lists the pairs i < j in row-major order
        i, j = np.nonzero(np.triu(np.abs(sq[:, None] - sq[None, :]) <= gap, 1))
        if i.size:
            raise ValueError(
                f"squared frequencies must be pairwise distinct, got "
                f"omega[{i[0]}]^2 ~ omega[{j[0]}]^2 ~ {sq[i[0]]:.6g}"
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


def center_frequencies(D):
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


def eigvalsh(S):
    return np.linalg.eigvalsh(_require_symmetric(S, "eigendecomposition input"))[::-1]


def inertia(S):
    A = _require_symmetric(S, "inertia input")
    tol = _positive_number(classification_tol(A), "inertia tolerance")
    w = eigvalsh(A)
    n_pos = int(np.sum(w > tol))
    n_neg = int(np.sum(w < -tol))
    return SignatureReport(
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=int(w.size - n_pos - n_neg),
        eigenvalues=w,
        tol=tol,
    )


def _check_block_input(block, M, name):
    A = _require_symmetric(M, name)
    if A.shape[0] != block.dim:
        raise ValueError(f"{name} has dimension {A.shape[0]}, centre block expects {block.dim}")
    return A


def hessian_bracket(block, B):
    Bs = _check_block_input(block, B, "bracket argument")
    X = Bs @ (block.J @ block.D)
    return X + X.T


def in_bracket_range(block, M, tol=1e-8):
    Ms = _check_block_input(block, M, "range candidate")
    tol = _positive_number(tol, "tolerance")
    dvec = np.diag(Ms)
    l = block.l
    return bool(np.all(np.abs(dvec[:l] + dvec[l:]) <= tol))


def solve_bracket(block, G):
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


def hessian_from_scattering(sigma, D_center):
    S = _square(sigma, "scattering matrix", stack=True)
    D = _square(D_center, "D_center")
    center_frequencies(D)
    if S.shape[-2:] != D.shape:
        raise ValueError("scattering matrix and centre diagonal have different dimensions")
    J = standard_symplectic_form(D.shape[0] // 2)
    St = S.swapaxes(-1, -2)
    defect = _symplectic_defect(S, J)
    if (defect > _SYMPLECTIC_PRECONDITION_TOL).any():
        raise ValueError(f"scattering matrix is not symplectic (defect {defect.max():.3e})")
    return St @ D @ S - D


def realize_signature(l, m, omega, eps):
    l, m = int(l), int(m)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if w.size != l:
        raise ValueError(f"omega must have length l = {l}, got {w.size}")
    eps = _positive_number(eps, "eps")
    block = CenterBlock(w)
    balanced = np.concatenate([np.ones(l), -np.ones(l)])
    b = indefinite_spectrum(l, m)
    G = mirsky_matrix(balanced, b)
    B = solve_bracket(block, G)
    b_min = np.min(np.abs(b))
    target = (m, 2 * l - m, 0)
    JB = block.J @ B
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = matrix_exponential(-eps * JB)
        overflow = not np.isfinite(sigma.T @ block.D @ sigma).all()
    if overflow:
        raise ArithmeticError(
            f"eps = {eps:.3g} overflows the float range: the Hessian of exp(-eps J B), with "
            f"max|J B| = {max_abs(JB):.3g}, exceeds it; the realization needs a smaller eps"
        )
    eps_cur = eps
    for _ in range(_REALIZE_MAX_HALVINGS):
        with np.errstate(over="ignore", invalid="ignore"):
            symplectic = max_abs(sigma.T @ block.J @ sigma - block.J) <= _SYMPLECTIC_PRECONDITION_TOL
        H = hessian_from_scattering(sigma, block.D) if symplectic else sigma.T @ block.D @ sigma - block.D
        achieved = inertia(H)
        if symplectic and achieved.inertia == target:
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
        if eps_cur * b_min <= _CLASSIFICATION_FLOOR:
            raise RealizationError(
                f"eps = {eps_cur:.3g} puts the smallest first-order Hessian eigenvalue "
                f"eps * min|b| = {eps_cur * b_min:.3g} at or below the zero tolerance {achieved.tol:.3g}; "
                f"signature ({m}, {2 * l - m}) needs eps above {achieved.tol / b_min:.3g}"
            )
        eps_cur *= 0.5
        sigma = matrix_exponential(-eps_cur * JB)
    raise RealizationError(
        f"signature ({m}, {2 * l - m}) not reached after {_REALIZE_MAX_HALVINGS} halvings of eps; "
        "the frequency choice is numerically degenerate"
    )
