"""Hessian assembly from scattering matrices, signature classification, the
signature-realization pipeline, and the time-reversible case.

The reduced Hessian of the splitting function is sigma^T D sigma - D with
D = diag(omega, omega).  It is never definite; every indefinite signature
(m, 2l - m) is reachable by choosing a spectrum that majorizes the balanced
+-1 diagonal, building a symmetric target with that diagonal and spectrum,
solving the bracket equation for a generator B, and taking
sigma = exp(-eps J B) for small eps.  When the centre reversal
R = diag(I, -I), the normal form of every reversor of the centre flow,
reverses the dynamics, sigma R sigma = R, the Hessian vanishes on the two
fixed Lagrangians of R sigma, and its signature is (r, r, 2l - 2r) with r
the rank of the cross block X = -2 P-^T D P+ between them.

For omega of one sign, two traces show that the Hessian H is never
definite.  Let omega > 0 (else take -D and -H) and
T = D^(1/2) sigma D^(-1/2).  det T = 1, so by AM-GM |T|_F^2 >= 2l, with
equality only for orthogonal T, that is H = 0, and
tr(D^-1 H) = |T|_F^2 - 2l: a nonzero H is not negative semidefinite.  For
sigma^-1 = -J sigma^T J, whose Hessian is -sigma^-T H sigma^-1, the same
gives -tr(sigma^-1 D^-1 sigma^-T H) = |D^(-1/2) sigma D^(1/2)|_F^2 - 2l > 0:
nor is H positive semidefinite, and at l = 1 its signature is (1, 1).  The
ensemble checks the claim by census for every omega.

Total resonance locks the signature.  If every omega_i = omega, then
H = omega (sigma^T sigma - I).  The eigenvalues of sigma^T sigma pair as
mu, 1/mu, so the inertia of H is (r, r, 2l - 2r), r the count of mu > 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .majorize import (
    _require_bracket_hypothesis,
    _solve_bracket,
    indefinite_spectrum,
    mirsky_matrix,
)
from .matkit import (
    _CLASSIFICATION_FLOOR,
    CenterBlock,
    SignatureReport,
    _integer,
    _pair_count,
    _positive_number,
    _square,
    _symplectic_defect,
    inertia,
    matrix_exponential,
    max_abs,
)

_SYMPLECTIC_PRECONDITION_TOL = 1e-7
_ENSEMBLE_TOL = 1e-9
_REVERSIBILITY_TOL = 1e-7
_REALIZE_MAX_HALVINGS = 20
_MAX_FACTORS = 5
_MAX_NORM = 2.0
# bound on the matrix entries of one chunk of ensemble trials at _MAX_FACTORS
# factors each: the stacked kernels hold a few arrays of that size, 128 KiB each
_MAX_CHUNK_ELEMENTS = 2 ** 14


class RealizationError(ArithmeticError):
    """The target signature was not reached: the eps halvings ran out, or eps
    puts the first-order Hessian eigenvalues under the zero tolerance."""


def _require_symplectic(S: np.ndarray, J: np.ndarray, scale: float = 1.0) -> None:
    defect = _symplectic_defect(S, J)
    # a NaN defect fails this test too
    if not (defect <= _SYMPLECTIC_PRECONDITION_TOL * scale).all():
        raise ValueError(f"scattering matrix is not symplectic (defect {defect.max():.3e})")


def _hessian(S: np.ndarray, block: CenterBlock) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        _require_symplectic(S, block.J)
        H = S.swapaxes(-1, -2) @ block.D @ S - block.D
    if not np.isfinite(H).all():
        # the first overflowing slice: the same trial in every chunking of an ensemble
        first = S[np.argmin(np.isfinite(H).all(axis=(-2, -1)))] if S.ndim == 3 else S
        raise ArithmeticError(
            f"the Hessian sigma^T D sigma - D overflows the float range: "
            f"max|omega| = {max_abs(block.omega):.3g} and max|sigma| = {max_abs(first):.3g}"
        )
    return H


def hessian_from_scattering(sigma, D_center) -> np.ndarray:
    """sigma^T D sigma - D with D the diag(omega, omega) of D_center; requires sigma
    symplectic within 1e-7, and raises ArithmeticError on overflow.

    A centre rotation Psi is orthogonal and commutes with D, so Psi sigma has
    the Hessian sigma^T Psi^T D Psi sigma - D = sigma^T D sigma - D of sigma.
    """
    S = _square(sigma, "scattering matrix")
    block = CenterBlock.from_diagonal(D_center)
    if S.shape[0] != block.dim:
        raise ValueError(f"scattering matrix has dimension {S.shape[0]} but the centre block {block.dim}")
    return _hessian(S, block)


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


def _random_symplectics(block: CenterBlock, streams, k: int) -> np.ndarray:
    """k random symplectic matrices as a (k, 2l, 2l) stack, each the product
    of 1 to _MAX_FACTORS exponentials exp(-J B) with random symmetric B scaled
    to a spectral norm drawn from [0.1, _MAX_NORM).  The generators of the
    factor counts, the raw generators and their norms are each read in
    trial order by one call.  A raw draw with a zero symmetric part is
    skipped, with its norm.  One stacked np.linalg.eigvalsh gives all
    spectral norms, each the larger of minus the first and the last of its
    ascending eigenvalues, which is max|w| to the bit, and one stacked
    exponential gives all factors.  The sigmas are the products of
    _factor_stack's positions, one stacked product per position: I @ F and
    F @ I are F for a finite factor, so the padding changes no bit of a
    product.
    """
    d = block.dim
    count_stream, raw_stream, norm_stream = streams
    counts = count_stream.integers(1, _MAX_FACTORS + 1, size=k)
    R = raw_stream.standard_normal((int(counts.sum()), d, d))
    norms = norm_stream.uniform(0.1, _MAX_NORM, size=R.shape[0])
    B = 0.5 * (R + R.swapaxes(-1, -2))
    # B[0, 0] == R[0, 0], so B can vanish only where R[0, 0] does
    keep = R[:, 0, 0] != 0.0
    if not keep.all():
        keep |= B.any(axis=(1, 2))
        counts = np.add.reduceat(keep, np.cumsum(counts) - counts, dtype=int)
        B, norms = B[keep], norms[keep]
    # B is exactly symmetric, so it goes to LAPACK with no symmetry check
    w = np.linalg.eigvalsh(B)
    B *= (norms / np.maximum(-w[:, 0], w[:, -1]))[:, None, None]
    stack = _factor_stack(matrix_exponential(-block.J @ B), counts)
    sigmas = stack[:, 0]
    for position in range(1, stack.shape[1]):
        sigmas = sigmas @ stack[:, position]
    return sigmas


def _factor_stack(factors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The (k, longest count, d, d) stack of the (sum of counts, d, d) factors,
    trial k's counts[k] factors in draw order from position 0, padded with I."""
    d = factors.shape[-1]
    width = max(1, counts.max(initial=0))
    stack = np.empty((counts.size, width, d, d))
    stack[...] = np.eye(d)
    # the mask runs trial by trial, position by position: the draw order
    stack[np.arange(width) < counts[:, None]] = factors
    return stack


def indefiniteness_ensemble(D_center, trials: int, seed: int) -> EnsembleSummary:
    """Extreme Hessian eigenvalues over a seeded random symplectic ensemble.

    The generators of the factor counts, the raw generators and the norms
    take SeedSequence(seed, spawn_key=(i,)) for i = 0, 1, 2, the children
    that SeedSequence(seed).spawn(3) would make, and each is read in trial
    order: the summary does not depend on the chunking, and a run's first k
    trials are a k-trial run.  Chunks of trials hold at most
    _MAX_CHUNK_ELEMENTS matrix entries of stacked factors.  An extreme
    eigenvalue beyond _ENSEMBLE_TOL counts its trial as definite.  Both
    definite counts must come out zero: the reduced Hessian is never
    definite.
    """
    block = CenterBlock.from_diagonal(D_center)
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    streams = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in range(3)]
    chunk = max(1, _MAX_CHUNK_ELEMENTS // (_MAX_FACTORS * block.dim ** 2))
    definite_pos = definite_neg = 0
    largest_min = -np.inf
    smallest_max = np.inf
    for start in range(0, trials, chunk):
        sigmas = _random_symplectics(block, streams, min(chunk, trials - start))
        H = _hessian(sigmas, block)
        # symmetrized as _require_symmetric would, without its check of a Hessian formed just above
        w = np.linalg.eigvalsh(0.5 * H + 0.5 * H.swapaxes(-1, -2))
        lo, hi = w[:, 0], w[:, -1]
        largest_min = max(largest_min, float(lo.max()))
        smallest_max = min(smallest_max, float(hi.min()))
        definite_pos += int(np.count_nonzero(lo > _ENSEMBLE_TOL))
        definite_neg += int(np.count_nonzero(hi < -_ENSEMBLE_TOL))
    return EnsembleSummary(
        l=block.l,
        omega=block.omega,
        trials=trials,
        seed=seed,
        tol=_ENSEMBLE_TOL,
        definite_positive=definite_pos,
        definite_negative=definite_neg,
        largest_min_eigenvalue=largest_min,
        smallest_max_eigenvalue=smallest_max,
    )


@lru_cache(maxsize=128)
def _signature_target(l: int, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The spectrum b = indefinite_spectrum(l, m), the Mirsky target G
    with the balanced +-1 diagonal and spectrum b, both read-only, and
    min|b|, which realize_signature's stop rule reads on every op.

    None of them depends on omega or eps, so the 128 signatures last used
    keep theirs, functools' default bound, which holds every signature up to
    l = 11.  An entry holds (2l)^2 + 2l floats, so the cache holds at most
    128 * 8 * (4l^2 + 2l) bytes at the largest l realized: about 6.6 MB at
    l = 40.  A call that raises keeps nothing.  min|b| is the float that
    realize_signature computed from b on every op before it was kept here,
    so no stop decision or message changes by a bit.
    """
    balanced = np.concatenate([np.ones(l), -np.ones(l)])
    b = indefinite_spectrum(l, m)
    G = mirsky_matrix(balanced, b)
    b.flags.writeable = G.flags.writeable = False
    return b, G, float(np.abs(b).min())


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
    The balanced diagonal cancels in conjugate pairs, so the target G is in
    the bracket's range, and to first order H = eps G, whose inertia is b's,
    (m, 2l - m, 0).  If the achieved signature misses the target (the
    second-order terms are not yet dominated), eps is halved, up to 20
    times.  A miss with the smallest first-order eigenvalue eps * min|b| at
    or below 1e-7, the floor of the zero tolerance, raises at once: halving
    eps only moves it further below.  A tolerance above that floor grows with the second-order terms,
    which halving shrinks faster, so it does not stop the halvings.  An
    eps whose generator, exponential or Hessian overflows the float range
    raises ArithmeticError before any halving.

    The spectrum and the Mirsky target depend on (l, m) only, not on omega
    or eps: they are built once per signature and kept in a cache of at
    most 128 entries (_signature_target) with min|b|, and the report holds
    copies of them.  The inputs are checked once, here and in the public
    mirsky_matrix on a cache miss; the exactly symmetric Mirsky target goes
    to the bracket kernel unchecked.
    Each attempt forms sigma^T D sigma - D once, for both the overflow test
    and the inertia.  An attempt whose sigma is off symplectic by more than
    1e-7 is a miss, as a wrong inertia is, and eps halves: the caller
    supplied no sigma, so it is no input error.  The first-order gap is
    measured against the bracket of B that the solve already formed for its
    residual bound.
    """
    l, m = _pair_count(l), _integer(m, "m")
    block = CenterBlock(omega)
    if block.l != l:
        raise ValueError(f"omega must have length l = {l}, got {block.l}")
    eps = _positive_number(eps, "eps")
    _require_bracket_hypothesis(block)
    b, G, b_min = _signature_target(l, m)
    B, bracket = _solve_bracket(block, G)
    target = (m, 2 * l - m, 0)
    D, JB = block.D, block.J @ B
    if eps * max_abs(JB) == np.inf:  # halving eps only shrinks the generator: one check covers every attempt
        raise ArithmeticError(
            f"eps = {eps:.3g} overflows the float range: the generator eps J B, with "
            f"max|J B| = {max_abs(JB):.3g}, exceeds it; the realization needs a smaller eps"
        )
    eps_cur = eps
    for _ in range(_REALIZE_MAX_HALVINGS):
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = matrix_exponential(-eps_cur * JB)
            H = sigma.T @ D @ sigma - D
            defect = _symplectic_defect(sigma, block.J)
        if not np.isfinite(H).all():
            raise ArithmeticError(
                f"eps = {eps_cur:.3g} overflows the float range: the Hessian of exp(-eps J B), with "
                f"max|J B| = {max_abs(JB):.3g}, exceeds it; the realization needs a smaller eps"
            )
        achieved = inertia(H)
        if achieved.inertia == target and defect <= _SYMPLECTIC_PRECONDITION_TOL:
            gap = max_abs(H / eps_cur - bracket)
            return RealizationReport(
                l=l,
                m=m,
                b=b.copy(),
                G=G.copy(),
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
    raise RealizationError(
        f"signature ({m}, {2 * l - m}) not reached after {_REALIZE_MAX_HALVINGS} halvings of eps; "
        "the frequency choice is numerically degenerate"
    )


def center_reversal(l: int) -> np.ndarray:
    """The centre-block involution diag(I_l, -I_l): q -> q, p -> -p."""
    l = _pair_count(l)
    return np.diag(np.concatenate([np.ones(l), -np.ones(l)]))


@dataclass(frozen=True, eq=False)
class ReversibilityReport:
    residual: float
    tol: float
    passed: bool


def reversible_signature(sigma, center: CenterBlock) -> tuple[ReversibilityReport, SignatureReport | None]:
    """Residual of sigma R sigma = R for the centre reversal R = diag(I_l, -I_l),
    and in the reversible case the inertia of sigma^T D sigma - D, D = center.D.

    A residual beyond the float range is inf, and one above the report's tol,
    _REVERSIBILITY_TOL * max(1, max|sigma|), fails the check: no signature.

    The reversal is the normal form R = diag(I, -I), and that loses nothing:
    a reversor of the centre flow commutes with D, so for distinct
    frequencies it is a reflection in each (q_i, p_i) plane, Psi R Psi^T
    with Psi a centre rotation, and Psi^T sigma Psi is reversible under R
    with a congruent Hessian.

    The signature comes from an identity.  With A = R sigma, A^2 = I, and a
    symplectic sigma (checked within the same 1e-7 max(1, max|sigma|)) makes
    Fix(A) and Fix(-A) Lagrangian, of dimension l each.  R commutes with D, so
    sigma^T D sigma = A^T D A and H vanishes on both: in a basis [P+, P-] H is
    [[0, X^T], [X, 0]] with X = -2 P-^T D P+, of inertia (r, r, 2l - 2r),
    r = rank X.  One SVD of (I + A)/2 gives orthonormal P+ (its first l left
    singular vectors) and P- (its last l right ones), and the signature is the
    inertia of [[0, M^T], [M, 0]], M = P-^T D P+, whose eigenvalues are the
    +- singular values of M and 2l - 2r zeros.  |M| <= max|omega|, so no
    |sigma|^2-sized term arises, and only an M beyond the float range raises
    ArithmeticError.  Degenerate means r < l, with r = n_pos.
    """
    S = _square(sigma, "scattering matrix")
    if S.shape[0] != center.dim:
        raise ValueError(f"scattering matrix has dimension {S.shape[0]} but the centre block {center.dim}")
    R = center_reversal(center.l)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = max_abs(S @ R @ S - R)
    residual = np.inf if np.isnan(residual) else residual  # inf - inf where the product overflowed
    scale = max(1.0, max_abs(S))  # the round-off of sigma R sigma and of sigma^T J sigma grows with |sigma|
    tol = _REVERSIBILITY_TOL * scale
    report = ReversibilityReport(residual=residual, tol=tol, passed=bool(residual <= tol))
    if not report.passed:
        return report, None
    with np.errstate(over="ignore", invalid="ignore"):
        _require_symplectic(S, center.J, scale)
    l = center.l
    U, _, Vt = np.linalg.svd(0.5 * (np.eye(center.dim) + R @ S))
    with np.errstate(over="ignore", invalid="ignore"):
        M = Vt[l:] @ center.D @ U[:, :l]
    if not np.isfinite(M).all():
        raise ArithmeticError(
            f"the cross block P-^T D P+ overflows the float range: max|omega| = {max_abs(center.omega):.3g}"
        )
    cross = np.zeros((center.dim, center.dim))
    cross[l:, :l], cross[:l, l:] = M, M.T
    return report, inertia(cross)
