"""Sequential never-definite ensemble: the per-trial reference for the
batched classify.indefiniteness_ensemble and classify.random_symplectic.

One trial at a time and one factor at a time, in plain numpy: each
generator's spectral norm comes from its own eigensolve, each exponential
is formed on its own by scaling-and-squaring with a 12-term Horner series,
and each Hessian gets its own eigensolve.  The arithmetic is that of the
2-D matkit kernels, so the batched summary must agree exactly.
"""

import numpy as np

from homscat.classify import EnsembleSummary


def _symplectic_form(l):
    return np.block([[np.zeros((l, l)), np.eye(l)], [-np.eye(l), np.zeros((l, l))]])


def _eigvalsh(S):
    return np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]


def _expm(M):
    norm = float(np.max(np.sum(np.abs(M), axis=1)))
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    A = M / (2.0 ** squarings)
    E = np.eye(A.shape[0])
    for k in range(12, 0, -1):
        E = np.eye(A.shape[0]) + (A @ E) / k
    for _ in range(squarings):
        E = E @ E
    return E


def random_symplectic(l, rng, max_factors=5, max_norm=2.0):
    J = _symplectic_form(l)
    sigma = np.eye(2 * l)
    for _ in range(int(rng.integers(1, max_factors + 1))):
        raw = rng.standard_normal((2 * l, 2 * l))
        B = 0.5 * (raw + raw.T)
        w = _eigvalsh(B)
        spectral = max(abs(w[0]), abs(w[-1]))
        if spectral == 0.0:
            continue
        B *= rng.uniform(0.1, max_norm) / spectral
        sigma = sigma @ _expm(-J @ B)
    return sigma


def indefiniteness_ensemble(D, trials, seed, tol=1e-9):
    D = np.asarray(D, dtype=float)
    omega = np.diag(D)[: D.shape[0] // 2].copy()
    definite_pos = definite_neg = 0
    largest_min = -np.inf
    smallest_max = np.inf
    for k in range(trials):
        sigma = random_symplectic(omega.size, np.random.default_rng((int(seed), k)))
        w = _eigvalsh(sigma.T @ D @ sigma - D)
        lo, hi = float(w[-1]), float(w[0])
        largest_min = max(largest_min, lo)
        smallest_max = min(smallest_max, hi)
        if lo > tol:
            definite_pos += 1
        if hi < -tol:
            definite_neg += 1
    return EnsembleSummary(
        l=omega.size,
        omega=omega,
        trials=trials,
        seed=int(seed),
        tol=float(tol),
        definite_positive=definite_pos,
        definite_negative=definite_neg,
        largest_min_eigenvalue=largest_min,
        smallest_max_eigenvalue=smallest_max,
    )
