"""Sequential never-definite ensemble: the per-trial reference for the
batched classify.indefiniteness_ensemble and its sampler
classify._random_symplectics.  random_symplectic here draws one sigma with a
single generator as all three streams; the tests that need a random
symplectic matrix, acceptance criterion 08 among them, take it from here.

One trial at a time and one factor at a time, in plain numpy.  Every
random value comes from its own scalar draw call on the same three
streams the batched kernel reads with one call each (factor counts, raw
generators, norms), so the two agree only if a PCG64 stream gives the
same numbers one at a time as in a batch.  Each generator's spectral norm
comes from its own eigensolve, each exponential is formed on its own by
scaling-and-squaring with a 12-term Horner series, and each Hessian gets
its own eigensolve.  The arithmetic is that of the 2-D matkit kernels, so
the batched summary must agree exactly.
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


def _draw_sigma(l, streams, max_factors, max_norm):
    """One trial, one value per draw call: the factor count from streams[0],
    each raw generator entry by entry from streams[1], then each norm from
    streams[2]; a generator with a zero spectral norm is skipped with its norm."""
    count_stream, raw_stream, norm_stream = streams
    d = 2 * l
    J = _symplectic_form(l)
    factors = int(count_stream.integers(1, max_factors + 1))
    generators = [np.array([raw_stream.standard_normal() for _ in range(d * d)]).reshape(d, d) for _ in range(factors)]
    sigma = np.eye(d)
    for raw in generators:
        norm = norm_stream.uniform(0.1, max_norm)
        B = 0.5 * (raw + raw.T)
        w = _eigvalsh(B)
        spectral = max(abs(w[0]), abs(w[-1]))
        if spectral == 0.0:
            continue
        B *= norm / spectral
        sigma = sigma @ _expm(-J @ B)
    return sigma


def random_symplectic(l, rng, max_factors=5, max_norm=2.0):
    return _draw_sigma(l, (rng, rng, rng), max_factors, max_norm)


def ensemble_streams(seed):
    """The generators of the factor counts, the raw generators and the norms."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(int(seed)).spawn(3)]


def indefiniteness_ensemble(D, trials, seed, tol=1e-9):
    D = np.asarray(D, dtype=float)
    omega = np.diag(D)[: D.shape[0] // 2].copy()
    definite_pos = definite_neg = 0
    largest_min = -np.inf
    smallest_max = np.inf
    streams = ensemble_streams(seed)
    for _ in range(trials):
        sigma = _draw_sigma(omega.size, streams, 5, 2.0)
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
