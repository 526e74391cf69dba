"""The exact scattering matrix of two disjoint unit-mass bumps: a reference for
flow.scattering_matrix on a field whose values at different times do not
commute.

The co-rotating field is -eps (xi_1(t) J C_1 + xi_2(t) J C_2), where xi_1 and
xi_2 are unit-mass bumps of half-width w centred at -c and c, with w < c, so
their supports are disjoint and xi_1's comes first.  On each support the
field is a scalar function times one constant matrix, whose propagator is
the exponential of that matrix times the bump's mass, so

    sigma = exp(-eps J C_2) exp(-eps J C_1)

exactly, although J C_1 and J C_2 need not commute.  The exponential here is
its own, a Taylor series of order 30 after scaling the matrix to max-row-sum
norm at most 1/8, squared back; matkit.matrix_exponential is never called.
"""

import numpy as np

from homscat.models import _profile_mass, _raw_profile

CENTRE = 1.5
HALFWIDTH = 1.0
SUPPORT = CENTRE + HALFWIDTH


def taylor_exponential(M: np.ndarray) -> np.ndarray:
    norm = np.abs(M).sum(axis=1).max()
    squarings = int(np.ceil(np.log2(8.0 * norm))) if norm > 0.125 else 0
    A = M / 2.0**squarings
    term = total = np.eye(M.shape[0])
    for k in range(1, 31):
        term = (term @ A) / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def _bump(t: np.ndarray, centre: float) -> np.ndarray:
    return _raw_profile((t - centre) / HALFWIDTH) / (HALFWIDTH * _profile_mass())


def field(J: np.ndarray, C1: np.ndarray, C2: np.ndarray, eps: float):
    """The batched co-rotating field: a 1-D array of times in, (n, d, d) out."""
    JC1, JC2 = J @ C1, J @ C2

    def values(t):
        t = np.asarray(t, dtype=float)[:, None, None]
        return -eps * (_bump(t, -CENTRE) * JC1 + _bump(t, CENTRE) * JC2)

    return values


def scattering_matrix(J: np.ndarray, C1: np.ndarray, C2: np.ndarray, eps: float) -> np.ndarray:
    return taylor_exponential(-eps * J @ C2) @ taylor_exponential(-eps * J @ C1)
