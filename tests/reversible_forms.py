"""Random symmetric forms B whose exp(-eps J B) is reversible, for the reversible-case tests."""

import numpy as np


def random_reversible_form(l: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric form commuting with the centre reversal: block
    diagonal over the +-1 eigenspaces, which makes exp(-eps J B) reversible."""
    def sym(n):
        raw = rng.standard_normal((n, n))
        return 0.5 * (raw + raw.T)

    B = np.zeros((2 * l, 2 * l))
    B[:l, :l] = sym(l)
    B[l:, l:] = sym(l)
    return B
