"""Lab-frame centre variational coefficient: an independent reference for
the co-rotating field that models.scattering_problem states.

Integrating this field directly and co-rotating the ends with the free
centre flow must reproduce the scattering matrix, which checks the frame
change the library makes implicitly.
"""

import numpy as np

from homscat.matkit import standard_symplectic_form, symplectic_rotation
from homscat.models import bump


def center_variational_field(spec, t):
    """Centre-block coefficient of the variational equation in the lab frame:

        A(t) = J D - eps xi(t) Psi(t) J C Psi(-t),   D = diag(omega, omega).

    In the co-rotating frame w = Psi(-t) z this is exactly
    wdot = -eps xi(t) J C w, the field that scattering_problem states, so the
    perturbation acts as if the free centre motion were frozen.  Outside the
    bump support A(t) equals J D exactly.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    l = spec.l
    J = standard_symplectic_form(l)
    base = J @ np.diag(np.concatenate([spec.omega, spec.omega]))
    out = np.tile(base, (tt.size, 1, 1))
    if spec.eps != 0.0:
        xi = np.atleast_1d(bump(spec, tt))
        hot = xi != 0.0
        if np.any(hot):
            JC = J @ spec.C
            rot = symplectic_rotation(np.multiply.outer(tt[hot], spec.omega))
            out[hot] -= spec.eps * xi[hot, None, None] * (rot @ JC @ rot.swapaxes(1, 2))
    return out[0] if np.ndim(t) == 0 else out
