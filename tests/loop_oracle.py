"""The exact Hessian of the homoclinic loop's own field at l = 1: a reference
for flow.scattering_matrix on a field that does not commute with itself and
has no compact support.

With H = omega (q^2 + p^2) / 2 + (eps / 2) x c q^2 along the loop
x(t) = (3/2) sech^2(t/2), the centre obeys q'' + [omega^2 + (3/2) omega eps c
sech^2(t/2)] q = 0.  With s = t/2 that is the Poschl-Teller well
q'' + [4 omega^2 + lambda (lambda + 1) sech^2 s] q = 0, lambda (lambda + 1) =
6 omega eps c, at wave number 2 omega, whose reflection coefficient is

    rho = |sin pi lambda| / sqrt(sinh^2(2 pi omega) + sin^2(pi lambda))

(Landau and Lifshitz, Quantum Mechanics, section 25), for 6 omega eps c >
-1/4.  The singular values of sigma are ((1 + rho) / (1 - rho))^(+-1/2), so
H = sigma^T D sigma - D = omega (sigma^T sigma - I) has the eigenvalues
+2 omega rho / (1 - rho) and -2 omega rho / (1 + rho).  At an integer
lambda = n, rho = 0, and H vanishes to all orders at eps_n = n (n + 1) /
(6 omega c) although C != 0.
"""

import numpy as np

from homscat.flow import ScatteringProblem
from homscat.matkit import CenterBlock, standard_symplectic_form, symplectic_rotation
from homscat.models import ModelSpec, homoclinic_orbit

SUPPORT = 40.0  # x(40) = 2.5e-17, so the slabs beyond it add nothing to sigma


def hessian_eigenvalues(omega: float, eps: float, c: float) -> np.ndarray:
    """The two eigenvalues of H, descending, from the closed form."""
    lam = 0.5 * (np.sqrt(1.0 + 24.0 * omega * eps * c) - 1.0)
    s = abs(np.sin(np.pi * lam))
    rho = s / np.sqrt(np.sinh(2.0 * np.pi * omega) ** 2 + s * s)
    return np.array([2.0 * omega * rho / (1.0 - rho), -2.0 * omega * rho / (1.0 + rho)])


def reflectionless_eps(n: int, omega: float, c: float) -> float:
    """The coupling at which lambda = n, so that rho and H vanish."""
    return n * (n + 1) / (6.0 * omega * c)


def loop_problem(omega: float, eps: float, c: float) -> ScatteringProblem:
    """The l = 1 co-rotating field eps x(t) J Psi(t)^T diag(c, 0) Psi(t), Psi(t) = exp(t J D),
    on the declared support [-40, 40]."""
    spec = ModelSpec(l=1, n_hyp=1, omega=[omega], eps=eps, C=np.diag([c, 0.0]), T_support=SUPPORT)
    J, C = standard_symplectic_form(1), spec.C

    def field(t):
        x = homoclinic_orbit(spec, t)[:, 2]
        Psi = symplectic_rotation(omega * t[:, None])
        return (eps * x)[:, None, None] * (J @ np.swapaxes(Psi, 1, 2) @ C @ Psi)

    return ScatteringProblem(field=field, support_halfwidth=SUPPORT, center=CenterBlock([omega]))
