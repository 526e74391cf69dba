"""The integrable model family, its explicit homoclinic loop, and the
localized perturbation of the centre-block variational equation.

The model couples l centre oscillators with n_hyp hyperbolic pairs:

    H(q, p, x, y) = sum_i w_i/2 (q_i^2 + p_i^2)
                    + y_1^2/2 - x_1^2/2 + x_1^3/3
                    + sum_{i>=2} a_i/2 (y_i^2 - x_i^2)

with the state ordered (q_1..q_l, p_1..p_l, x_1..x_h, y_1..y_h) and the
symplectic form block-diagonal over the centre and hyperbolic factors.  The
vector field convention is fixed globally as X_H = J grad H.  The leading
hyperbolic pair carries the homoclinic loop

    x_1(t) = (3/2) sech^2(t/2),   y_1(t) = xdot_1(t),

which solves xddot = x - x^2 and decays like e^{-|t|}.

A perturbation of strength eps with symmetric form C acts on the centre
block through a smooth bump of unit mass supported strictly inside
[-T_support, T_support].  In the frame co-rotating with the free centre
flow the perturbed variational equation reads wdot = -eps xi(t) J C w, so
the scattering matrix of the perturbed problem is exactly exp(-eps J C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flow
from .majorize import CenterBlock
from .matkit import _positive_tol, _square, center_diagonal, max_abs, standard_symplectic_form, symplectic_rotation

_PROFILE_MASS_NODES = 8192
_profile_mass_cache: dict[int, float] = {}


def _sech(u):
    a = np.abs(u)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def _raw_profile(s, order: int):
    """exp(-1/(1 - s^2)^order) inside |s| < 1, zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    if np.any(inside):
        w = 1.0 - s[inside] ** 2
        out[inside] = np.exp(-1.0 / w ** order)
    return out


def _profile_mass(order: int) -> float:
    # integral of the raw profile over [-1, 1]; composite Simpson is far
    # beyond the 1e-10 contract because every derivative vanishes at +-1
    if order not in _profile_mass_cache:
        n = _PROFILE_MASS_NODES
        s = np.linspace(-1.0, 1.0, n + 1)
        f = _raw_profile(s, order)
        h = 2.0 / n
        mass = (h / 3.0) * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2]))
        _profile_mass_cache[order] = float(mass)
    return _profile_mass_cache[order]


@dataclass(eq=False)
class ModelSpec:
    """Parameters of the model family and its centre-block perturbation.

    omega: l distinct nonzero centre frequencies with distinct squares.
    alpha: rates of the extra hyperbolic pairs (the leading pair has rate 1).
    eps, C: strength and symmetric form of the localized perturbation.
    mu: splitting parameter; the scattering pipelines require mu = 0.
    T_support: half-width of the bump support; bump_order sharpens its decay.
    """

    l: int
    n_hyp: int
    omega: np.ndarray
    alpha: np.ndarray = ()
    eps: float = 0.0
    C: np.ndarray | None = None
    mu: np.ndarray | None = None
    T_support: float = 4.0
    bump_order: int = 1
    bump_scale: float = field(init=False, repr=False)

    def __post_init__(self):
        self.l = int(self.l)
        self.n_hyp = int(self.n_hyp)
        if self.l < 1:
            raise ValueError("need at least one centre pair")
        if self.n_hyp < 1:
            raise ValueError("need at least one hyperbolic pair")
        w = CenterBlock(self.omega).omega
        if w.shape != (self.l,):
            raise ValueError(f"omega must be a vector of length {self.l}")
        self.omega = w
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float)) if np.size(self.alpha) else np.zeros(0)
        if a.shape != (self.n_hyp - 1,) or not np.all(np.isfinite(a)):
            raise ValueError(f"alpha must be a finite vector of length {self.n_hyp - 1}")
        if np.any(a == 0.0):
            raise ValueError("hyperbolic rates must be nonzero")
        self.alpha = a
        self.eps = float(self.eps)
        if not np.isfinite(self.eps):
            raise ValueError("eps must be finite")
        if self.C is None:
            self.C = np.zeros((2 * self.l, 2 * self.l))
        self.C = _square(self.C, "C")
        if self.C.shape != (2 * self.l, 2 * self.l):
            raise ValueError(f"C must be {2 * self.l} x {2 * self.l}")
        if max_abs(self.C - self.C.T) > 1e-12 * max(1.0, max_abs(self.C)):
            raise ValueError("C must be symmetric")
        if self.mu is None:
            self.mu = np.zeros(2 * self.l)
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if self.mu.shape != (2 * self.l,) or not np.all(np.isfinite(self.mu)):
            raise ValueError(f"mu must be a finite vector of length {2 * self.l}")
        self.T_support = _positive_tol(self.T_support, "T_support")
        self.bump_order = int(self.bump_order)
        if self.bump_order < 1:
            raise ValueError("bump_order must be a positive integer")
        self.bump_scale = 1.0 / (self.T_support * _profile_mass(self.bump_order))

    @property
    def dim(self) -> int:
        return 2 * (self.l + self.n_hyp)

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "n_hyp": self.n_hyp,
            "omega": [float(x) for x in self.omega],
            "alpha": [float(x) for x in self.alpha],
            "eps": self.eps,
            "C": [float(x) for x in self.C.ravel()],
            "mu": [float(x) for x in self.mu],
            "T_support": self.T_support,
            "bump_order": self.bump_order,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelSpec":
        try:
            l = int(doc["l"])
            n_hyp = int(doc["n_hyp"])
            omega = doc["omega"]
            alpha = doc.get("alpha", [])
        except KeyError as missing:
            raise ValueError(f"model document is missing field {missing}") from None
        C = doc.get("C")
        if C is not None:
            C = np.asarray(C, dtype=float)
            if C.ndim == 1:
                if C.size != (2 * l) ** 2:
                    raise ValueError(f"C must hold {(2 * l) ** 2} row-major entries, got {C.size}")
                C = C.reshape(2 * l, 2 * l)
        return cls(
            l=l,
            n_hyp=n_hyp,
            omega=omega,
            alpha=alpha,
            eps=float(doc.get("eps", 0.0)),
            C=C,
            mu=doc.get("mu"),
            T_support=float(doc.get("T_support", 4.0)),
            bump_order=int(doc.get("bump_order", 1)),
        )


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """Evaluators for the integrable model built from a ModelSpec."""

    spec: ModelSpec

    @property
    def dim(self) -> int:
        return self.spec.dim

    def _split(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"state must have dimension {self.dim}, got {u.shape}")
        l, h = self.spec.l, self.spec.n_hyp
        return u[:l], u[l : 2 * l], u[2 * l : 2 * l + h], u[2 * l + h :]

    def hamiltonian(self, u) -> float:
        q, p, x, y = self._split(u)
        w, a = self.spec.omega, self.spec.alpha
        hc = 0.5 * float(np.sum(w * (q * q + p * p)))
        hs = 0.5 * y[0] ** 2 - 0.5 * x[0] ** 2 + x[0] ** 3 / 3.0
        if a.size:
            hs += 0.5 * float(np.sum(a * (y[1:] * y[1:] - x[1:] * x[1:])))
        return hc + hs

    def gradient(self, u) -> np.ndarray:
        q, p, x, y = self._split(u)
        w, a = self.spec.omega, self.spec.alpha
        dx = np.concatenate([[-x[0] + x[0] ** 2], -a * x[1:]])
        dy = np.concatenate([[y[0]], a * y[1:]])
        return np.concatenate([w * q, w * p, dx, dy])

    def hessian(self, u) -> np.ndarray:
        _, _, x, _ = self._split(u)
        w, a = self.spec.omega, self.spec.alpha
        dxx = np.concatenate([[-1.0 + 2.0 * x[0]], -a])
        dyy = np.concatenate([[1.0], a])
        return np.diag(np.concatenate([w, w, dxx, dyy]))

    def vector_field(self, u) -> np.ndarray:
        """X_H(u) = J grad H(u) with the block-diagonal symplectic form."""
        q, p, x, y = self._split(u)
        w, a = self.spec.omega, self.spec.alpha
        xdot = np.concatenate([[y[0]], a * y[1:]])
        ydot = np.concatenate([[x[0] - x[0] ** 2], a * x[1:]])
        return np.concatenate([w * p, -w * q, xdot, ydot])

    @property
    def symplectic_form(self) -> np.ndarray:
        l, h = self.spec.l, self.spec.n_hyp
        J = np.zeros((self.dim, self.dim))
        J[: 2 * l, : 2 * l] = standard_symplectic_form(l)
        J[2 * l :, 2 * l :] = standard_symplectic_form(h)
        return J

    @property
    def reversal(self) -> np.ndarray:
        """The involution (q, p, x, y) -> (q, -p, x, -y); antisymplectic,
        preserves H, and maps the homoclinic loop to its time reverse."""
        l, h = self.spec.l, self.spec.n_hyp
        signs = np.concatenate([np.ones(l), -np.ones(l), np.ones(h), -np.ones(h)])
        return np.diag(signs)


def homoclinic_orbit(spec: ModelSpec, t):
    """State on the homoclinic loop: x_1 = (3/2) sech^2(t/2), y_1 = xdot_1,
    all other coordinates zero.  Accepts a scalar or a vector of times."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    u = 0.5 * tt
    g = 1.5 * _sech(u) ** 2
    out = np.zeros((tt.size, spec.dim))
    out[:, 2 * spec.l] = g
    out[:, 2 * spec.l + spec.n_hyp] = -g * np.tanh(u)
    return out[0] if np.ndim(t) == 0 else out


def bump(spec: ModelSpec, t):
    """Smooth unit-mass bump supported strictly inside [-T_support, T_support]."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    s = tt / spec.T_support
    out = spec.bump_scale * _raw_profile(s, spec.bump_order)
    return float(out[0]) if np.ndim(t) == 0 else out


def center_variational_field(spec: ModelSpec, t):
    """Centre-block coefficient of the variational equation in the lab frame:

        A(t) = J D - eps xi(t) Psi(t) J C Psi(-t),   D = diag(omega, omega).

    In the co-rotating frame w = Psi(-t) z this is exactly
    wdot = -eps xi(t) J C w, so the perturbation acts as if the free centre
    motion were frozen.  Outside the bump support A(t) equals J D exactly.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    l = spec.l
    J = standard_symplectic_form(l)
    base = J @ center_diagonal(spec.omega)
    out = np.tile(base, (tt.size, 1, 1))
    if spec.eps != 0.0:
        xi = np.atleast_1d(bump(spec, tt))
        hot = xi != 0.0
        if np.any(hot):
            JC = J @ spec.C
            rot = symplectic_rotation(np.multiply.outer(tt[hot], spec.omega))
            out[hot] -= spec.eps * xi[hot, None, None] * (rot @ JC @ rot.swapaxes(1, 2))
    return out[0] if np.ndim(t) == 0 else out


def scattering_problem(spec: ModelSpec) -> flow.ScatteringProblem:
    """Centre-block scattering problem of the (possibly perturbed) model."""
    if max_abs(spec.mu) != 0.0:
        raise ValueError("scattering requires mu = 0: the homoclinic loop persists only without splitting")
    return flow.ScatteringProblem(
        field=lambda t: center_variational_field(spec, t),
        support_halfwidth=spec.T_support,
        D_center=center_diagonal(spec.omega),
    )
