"""The integrable model family, its explicit homoclinic loop, and the
localized perturbation of the centre-block variational equation.

The model couples l centre oscillators with one saddle, the hyperbolic pair
(x, y):

    H(q, p, x, y) = sum_i w_i/2 (q_i^2 + p_i^2) + y^2/2 - x^2/2 + x^3/3

with the state ordered (q_1..q_l, p_1..p_l, x, y), of dimension 2l + 2, and
the symplectic form block-diagonal over the centre and the saddle.  The
vector field convention is fixed globally as X_H = J grad H.  The saddle
carries the homoclinic loop

    x(t) = (3/2) sech^2(t/2),   y(t) = xdot(t),

which solves xddot = x - x^2 and decays like e^{-|t|}.

A perturbation of strength eps with symmetric form C acts on the centre
block through a smooth bump of unit mass supported strictly inside
[-T_support, T_support].  In the frame co-rotating with the free centre
flow the perturbed variational equation reads wdot = -eps xi(t) J C w, so
the scattering matrix of the perturbed problem is exactly exp(-eps J C):
the coefficient is a scalar function times one constant matrix, so it
commutes with itself at all times, and the propagator is the exponential
of its integral, -eps J C, as xi has unit mass.  Any smooth bump of unit
mass gives the same sigma, so a spec has no field that shapes the bump.
A ModelSpec keeps the CenterBlock that validates omega, and its scattering
problem carries that same block.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cache

import numpy as np

from . import flow
from .majorize import _require_bracket_hypothesis
from .matkit import (
    CenterBlock,
    _as_float,
    _center_block,
    _count,
    _float_array,
    _integer,
    _positive_number,
    _require_symmetric,
    max_abs,
    standard_symplectic_form,
)

# exp(-x) is 0.0 in double precision for x >= 746
_PROFILE_FLOOR = 1.0 / 746.0


def _sech(u):
    a = np.abs(u)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def _raw_profile(s):
    """exp(-1/(1 - s^2)) inside |s| < 1, zero outside."""
    p = 1.0 - np.minimum(np.abs(np.asarray(s, dtype=float)), 1.0) ** 2  # s**2 may overflow beyond |s| = 1
    # where p <= _PROFILE_FLOOR, |s| >= 1 included, the exponent is at most -746 and exp gives 0.0
    return np.exp(-1.0 / np.maximum(p, 0.5 * _PROFILE_FLOOR))


@cache
def _profile_mass() -> float:
    """Integral of the raw profile over [-1, 1] by the trapezoid rule on 8192 intervals, (2 / n) sum(f)
    as the profile is 0 at both ends; 1024 and 2048 intervals give the same bits."""
    n = 8192
    return float((2.0 / n) * np.sum(_raw_profile(np.linspace(-1.0, 1.0, n + 1))))


def _require_fit(l: int, T_support: float) -> None:
    """ValueError naming l and T_support if the integrator's cap refuses the solve over [-T_support, T_support]."""
    try:
        flow._pass_steps(2 * T_support, 2 * l)
    except ArithmeticError as exc:
        raise ValueError(f"l = {l} and T_support = {T_support:g} do not fit the integrator: {exc}") from None


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Parameters of the model family and its centre-block perturbation.

    l: the number of centre pairs, at least 1; with T_support, it must fit the integrator's cap.
    n_hyp: the number of hyperbolic pairs, which must be 1: the one saddle (x, y).
    omega: l distinct nonzero centre frequencies with distinct squares.
    eps, C: strength and symmetric form (2l x 2l, or its row-major entries) of the perturbation.
    T_support: half-width of the bump support.

    The constructor parses every field, for Python callers and documents alike;
    a checked spec is frozen.  There is no splitting parameter: the model keeps
    its homoclinic loop, so the splitting the paper calls mu is zero.
    """

    l: int
    n_hyp: int
    omega: np.ndarray
    eps: float = 0.0
    C: np.ndarray | None = None
    T_support: float = 4.0
    center: CenterBlock = field(init=False, repr=False)

    def __post_init__(self):
        l = _count(self.l, "l")
        T_support = _positive_number(self.T_support, "T_support")
        _require_fit(l, T_support)  # before omega is read or the default C built
        n_hyp = _integer(self.n_hyp, "n_hyp")
        if n_hyp != 1:
            raise ValueError(f"n_hyp must be 1, got {n_hyp}")
        center = _require_bracket_hypothesis(_center_block(self.omega, l))
        eps = _as_float(self.eps)
        if not np.isfinite(eps):
            raise ValueError(f"eps must be a finite number, got {self.eps!r}")
        C = np.zeros((2 * l, 2 * l)) if self.C is None else _float_array(self.C, "C")
        if C.ndim == 1 and C.size == 4 * l * l:
            C = C.reshape(2 * l, 2 * l)
        if C.shape != (2 * l, 2 * l):
            raise ValueError(f"C must be {2 * l} x {2 * l} or its {4 * l * l} row-major entries, got shape {C.shape}")
        _require_symmetric(C, "C", tol=1e-12)  # C itself is kept, not its symmetrization
        parsed = dict(l=l, n_hyp=n_hyp, omega=center.omega, eps=eps, C=C, T_support=T_support, center=center)
        for name, value in parsed.items():
            object.__setattr__(self, name, value)  # frozen: each field is set once, here

    @property
    def dim(self) -> int:
        return 2 * self.l + 2

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "n_hyp": self.n_hyp,
            "omega": [float(x) for x in self.omega],
            "eps": self.eps,
            "C": [float(x) for x in self.C.ravel()],
            "T_support": self.T_support,
        }

    @classmethod
    def from_json_dict(cls, doc) -> "ModelSpec":
        """The spec of a to_json_dict document; absent optional fields take
        their defaults, unknown fields are rejected, and the constructor
        parses the rest."""
        if not isinstance(doc, dict):
            raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
        known = [f.name for f in fields(cls) if f.init]
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ValueError(f"model document has unknown fields {unknown}; the fields are {known}")
        for f in fields(cls):
            if f.init and f.default is MISSING and f.name not in doc:
                raise ValueError(f"model document is missing field '{f.name}'")
        return cls(**doc)


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """Evaluators for the integrable model built from a ModelSpec."""

    spec: ModelSpec

    @property
    def dim(self) -> int:
        return self.spec.dim

    def _split(self, u):
        u = _float_array(u, "state")
        if u.shape != (self.dim,):
            raise ValueError(f"state must have dimension {self.dim}, got {u.shape}")
        l = self.spec.l
        return u[:l], u[l : 2 * l], u[2 * l], u[2 * l + 1]

    def hamiltonian(self, u) -> float:
        q, p, x, y = self._split(u)
        w = self.spec.omega
        return 0.5 * float(np.sum(w * (q * q + p * p))) + 0.5 * y**2 - 0.5 * x**2 + x**3 / 3.0

    def gradient(self, u) -> np.ndarray:
        q, p, x, y = self._split(u)
        w = self.spec.omega
        return np.concatenate([w * q, w * p, [-x + x**2, y]])

    def hessian(self, u) -> np.ndarray:
        _, _, x, _ = self._split(u)
        w = self.spec.omega
        return np.diag(np.concatenate([w, w, [-1.0 + 2.0 * x, 1.0]]))

    def vector_field(self, u) -> np.ndarray:
        """X_H(u) = J grad H(u) with the block-diagonal symplectic form."""
        q, p, x, y = self._split(u)
        w = self.spec.omega
        return np.concatenate([w * p, -w * q, [y, x - x**2]])

    @property
    def symplectic_form(self) -> np.ndarray:
        l = self.spec.l
        J = np.zeros((self.dim, self.dim))
        J[: 2 * l, : 2 * l] = standard_symplectic_form(l)
        J[2 * l :, 2 * l :] = standard_symplectic_form(1)
        return J

    @property
    def reversal(self) -> np.ndarray:
        """The involution (q, p, x, y) -> (q, -p, x, -y); antisymplectic,
        preserves H, and maps the homoclinic loop to its time reverse."""
        l = self.spec.l
        return np.diag(np.concatenate([np.ones(l), -np.ones(l), [1.0, -1.0]]))


def homoclinic_orbit(spec: ModelSpec, t):
    """State on the homoclinic loop: x = (3/2) sech^2(t/2), y = xdot, the
    centre at rest.  Accepts a scalar or a vector of times, unparsed: an
    infinite time is valid."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    u = 0.5 * tt
    g = 1.5 * _sech(u) ** 2
    out = np.zeros((tt.size, spec.dim))
    out[:, 2 * spec.l] = g
    out[:, 2 * spec.l + 1] = -g * np.tanh(u)
    return out[0] if np.ndim(t) == 0 else out


def bump(spec: ModelSpec, t):
    """Smooth unit-mass bump supported strictly inside [-T_support, T_support];
    the times are not parsed, since an infinite time is valid."""
    out = _bump_values(np.atleast_1d(np.asarray(t, dtype=float)), spec.T_support)
    return float(out[0]) if np.ndim(t) == 0 else out


def _bump_values(t: np.ndarray, T_support: float) -> np.ndarray:
    """The bump at a 1-D float array of times, a new array: the raw profile scaled in place."""
    out = _raw_profile(t / T_support)
    out *= 1.0 / (T_support * _profile_mass())
    return out


def scattering_problem(spec: ModelSpec) -> flow.ScatteringProblem:
    """Centre-block scattering problem of the (possibly perturbed) model along
    its unsplit homoclinic loop, with the co-rotating field -eps xi(t) J C.
    A field whose peak p = eps xi(0) max|J C| gives 2l p^2 beyond the float
    range raises ArithmeticError naming eps and T_support, before any
    integration."""
    JC = spec.center.J @ spec.C
    # Python floats overflow to inf without a warning.  The peak bounds every
    # field entry, so 2l peak^2 bounds every entry of the RK4 stage products
    # of two field samples, which the integrator forms before scaling by h.
    peak = abs(spec.eps) * bump(spec, 0.0) * max_abs(JC)
    if not np.isfinite(JC.shape[0] * peak * peak):
        raise ArithmeticError(
            f"the perturbation eps xi(t) J C overflows the float range in the integrator's products "
            f"of two field samples: eps = {spec.eps:g} and T_support = {spec.T_support:g} give "
            f"bump peak {bump(spec, 0.0):.3g}, with max|C| = {max_abs(spec.C):g}"
        )
    def field(t):  # (-eps * bump(spec, t))[:, None, None] * J C, scaled in place
        xi = _bump_values(t, spec.T_support)
        xi *= -spec.eps
        return xi[:, None, None] * JC

    return flow.ScatteringProblem(
        field=field,
        support_halfwidth=spec.T_support,
        center=spec.center,
    )
