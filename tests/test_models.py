import numpy as np
import pytest

from homscat.matkit import max_abs, standard_symplectic_form, symplectic_rotation
from homscat.models import (
    HamiltonianSystem,
    ModelSpec,
    bump,
    center_variational_field,
    homoclinic_orbit,
    scattering_problem,
)


def two_center_spec(**overrides):
    base = dict(l=2, n_hyp=2, omega=[1.0, 2.0], alpha=[0.8], T_support=3.0)
    base.update(overrides)
    return ModelSpec(**base)


def analytic_orbit_derivative(spec, t):
    """Time derivative of the homoclinic loop, differentiated by hand:
    xdot_1 = -(3/2) sech^2(t/2) tanh(t/2),
    ydot_1 = -(3/4) (sech^4(t/2) - 2 sech^2(t/2) tanh^2(t/2))."""
    u = 0.5 * t
    sech = 1.0 / np.cosh(u)
    th = np.tanh(u)
    out = np.zeros(spec.dim)
    out[2 * spec.l] = -1.5 * sech**2 * th
    out[2 * spec.l + spec.n_hyp] = -0.75 * (sech**4 - 2.0 * sech**2 * th**2)
    return out


def adaptive_simpson(f, a, b, tol, depth=30):
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, xm, f0, fl, f1, left, tol / 2.0, depth - 1) + recurse(
            xm, x2, f1, fr, f2, right, tol / 2.0, depth - 1
        )

    xm = 0.5 * (a + b)
    f0, f1, f2 = f(a), f(xm), f(b)
    return recurse(a, b, f0, f1, f2, simpson(a, b, f0, f1, f2), tol, depth)


class TestModelSpec:
    def test_rejects_duplicate_omega(self):
        with pytest.raises(ValueError):
            ModelSpec(l=2, n_hyp=1, omega=[1.0, 1.0])

    def test_rejects_equal_squares(self):
        with pytest.raises(ValueError):
            ModelSpec(l=2, n_hyp=1, omega=[1.0, -1.0])

    def test_rejects_asymmetric_C(self):
        C = np.zeros((2, 2))
        C[0, 1] = 1.0
        with pytest.raises(ValueError):
            ModelSpec(l=1, n_hyp=1, omega=[1.0], C=C)

    def test_rejects_wrong_alpha_length(self):
        with pytest.raises(ValueError):
            ModelSpec(l=1, n_hyp=2, omega=[1.0], alpha=[])

    def test_rejects_nonpositive_support(self):
        with pytest.raises(ValueError):
            ModelSpec(l=1, n_hyp=1, omega=[1.0], T_support=0.0)

    def test_rejects_infinite_support(self):
        with pytest.raises(ValueError, match="T_support must be a finite positive number, got inf"):
            ModelSpec(l=1, n_hyp=1, omega=[1.0], T_support=np.inf)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        C = rng.standard_normal((4, 4))
        C = 0.5 * (C + C.T)
        spec = two_center_spec(eps=0.05, C=C)
        doc = spec.to_json_dict()
        assert sorted(doc) == [
            "C",
            "T_support",
            "alpha",
            "bump_order",
            "eps",
            "l",
            "mu",
            "n_hyp",
            "omega",
        ]
        # C is stored row-major
        assert doc["C"] == [float(x) for x in C.ravel()]
        back = ModelSpec.from_json_dict(doc)
        assert max_abs(back.C - spec.C) == 0.0
        assert back.omega.tolist() == spec.omega.tolist()
        assert back.to_json_dict() == doc

    def test_from_json_missing_field(self):
        with pytest.raises(ValueError):
            ModelSpec.from_json_dict({"l": 1, "omega": [1.0]})


class TestIntegrableSystem:
    def test_equilibrium_at_origin(self):
        system = HamiltonianSystem(two_center_spec())
        zero = np.zeros(system.dim)
        assert system.hamiltonian(zero) == 0.0
        assert max_abs(system.gradient(zero)) == 0.0

    def test_hessian_center_block(self):
        spec = two_center_spec()
        system = HamiltonianSystem(spec)
        H2 = system.hessian(np.zeros(system.dim))
        assert np.array_equal(H2[:4, :4], np.diag([1.0, 2.0, 1.0, 2.0]))
        assert np.array_equal(H2[4:, 4:], np.diag([-1.0, -0.8, 1.0, 0.8]))

    def test_gradient_matches_finite_differences(self):
        spec = two_center_spec()
        system = HamiltonianSystem(spec)
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(5):
            u = rng.standard_normal(system.dim)
            u /= max(1.0, np.linalg.norm(u))
            grad_fd = np.zeros(system.dim)
            for k in range(system.dim):
                e = np.zeros(system.dim)
                e[k] = h
                grad_fd[k] = (system.hamiltonian(u + e) - system.hamiltonian(u - e)) / (2.0 * h)
            assert max_abs(grad_fd - system.gradient(u)) <= 1e-6

    def test_energy_vanishes_on_homoclinic(self):
        spec = two_center_spec()
        system = HamiltonianSystem(spec)
        for t in np.linspace(-30.0, 30.0, 121):
            assert abs(system.hamiltonian(homoclinic_orbit(spec, t))) <= 1e-10

    def test_vector_field_is_J_grad(self):
        spec = two_center_spec()
        system = HamiltonianSystem(spec)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(system.dim)
        assert max_abs(system.vector_field(u) - system.symplectic_form @ system.gradient(u)) <= 1e-14


class TestHomoclinicOrbit:
    def test_at_zero(self):
        spec = two_center_spec()
        state = homoclinic_orbit(spec, 0.0)
        assert state[2 * spec.l] == pytest.approx(1.5)
        assert state[2 * spec.l + spec.n_hyp] == 0.0
        assert max_abs(state[: 2 * spec.l]) == 0.0

    def test_decay_far_out(self):
        spec = two_center_spec()
        assert max_abs(homoclinic_orbit(spec, 30.0)) <= 1e-11
        assert max_abs(homoclinic_orbit(spec, -30.0)) <= 1e-11

    def test_solves_equations(self):
        spec = two_center_spec()
        system = HamiltonianSystem(spec)
        worst = 0.0
        for t in np.linspace(-20.0, 20.0, 401):
            residual = analytic_orbit_derivative(spec, t) - system.vector_field(homoclinic_orbit(spec, t))
            worst = max(worst, max_abs(residual))
        assert worst <= 1e-9

    def test_decay_envelope(self):
        spec = two_center_spec()
        for t in np.linspace(2.0, 30.0, 57):
            assert max_abs(homoclinic_orbit(spec, t)) <= 6.0 * np.exp(-t)
            assert max_abs(homoclinic_orbit(spec, -t)) <= 6.0 * np.exp(-t)

    def test_reversal_symmetry(self):
        spec = two_center_spec()
        system = HamiltonianSystem(spec)
        R = system.reversal
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = rng.standard_normal(system.dim)
            assert system.hamiltonian(R @ u) == system.hamiltonian(u)
        for t in (-3.0, -0.5, 0.7, 4.0):
            assert max_abs(R @ homoclinic_orbit(spec, t) - homoclinic_orbit(spec, -t)) <= 1e-15
        J = system.symplectic_form
        assert max_abs(R @ J + J @ R) == 0.0
        assert np.array_equal(R, R.T)
        assert np.array_equal(R @ R, np.eye(system.dim))


class TestBump:
    def test_support(self):
        spec = two_center_spec()
        T = spec.T_support
        assert bump(spec, T) == 0.0
        assert bump(spec, -T) == 0.0
        assert bump(spec, T + 0.3) == 0.0
        assert bump(spec, -5 * T) == 0.0

    def test_unit_mass(self):
        spec = two_center_spec()
        T = spec.T_support
        integral = adaptive_simpson(lambda t: bump(spec, t), -T, T, 1e-13)
        assert abs(integral - 1.0) <= 1e-10

    def test_unit_mass_higher_order(self):
        spec = two_center_spec(bump_order=2)
        T = spec.T_support
        integral = adaptive_simpson(lambda t: bump(spec, t), -T, T, 1e-13)
        assert abs(integral - 1.0) <= 1e-10

    def test_unimodal(self):
        spec = two_center_spec()
        assert bump(spec, 0.0) > bump(spec, spec.T_support / 2) > 0.0


class TestCenterField:
    def test_unperturbed_is_constant(self):
        spec = two_center_spec(eps=0.0)
        base = standard_symplectic_form(2) @ np.diag([1.0, 2.0, 1.0, 2.0])
        for t in (-2.0, 0.0, 1.3, 10.0):
            assert np.array_equal(center_variational_field(spec, t), base)

    def test_exact_outside_support(self):
        rng = np.random.default_rng(3)
        C = rng.standard_normal((4, 4))
        spec = two_center_spec(eps=0.2, C=0.5 * (C + C.T))
        base = standard_symplectic_form(2) @ np.diag([1.0, 2.0, 1.0, 2.0])
        for t in (3.0, -3.0, 3.0001, -7.5):
            assert np.array_equal(center_variational_field(spec, t), base)

    def test_value_at_zero(self):
        # l=1, omega=1, C=I: A(0) = J - eps xi(0) J since Psi(0) = I
        eps = 0.1
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=eps, C=np.eye(2), T_support=3.0)
        J = standard_symplectic_form(1)
        expected = J - eps * bump(spec, 0.0) * J
        assert max_abs(center_variational_field(spec, 0.0) - expected) <= 1e-15

    def test_corotating_reduction(self):
        # Psi(-t) (A(t) Psi(t) - d/dt Psi(t)) must equal -eps xi(t) J C
        rng = np.random.default_rng(8)
        C = rng.standard_normal((4, 4))
        C = 0.5 * (C + C.T)
        spec = two_center_spec(eps=0.07, C=C)
        J = standard_symplectic_form(2)
        D = np.diag([1.0, 2.0, 1.0, 2.0])
        for t in (-1.4, 0.3, 2.1):
            A = center_variational_field(spec, t)
            psi = symplectic_rotation(t * spec.omega)
            psi_back = symplectic_rotation(-t * spec.omega)
            lhs = psi_back @ (A @ psi - (J @ D) @ psi)
            rhs = -spec.eps * bump(spec, t) * (J @ C)
            assert max_abs(lhs - rhs) <= 1e-13

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(5)
        C = rng.standard_normal((4, 4))
        spec = two_center_spec(eps=0.1, C=0.5 * (C + C.T))
        ts = np.array([-2.5, -0.1, 0.0, 1.9, 3.5])
        batch = center_variational_field(spec, ts)
        for k, t in enumerate(ts):
            assert np.array_equal(batch[k], center_variational_field(spec, float(t)))


def hyperbolic_block(spec, t):
    """Hyperbolic block of the variational coefficient J hessian(H) along the loop."""
    system = HamiltonianSystem(spec)
    A = system.symplectic_form @ system.hessian(homoclinic_orbit(spec, t))
    return A[2 * spec.l :, 2 * spec.l :]


class TestHyperbolicField:
    def test_asymptotic_block(self):
        spec = two_center_spec()
        A = hyperbolic_block(spec, 40.0)
        lead = A[np.ix_([0, spec.n_hyp], [0, spec.n_hyp])]
        assert max_abs(lead - np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-12
        # eigenvalues of [[0,1],[1,0]] are +-1
        assert sorted(np.linalg.eigvals(lead).real) == pytest.approx([-1.0, 1.0])

    def test_block_at_zero(self):
        spec = two_center_spec()
        A = hyperbolic_block(spec, 0.0)
        lead = A[np.ix_([0, spec.n_hyp], [0, spec.n_hyp])]
        assert max_abs(lead - np.array([[0.0, 1.0], [-2.0, 0.0]])) <= 1e-12

    def test_extra_pair_constant(self):
        spec = two_center_spec(alpha=[0.8])
        for t in (-5.0, 0.0, 2.0):
            A = hyperbolic_block(spec, t)
            sub = A[np.ix_([1, 1 + spec.n_hyp], [1, 1 + spec.n_hyp])]
            assert np.array_equal(sub, np.array([[0.0, 0.8], [0.8, 0.0]]))

    def test_orbit_derivative_solves_leading_pair(self):
        spec = two_center_spec()
        h = spec.n_hyp
        dt = 1e-5
        worst = 0.0
        for t in np.linspace(-20.0, 20.0, 101):
            v = analytic_orbit_derivative(spec, t)[[2 * spec.l, 2 * spec.l + h]]
            vdot = (
                analytic_orbit_derivative(spec, t + dt)[[2 * spec.l, 2 * spec.l + h]]
                - analytic_orbit_derivative(spec, t - dt)[[2 * spec.l, 2 * spec.l + h]]
            ) / (2.0 * dt)
            A = hyperbolic_block(spec, t)
            lead = A[np.ix_([0, h], [0, h])]
            worst = max(worst, max_abs(vdot - lead @ v))
        assert worst <= 1e-8


class TestScatteringProblemBuilder:
    def test_requires_zero_mu(self):
        spec = two_center_spec(mu=[0.1, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            scattering_problem(spec)

    def test_builds_consistent_problem(self):
        spec = two_center_spec(eps=0.1, C=np.eye(4))
        problem = scattering_problem(spec)
        assert problem.dim == 4
        assert problem.support_halfwidth == spec.T_support
