import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homscat.flow import (
    ScatteringConvergenceError,
    ScatteringProblem,
    center_linear_flow,
    fundamental_solution,
    scattering_matrix,
)
from homscat.matkit import (
    center_diagonal,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
    symplectic_rotation,
)
from homscat.models import ModelSpec, center_variational_field, scattering_problem


def plain_rk4(field, t0, t1, steps, dim):
    """Straightforward per-step RK4 loop, kept independent of the library's
    batched implementation for cross-checking."""
    h = (t1 - t0) / steps
    Phi = np.eye(dim)
    t = t0
    for _ in range(steps):
        k1 = field(t) @ Phi
        k2 = field(t + 0.5 * h) @ (Phi + 0.5 * h * k1)
        k3 = field(t + 0.5 * h) @ (Phi + 0.5 * h * k2)
        k4 = field(t + h) @ (Phi + h * k3)
        Phi = Phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return Phi


def constant(A):
    """Batched field that is A at every time."""
    return lambda t: np.broadcast_to(A, np.shape(t) + A.shape)


def entrywise(t, rows):
    """Stack a nested list of entries, each a scalar or an array shaped like
    t, into an (n, d, d) array for a 1-D t (or (d, d) for a scalar t)."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.stack([np.broadcast_to(x, t.shape) for x in row], -1) for row in rows], -2)


def perturbed_spec(seed, l=2, eps=0.05, T_support=3.0):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((2 * l, 2 * l))
    C = 0.5 * (C + C.T)
    omega = [1.0] if l == 1 else [1.0, 2.0] if l == 2 else [1.0, np.sqrt(2.0), np.pi]
    return ModelSpec(l=l, n_hyp=1, omega=omega, eps=eps, C=C, T_support=T_support)


class TestFundamentalSolution:
    def test_zero_field(self):
        Phi = fundamental_solution(constant(np.zeros((3, 3))), 0.0, 2.0)
        assert max_abs(Phi - np.eye(3)) <= 1e-12

    def test_constant_rotation(self):
        J = standard_symplectic_form(1)
        Phi = fundamental_solution(constant(J), 0.0, np.pi / 2)
        assert max_abs(Phi - np.array([[0.0, 1.0], [-1.0, 0.0]])) <= 1e-9

    def test_constant_field_matches_exponential(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        Phi = fundamental_solution(constant(A), 0.0, 1.0)
        assert max_abs(Phi - matrix_exponential(A)) <= 1e-8

    def test_agrees_with_plain_loop(self):
        field = lambda t: entrywise(t, [[0.0, 1.0], [-np.cos(t), -0.1]])
        Phi = fundamental_solution(field, -1.0, 2.0)
        ref = plain_rk4(field, -1.0, 2.0, 6000, 2)
        assert max_abs(Phi - ref) <= 1e-9

    def test_group_property(self):
        field = lambda t: entrywise(t, [[0.0, 1.0 + 0.3 * np.sin(t)], [-1.0, 0.0]])
        full = fundamental_solution(field, 0.0, 2.0)
        composed = fundamental_solution(field, 1.0, 2.0) @ fundamental_solution(field, 0.0, 1.0)
        assert max_abs(full - composed) <= 1e-8

    def test_empty_interval(self):
        assert np.array_equal(fundamental_solution(constant(np.eye(2)), 1.0, 1.0), np.eye(2))

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            fundamental_solution(constant(np.eye(2)), 1.0, 0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_tolerance_that_is_not_finite_positive(self, tol):
        # a NaN budget never compares as met, so refinement ran to the memory cap
        with pytest.raises(ValueError, match="finite positive"):
            fundamental_solution(constant(standard_symplectic_form(1)), 0.0, 1.0, tol)

    def test_field_exceptions_propagate(self):
        # a field that fails on the batch contract is an error, not a cue to
        # re-run it one time at a time
        def scalar_only(t):
            if np.ndim(t) != 0:
                raise TypeError("scalar times only")
            return np.eye(2)

        with pytest.raises(TypeError, match="scalar times only"):
            fundamental_solution(scalar_only, 0.0, 1.0)

    def test_rejects_unbatched_shape(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            fundamental_solution(lambda t: np.eye(2), 0.0, 1.0)
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            ScatteringProblem(
                field=lambda t: np.eye(2),
                support_halfwidth=1.0,
                D_center=np.eye(2),
            )

    def test_refinement_cap_bounds_memory(self):
        # a jump at a node keeps RK4 first order, so step doubling never meets
        # the tolerance; the cap on field samples stops it at n = 32768 for d = 8
        B = np.random.default_rng(5).standard_normal((8, 8))

        def jump(t):
            return np.where(np.asarray(t)[:, None, None] >= 2.5, B, 0.0)

        with pytest.raises(ArithmeticError, match="n = 32768 steps of a 8 x 8 field"):
            fundamental_solution(jump, 2.0, 3.0)

    def test_overflow_fails_at_once(self):
        # an overflowing pass used to refine up to the memory cap (n = 524288
        # for d = 2) and then blame the refinement
        with pytest.raises(ArithmeticError, match="overflow.* n = 16 steps"):
            fundamental_solution(constant(1e300 * standard_symplectic_form(1)), 0.0, 1.0)

    def test_rejects_nonfinite_field(self):
        def bad(t):
            A = np.tile(np.eye(2), (np.size(t), 1, 1))
            A[np.abs(t - 0.5) < 0.2] = np.nan
            return A

        with pytest.raises(ValueError):
            fundamental_solution(bad, 0.0, 1.0)


class TestCenterLinearFlow:
    def test_identity_at_zero(self):
        D = center_diagonal([1.0, 2.0])
        assert np.array_equal(center_linear_flow(D, 0.0), np.eye(4))

    def test_quarter_turn(self):
        D = center_diagonal([1.0])
        assert max_abs(center_linear_flow(D, np.pi / 2) - np.array([[0.0, 1.0], [-1.0, 0.0]])) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    def test_group_law(self, s, t):
        D = center_diagonal([1.0, np.sqrt(2.0)])
        lhs = center_linear_flow(D, s) @ center_linear_flow(D, t)
        assert max_abs(lhs - center_linear_flow(D, s + t)) <= 1e-12

    def test_matches_rotation(self):
        D = center_diagonal([1.0, 2.0])
        assert np.array_equal(center_linear_flow(D, 0.7), symplectic_rotation([0.7, 1.4]))


class TestScatteringMatrix:
    def test_integrable_identity(self):
        spec = ModelSpec(l=2, n_hyp=1, omega=[1.0, 2.0], eps=0.0, T_support=3.0)
        result = scattering_matrix(scattering_problem(spec))
        assert max_abs(result.sigma - np.eye(4)) <= 1e-8
        assert result.residual <= 1e-8
        assert result.symplectic_defect <= 1e-8

    def test_perturbed_matches_exponential(self):
        spec = perturbed_spec(seed=21, l=1, eps=0.05)
        result = scattering_matrix(scattering_problem(spec), tol=1e-8)
        J = standard_symplectic_form(1)
        expected = matrix_exponential(-spec.eps * J @ spec.C)
        assert max_abs(result.sigma - expected) <= 1e-7

    def test_stabilized_residual(self):
        spec = perturbed_spec(seed=22, l=2, eps=0.05)
        result = scattering_matrix(scattering_problem(spec))
        assert result.residual <= 1e-8
        assert result.T_used <= spec.T_support + 2.0

    def test_reversible_model(self):
        # C commuting with the centre reversal: sigma R sigma = R
        rng = np.random.default_rng(30)
        l = 2
        C = np.zeros((4, 4))
        C[:2, :2] = 0.5 * (lambda A: A + A.T)(rng.standard_normal((2, 2)))
        C[2:, 2:] = 0.5 * (lambda A: A + A.T)(rng.standard_normal((2, 2)))
        spec = ModelSpec(l=l, n_hyp=1, omega=[1.0, 2.0], eps=0.08, C=C, T_support=3.0)
        result = scattering_matrix(scattering_problem(spec))
        R = np.diag([1.0, 1.0, -1.0, -1.0])
        assert max_abs(result.sigma @ R @ result.sigma - R) <= 1e-7

    def test_convergence_failure_reports_trace(self):
        # declared support is wrong: the field keeps drifting past it
        D = center_diagonal([1.0])
        J = standard_symplectic_form(1)
        base = J @ D

        def drifting(t):
            return base + 0.05 * np.exp(-0.01 * t * t)[:, None, None] * np.array([[1.0, 0.0], [0.0, -1.0]])

        problem = ScatteringProblem(field=drifting, support_halfwidth=0.5, D_center=D)
        with pytest.raises(ScatteringConvergenceError) as info:
            scattering_matrix(problem, tol=1e-10)
        assert len(info.value.trace) >= 1
        assert all(residual > 1e-10 for _, residual in info.value.trace)

    def test_rejects_infinite_support(self):
        D = center_diagonal([1.0])
        with pytest.raises(ValueError, match="support_halfwidth must be a finite positive number, got inf"):
            ScatteringProblem(field=constant(standard_symplectic_form(1) @ D), support_halfwidth=np.inf, D_center=D)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_tolerance_that_is_not_finite_positive(self, tol):
        # support 1 for a field bumped out to |t| = 2: a NaN tolerance let the
        # witness-slab residual of 0.11 pass
        problem = scattering_problem(ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.5, C=np.eye(2), T_support=2.0))
        problem = ScatteringProblem(field=problem.field, support_halfwidth=1.0, D_center=problem.D_center)
        with pytest.raises(ScatteringConvergenceError):
            scattering_matrix(problem)
        with pytest.raises(ValueError, match="finite positive"):
            scattering_matrix(problem, tol=tol)

    def test_perturbation_inside_declared_support_is_not_truncated(self):
        # the field equals J D on |t| < 2.5 and is bumped on 2.5 < |t| < 3; a
        # stop rule that accepts two agreeing iterates before T reaches the
        # declared support returns sigma = I
        D = center_diagonal([1.0])
        base = standard_symplectic_form(1) @ D
        kick = np.array([[1.0, 0.0], [0.0, -1.0]])

        def shell(t):
            s = (np.abs(np.asarray(t, dtype=float)) - 2.75) / 0.25
            inside = np.abs(s) < 1.0
            g = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - s * s, 1.0)), 0.0)
            return base + 3.0 * g[..., None, None] * kick

        problem = ScatteringProblem(field=shell, support_halfwidth=3.5, D_center=D)
        result = scattering_matrix(problem)
        T = 4.5
        Phi = plain_rk4(shell, -T, T, 9000, 2)
        reference = center_linear_flow(D, -T) @ Phi @ center_linear_flow(D, -T)
        assert max_abs(result.sigma - reference) <= 1e-7
        assert max_abs(result.sigma - np.eye(2)) > 0.5


class TestStructurePreservation:
    def test_symplecticity_transport(self):
        spec = perturbed_spec(seed=40, l=2, eps=0.1)
        field = lambda t: center_variational_field(spec, t)
        J = standard_symplectic_form(2)
        T = spec.T_support + 2.0
        Phi = np.eye(4)
        t = -T
        while t < T - 1e-9:
            Phi = fundamental_solution(field, t, t + 1.0) @ Phi
            t += 1.0
            assert max_abs(Phi.T @ J @ Phi - J) <= 1e-7

    def test_boundary_difference_identity(self):
        # Gram boundary difference of co-rotated basis solutions reproduces
        # sigma^T D sigma - D entrywise
        spec = perturbed_spec(seed=41, l=2, eps=0.07)
        D = center_diagonal(spec.omega)
        result = scattering_matrix(scattering_problem(spec))
        H = result.sigma.T @ D @ result.sigma - D
        T = spec.T_support + 1.0
        field = lambda t: center_variational_field(spec, float(t))
        Phi = plain_rk4(field, -T, T, 4096, 4)
        ends = center_linear_flow(D, -T) @ Phi @ center_linear_flow(D, -T)
        gram_difference = ends.T @ D @ ends - D
        assert max_abs(gram_difference - H) <= 1e-7

