import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homscat.classify import hessian_from_scattering, reversible_signature
from homscat.flow import (
    _RETAINED_BYTES,
    DEFAULT_INTEGRATOR_TOL,
    ScatteringConvergenceError,
    ScatteringProblem,
    _field_values,
    _pass_steps,
    _slot,
    fundamental_solution,
    scattering_matrix,
)
from homscat.matkit import (
    CenterBlock,
    _float_array,
    inertia,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
    symplectic_rotation,
)
from homscat.models import ModelSpec, scattering_problem
from lab_frame_oracle import center_variational_field
import loop_oracle
import rk4_oracle
import two_bump_oracle


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


def recording(field, batches):
    """field, appending a copy of every batch of times it is asked for to batches."""

    def sampled(t):
        batches.append(np.array(t, dtype=float))
        return field(t)

    return sampled


def perturbed_spec(seed, l=2, eps=0.05, T_support=3.0):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((2 * l, 2 * l))
    C = 0.5 * (C + C.T)
    omega = [1.0] if l == 1 else [1.0, 2.0] if l == 2 else [1.0, np.sqrt(2.0), np.pi]
    return ModelSpec(l=l, n_hyp=1, omega=omega, eps=eps, C=C, T_support=T_support)


class TestFundamentalSolution:
    def test_zero_field(self):
        Phi = fundamental_solution(constant(np.zeros((3, 3))), 0.0, 2.0, 3)
        assert max_abs(Phi - np.eye(3)) <= 1e-12

    def test_constant_rotation(self):
        J = standard_symplectic_form(1)
        Phi = fundamental_solution(constant(J), 0.0, np.pi / 2, 2)
        assert max_abs(Phi - np.array([[0.0, 1.0], [-1.0, 0.0]])) <= 1e-9

    def test_constant_field_matches_exponential(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        Phi = fundamental_solution(constant(A), 0.0, 1.0, 4)
        assert max_abs(Phi - matrix_exponential(A)) <= 1e-8

    def test_agrees_with_plain_loop(self):
        field = lambda t: entrywise(t, [[0.0, 1.0], [-np.cos(t), -0.1]])
        Phi = fundamental_solution(field, -1.0, 2.0, 2)
        ref = plain_rk4(field, -1.0, 2.0, 6000, 2)
        assert max_abs(Phi - ref) <= 1e-9

    def test_group_property(self):
        field = lambda t: entrywise(t, [[0.0, 1.0 + 0.3 * np.sin(t)], [-1.0, 0.0]])
        full = fundamental_solution(field, 0.0, 2.0, 2)
        composed = fundamental_solution(field, 1.0, 2.0, 2) @ fundamental_solution(field, 0.0, 1.0, 2)
        assert max_abs(full - composed) <= 1e-8

    def test_empty_interval(self):
        # the identity of the caller's d, with no field call
        def broken(t):
            raise RuntimeError("field called")

        assert np.array_equal(fundamental_solution(broken, 1.0, 1.0, 3), np.eye(3))

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            fundamental_solution(constant(np.eye(2)), 1.0, 0.0, 2)

    @pytest.mark.parametrize("t0", [None, "0", True, np.nan])
    def test_rejects_endpoint_that_is_not_a_finite_number(self, t0):
        # float() raised TypeError on None and accepted "0" and True
        with pytest.raises(ValueError, match="integration endpoints must be finite numbers"):
            fundamental_solution(constant(np.eye(2)), t0, 1.0, 2)

    def test_field_exceptions_propagate(self):
        # a field that fails on the batch contract is an error, not a cue to
        # re-run it one time at a time
        def scalar_only(t):
            if np.ndim(t) != 0:
                raise TypeError("scalar times only")
            return np.eye(2)

        with pytest.raises(TypeError, match="scalar times only"):
            fundamental_solution(scalar_only, 0.0, 1.0, 2)

    def test_rejects_unbatched_shape(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            fundamental_solution(lambda t: np.eye(2), 0.0, 1.0, 2)
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            scattering_matrix(ScatteringProblem(field=lambda t: np.eye(2), support_halfwidth=1.0, center=CenterBlock([1.0])))

    def test_refinement_cap_bounds_memory(self):
        # a jump at a node keeps RK4 first order, so step doubling never meets
        # the tolerance; the cap on field samples stops it at n = 32768 for d = 8
        B = np.random.default_rng(5).standard_normal((8, 8))

        def jump(t):
            return np.where(np.asarray(t)[:, None, None] >= 2.5, B, 0.0)

        with pytest.raises(ArithmeticError, match="n = 32768 steps of a 8 x 8 field"):
            fundamental_solution(jump, 2.0, 3.0, 8)

    @pytest.mark.parametrize("T", [1e308, 1e200])
    def test_span_beyond_the_cap_fails_before_sampling(self, T):
        # a span of inf crashed converting the step count to an int, and one of
        # 2e200 blamed a step refinement that never ran
        batches = []
        with pytest.raises(ArithmeticError, match=re.escape(f"span of {2 * T:g} starts at n = ")) as info:
            fundamental_solution(recording(constant(np.eye(2)), batches), -T, T, 2)
        assert batches == [] and "cap of 4194304" in str(info.value) and "refinement" not in str(info.value)

    def test_first_pass_beyond_the_cap_is_not_blamed_on_refinement(self):
        # 8 steps per unit time start at n = 262144, whose 524289 nodes of an
        # 8 x 8 field are 33554496 entries; the field is not called, where a
        # probe at t0 used to sample it once to learn d
        batches = []
        match = r"span of 20000 starts at n = 262144 RK4 steps.* 33554496 entries of the 8 x 8 field are beyond the cap"
        with pytest.raises(ArithmeticError, match=match) as info:
            fundamental_solution(recording(constant(np.eye(8)), batches), 0.0, 2e4, 8)
        assert batches == [] and "refinement" not in str(info.value)

    def test_first_pass_whose_double_is_beyond_the_cap_makes_no_field_call(self):
        # a span of 8 starts at n = 64, whose 129 nodes of a 180 x 180 field fit the cap,
        # but the 257 of the n = 128 pass it must be compared with do not: the first pass
        # was sampled and multiplied, and then the tolerance was blamed
        batches = []
        match = re.escape(
            "a span of 8 starts at n = 64 RK4 steps and is compared with n = 128, whose (2n + 1) d^2 = "
            "8326800 entries of the 180 x 180 field are beyond the cap of 4194304"
        )
        with pytest.raises(ArithmeticError, match=f"^{match}$"):
            fundamental_solution(recording(constant(np.eye(180)), batches), -4.0, 4.0, 180)
        assert batches == []
        # 257 * 126^2 = 4080132 entries fit
        assert _pass_steps(8.0, 126) == 64

    @pytest.mark.parametrize("span, steps", [(1e307, "8.9884656743115795e+307"), (2e307, "inf")])
    def test_span_whose_step_count_overflows_warns_nothing(self, span, steps):
        # 2.0 ** 1024, and 2n + 1 at n = 2.0 ** 1023, raised "overflow
        # encountered", an error under -W error, before the cap refused the span
        with pytest.raises(ArithmeticError, match=re.escape(f"span of {span:g} starts at n = {steps} RK4 steps")):
            fundamental_solution(constant(np.eye(2)), 0.0, span, 2)

    @pytest.mark.parametrize("d", [0, -1, 1.5, True, None])
    def test_rejects_dimension_that_is_not_a_positive_integer(self, d):
        with pytest.raises(ValueError, match=r"^d must be"):
            fundamental_solution(constant(np.eye(2)), 0.0, 1.0, d)

    def test_each_node_is_sampled_once(self):
        # each doubling samples only its new midpoints: 2 n + 1 samples in all
        # for a final step count n, where resampling every grid took the sum
        # of (2 n + 1) over the passes, and a probe at t0 one more
        field = lambda t: entrywise(t, [[0.0, 1.0], [-np.cos(t), -0.1]])
        batches = []
        fundamental_solution(recording(field, batches), -1.0, 2.0, 2)
        n = 32 * 2 ** (len(batches) - 1)
        nodes = np.concatenate(batches)
        assert batches[0].size == 2 * 32 + 1 and len(batches) >= 3
        assert nodes.size == 2 * n + 1
        assert np.array_equal(np.sort(nodes), -1.0 + 3.0 * np.arange(2 * n + 1) / (2 * n))

    def test_overflow_fails_at_once(self):
        # an overflowing pass used to refine up to the memory cap (n = 524288
        # for d = 2) and then blame the refinement
        with pytest.raises(ArithmeticError, match="overflow.* n = 16 steps"):
            fundamental_solution(constant(1e300 * standard_symplectic_form(1)), 0.0, 1.0, 2)

    def test_rejects_nonfinite_field(self):
        def bad(t):
            A = np.tile(np.eye(2), (np.size(t), 1, 1))
            A[np.abs(t - 0.5) < 0.2] = np.nan
            return A

        with pytest.raises(ValueError):
            fundamental_solution(bad, 0.0, 1.0, 2)


class TestFieldValues:
    """_field_values parses what the field returns with _float_array: it accepts and refuses
    what the parser does, with the parser's message, and takes a finite float64 array as it is."""

    KINDS = {
        "list": lambda v: v.tolist(),
        "int array": lambda v: v.astype(int),
        "float32 array": lambda v: v.astype(np.float32),
        "object array": lambda v: v.astype(object),
        "float64 array": lambda v: v.copy(),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_accepts_what_the_parser_accepts(self, kind):
        values = self.KINDS[kind](np.arange(12.0).reshape(3, 2, 2))
        got = _field_values(lambda t: values, np.arange(3.0), 2)
        assert got.dtype == np.float64 and np.array_equal(got, _float_array(values, "field"))

    @pytest.mark.parametrize("kind", ["list", "float32 array", "object array", "float64 array"])
    @pytest.mark.parametrize("bad, name", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_refuses_what_the_parser_refuses(self, kind, bad, name):
        values = np.arange(12.0).reshape(3, 2, 2)
        values[1, 0, 1] = bad
        values = self.KINDS[kind](values)
        with pytest.raises(ValueError) as parsed:
            _float_array(values, "field")
        assert str(parsed.value) == f"field has a non-finite entry {name} at index 1, 0, 1"
        with pytest.raises(ValueError) as sampled:
            _field_values(lambda t: values, np.arange(3.0), 2)
        assert str(sampled.value) == str(parsed.value)

    @pytest.mark.parametrize("signs", [(1.0, 1.0), (1.0, -1.0)])
    def test_entries_near_the_float_limit_pass_without_a_warning(self, signs):
        # a sum of them overflows, to inf or to inf - inf = nan, and the parser accepts them
        values = np.empty((4, 2, 2))
        values[:2], values[2:] = signs[0] * 1.7e308, signs[1] * 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _field_values(lambda t: values, np.arange(4.0), 2)
        assert got is values


class TestOracleAgreement:
    """fundamental_solution against the fresh-temporary, resample-every-pass
    construction in tests/rk4_oracle.py: the same sums in the same order on
    the same samples, so equal bit for bit."""

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("T", [3.0, 5.0])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_model_problems(self, l, T, eps):
        rng = np.random.default_rng(1000 * l + int(10 * T) + int(100 * eps))
        C = rng.standard_normal((2 * l, 2 * l))
        spec = ModelSpec(l=l, n_hyp=1, omega=np.arange(1.0, l + 1.0), eps=eps, C=C + C.T, T_support=T)
        field = scattering_problem(spec).field
        assert np.array_equal(fundamental_solution(field, -T, T, 2 * l), rk4_oracle.fundamental_solution(field, -T, T))

    def test_non_commuting_field(self):
        spec = perturbed_spec(seed=50, l=3, eps=0.1)
        field = lambda t: center_variational_field(spec, t)
        T = spec.T_support + 1.0
        assert np.array_equal(fundamental_solution(field, -T, T, 6), rk4_oracle.fundamental_solution(field, -T, T))

    def test_solve_of_several_passes(self):
        field = lambda t: entrywise(t, [[0.0, 1.0], [-np.cos(t), -0.1]])
        batches = []
        expected = rk4_oracle.fundamental_solution(recording(field, batches), -1.0, 2.0)
        assert batches[0].size == 1 and len(batches) - 1 >= 3  # the oracle's probe at t0, then its passes
        assert np.array_equal(fundamental_solution(field, -1.0, 2.0, 2), expected)

    def test_refinement_cap_names_the_same_step_count(self):
        B = np.random.default_rng(5).standard_normal((8, 8))

        def jump(t):
            return np.where(np.asarray(t)[:, None, None] >= 2.5, B, 0.0)

        with pytest.raises(ArithmeticError) as expected:
            rk4_oracle.fundamental_solution(jump, 2.0, 3.0)
        with pytest.raises(ArithmeticError) as got:
            fundamental_solution(jump, 2.0, 3.0, 8)
        assert "n = 32768 steps" in str(got.value) and str(got.value) == str(expected.value)


def model_field(l, T, seed=0):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((2 * l, 2 * l))
    return scattering_problem(ModelSpec(l=l, n_hyp=1, omega=np.arange(1.0, l + 1.0), eps=0.05, C=C + C.T, T_support=T)).field


def oracle_solve(field, T, d):
    """fundamental_solution over [-T, T], asserted equal to tests/rk4_oracle.py's bit for bit."""
    got = fundamental_solution(field, -T, T, d)
    assert np.array_equal(got, rk4_oracle.fundamental_solution(field, -T, T))
    return got


class TestWorkspace:
    """fundamental_solution keeps its stages and grids in a workspace that the module's one slot
    retains between solves.  Nested, concurrent and failed solves, and solves of other sizes, must
    leave every result bit for bit the oracle's, and no result may share the retained memory."""

    def test_field_that_integrates(self):
        # the inner solve is smaller than the outer one, so a shared workspace would hold it in the
        # outer's buffers and overwrite the grid that the outer's field call returns to
        rotation = constant(standard_symplectic_form(1))
        inner_calls = []

        def outer(t):
            inner_calls.append(fundamental_solution(rotation, 0.0, 0.1, 2)[0, 0])
            return inner_calls[-1] * model_field(3, 3.0)(t)

        oracle_solve(outer, 3.0, 6)
        assert len(inner_calls) >= 3 and len(set(inner_calls)) == 1  # one inner solve per field call, all alike

    def test_concurrent_solves_of_different_sizes(self):
        problems = [(model_field(2, 5.0, seed=1), 5.0, 4), (model_field(4, 3.0, seed=2), 3.0, 8)]
        expected = [rk4_oracle.fundamental_solution(field, -T, T) for field, T, _ in problems]
        start, results = threading.Barrier(2), [[], []]

        def solve(k):
            field, T, d = problems[k]
            start.wait()
            results[k].extend(fundamental_solution(field, -T, T, d) for _ in range(20))

        threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, want in zip(results, expected):
            assert len(got) == 20 and all(np.array_equal(sigma, want) for sigma in got)

    def test_solve_after_a_field_raised_on_refinement(self):
        calls = []

        def failing(t):
            calls.append(t.size)
            if len(calls) == 2:
                raise RuntimeError("refinement sample failed")
            return model_field(4, 3.0)(t)

        with pytest.raises(RuntimeError, match="refinement sample failed"):
            fundamental_solution(failing, -3.0, 3.0, 8)
        assert calls == [129, 128] and len(_slot) == 1
        oracle_solve(model_field(4, 3.0, seed=3), 3.0, 8)

    def test_solve_after_an_overflow(self):
        with pytest.raises(ArithmeticError, match="overflow"):
            fundamental_solution(constant(1e300 * standard_symplectic_form(4)), -3.0, 3.0, 8)
        assert len(_slot) == 1
        oracle_solve(model_field(4, 3.0, seed=4), 3.0, 8)

    def test_large_small_large(self):
        first = oracle_solve(model_field(4, 5.0), 5.0, 8)
        oracle_solve(model_field(1, 3.0), 3.0, 2)
        assert np.array_equal(oracle_solve(model_field(4, 5.0), 5.0, 8), first)

    def test_results_own_their_memory(self):
        first = oracle_solve(model_field(4, 5.0), 5.0, 8)
        kept = first.copy()
        assert len(_slot) == 1 and not any(np.shares_memory(first, b) for b in _slot[0])
        second = oracle_solve(model_field(4, 3.0, seed=5), 3.0, 8)
        assert not any(np.shares_memory(second, b) for b in _slot[0])
        assert np.array_equal(first, kept) and not np.array_equal(first, second)

    def test_slot_keeps_at_most_the_bound(self):
        # l = 4 at n = 256 is kept; l = 8 at n = 256 outgrows 1 MiB and is dropped, and the solve
        # after it allocates again
        oracle_solve(model_field(4, 5.0), 5.0, 8)
        assert len(_slot) == 1 and sum(b.nbytes for b in _slot[0]) <= _RETAINED_BYTES
        oracle_solve(model_field(8, 5.0), 5.0, 16)
        assert not _slot
        oracle_solve(model_field(2, 3.0), 3.0, 4)
        assert len(_slot) == 1


class TestLoopOracle:
    """scattering_matrix and the Hessian on the loop's own field at l = 1 against the
    Poschl-Teller closed form, tests/loop_oracle.py: solves at n >= 1024 of a field that
    does not commute with itself."""

    @pytest.mark.parametrize(
        "omega, eps",
        [(omega, eps) for omega in (0.5, 1.0, 2.0) for eps in (0.05, 0.3)]
        # the exact H is +-1.1e-10 at omega = 4 and +-3.1e-13 at omega = 5, below RK4's symplectic
        # defect of about 1e-10, which makes H negative definite, as no symplectic sigma can
        + [
            pytest.param(
                omega, 0.01, marks=pytest.mark.xfail(strict=True, reason="RK4's defect swamps H (ROADMAP item 19)")
            )
            for omega in (4.0, 5.0)
        ],
    )
    def test_hessian_eigenvalues(self, omega, eps):
        problem = loop_oracle.loop_problem(omega, eps, 1.0)
        H = hessian_from_scattering(scattering_matrix(problem).sigma, problem.D_center)
        exact = loop_oracle.hessian_eigenvalues(omega, eps, 1.0)
        assert np.allclose(np.linalg.eigvalsh(H)[::-1], exact, rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_reflectionless_couplings_are_degenerate(self, n):
        eps_n = loop_oracle.reflectionless_eps(n, 1.0, 1.0)
        for factor, expected in [(1.0, (0, 0, 2)), (1.0 - 1e-3, (1, 1, 0)), (1.0 + 1e-3, (1, 1, 0))]:
            problem = loop_oracle.loop_problem(1.0, factor * eps_n, 1.0)
            H = hessian_from_scattering(scattering_matrix(problem).sigma, problem.D_center)
            assert inertia(H).inertia == expected

    @pytest.mark.parametrize("eps", [0.05, 0.3])
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_reversible_signature(self, omega, eps):
        # C = diag(c, 0) commutes with R = diag(1, -1) and the loop is even in t, so sigma R sigma = R
        problem = loop_oracle.loop_problem(omega, eps, 1.0)
        rev, report = reversible_signature(scattering_matrix(problem).sigma, problem.center)
        assert rev.passed and report.inertia == (1, 1, 0) and not report.degenerate

    @pytest.mark.parametrize("n", [1, 2])
    def test_reversible_signature_is_degenerate_at_reflectionless_couplings(self, n):
        eps_n = loop_oracle.reflectionless_eps(n, 1.0, 1.0)
        for factor, expected in [(1.0, (0, 0, 2)), (1.0 - 1e-3, (1, 1, 0)), (1.0 + 1e-3, (1, 1, 0))]:
            problem = loop_oracle.loop_problem(1.0, factor * eps_n, 1.0)
            rev, report = reversible_signature(scattering_matrix(problem).sigma, problem.center)
            assert rev.passed and report.inertia == expected and report.degenerate is (factor == 1.0)


class TestTwoBumpOracle:
    """scattering_matrix against the exact sigma = exp(-eps J C_2) exp(-eps J C_1)
    of two disjoint unit-mass bumps, tests/two_bump_oracle.py."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_sigma_is_within_the_integrator_contract(self, l, eps, seed):
        rng = np.random.default_rng(100 * l + seed)
        C1, C2 = (R + R.T for R in rng.standard_normal((2, 2 * l, 2 * l)))
        C1, C2 = C1 / np.linalg.norm(C1, 2), C2 / np.linalg.norm(C2, 2)
        center = CenterBlock(np.arange(1.0, l + 1.0))
        field = two_bump_oracle.field(center.J, C1, C2, eps)
        problem = ScatteringProblem(field=field, support_halfwidth=two_bump_oracle.SUPPORT, center=center)
        result = scattering_matrix(problem)
        exact = two_bump_oracle.scattering_matrix(center.J, C1, C2, eps)
        bound = DEFAULT_INTEGRATOR_TOL * 2 * two_bump_oracle.SUPPORT
        assert result.residual == 0.0 and max_abs(result.sigma - exact) <= bound
        # the order of the two factors shows, far above the bound
        assert max_abs(exact - two_bump_oracle.scattering_matrix(center.J, C2, C1, eps)) > 1e4 * bound


class TestCenterLinearFlow:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    def test_group_law(self, s, t):
        # the free centre flow Psi(t) is the symplectic rotation by t * omega
        omega = np.array([1.0, np.sqrt(2.0)])
        lhs = symplectic_rotation(s * omega) @ symplectic_rotation(t * omega)
        assert max_abs(lhs - symplectic_rotation((s + t) * omega)) <= 1e-12


class TestScatteringMatrix:
    def test_integrable_identity(self):
        spec = ModelSpec(l=2, n_hyp=1, omega=[1.0, 2.0], eps=0.0, T_support=3.0)
        result = scattering_matrix(scattering_problem(spec))
        assert max_abs(result.sigma - np.eye(4)) <= 1e-8
        assert result.residual <= 1e-8
        assert result.symplectic_defect <= 1e-8

    def test_perturbed_matches_exponential(self):
        spec = perturbed_spec(seed=21, l=1, eps=0.05)
        result = scattering_matrix(scattering_problem(spec))
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

    @pytest.mark.parametrize("T_support, eps", [(3e-16, 0.05), (1e-300, 1e-200)])
    def test_tiny_support_scatters_exactly(self, T_support, eps):
        # at 3e-16 the left slab's inner end, -T_s - 1 + 1, rounded into the
        # support, and the residual came out inf
        C = np.array([[1.0, 0.5], [0.5, -1.0]])
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=eps, C=C, T_support=T_support)
        result = scattering_matrix(scattering_problem(spec))
        assert result.residual == 0.0
        expected = matrix_exponential(-eps * standard_symplectic_form(1) @ C)
        assert max_abs(result.sigma - expected) <= 1e-10

    def test_slabs_end_exactly_at_the_support(self):
        batches = []
        problem = scattering_problem(perturbed_spec(seed=3, l=1, T_support=3e-16))
        problem = ScatteringProblem(
            field=recording(problem.field, batches), support_halfwidth=3e-16, center=problem.center
        )
        scattering_matrix(problem)
        slabs = batches[0]
        assert slabs.size == 130
        assert np.max(slabs[slabs < 0.0]) == -3e-16 and np.min(slabs[slabs > 0.0]) == 3e-16

    def test_convergence_failure_reports_trace(self):
        # declared support is wrong: the field keeps drifting past it
        def drifting(t):
            return 0.05 * np.exp(-0.01 * t * t)[:, None, None] * np.array([[1.0, 0.0], [0.0, -1.0]])

        problem = ScatteringProblem(field=drifting, support_halfwidth=0.5, center=CenterBlock([1.0]))
        with pytest.raises(ScatteringConvergenceError) as info:
            scattering_matrix(problem)
        assert info.value.T_used == 1.5
        assert info.value.residual > 1e-8

    def test_rejects_infinite_support(self):
        problem = ScatteringProblem(field=constant(np.zeros((2, 2))), support_halfwidth=np.inf, center=CenterBlock([1.0]))
        with pytest.raises(ValueError, match="support_halfwidth must be a finite positive number, got inf"):
            scattering_matrix(problem)

    @pytest.mark.parametrize("support", [np.inf, -1.0, "3"])
    def test_rejects_support_assigned_after_construction(self, support):
        # the problem was checked only when built: inf and -1.0 were blamed on
        # the integration endpoints, and "3" raised TypeError from unary minus
        problem = ScatteringProblem(field=constant(np.zeros((2, 2))), support_halfwidth=1.0, center=CenterBlock([1.0]))
        problem.support_halfwidth = support
        with pytest.raises(ValueError, match=re.escape(f"support_halfwidth must be a finite positive number, got {support!r}")):
            scattering_matrix(problem)

    def test_centre_beyond_the_cap_fails_before_any_field_call(self):
        # a first pass of 33 nodes of a 2000 x 2000 field is beyond the cap;
        # the 130 slab samples of that field, 3.87 GiB, were taken first
        def broken(t):
            raise RuntimeError("field called")

        problem = ScatteringProblem(field=broken, support_halfwidth=1.0, center=CenterBlock(np.arange(1.0, 1001.0)))
        with pytest.raises(ArithmeticError, match=r"starts at n = 16 RK4 steps, .* of the 2000 x 2000 field are beyond the cap"):
            scattering_matrix(problem)

    def test_scatter_op_calls_the_field_per_pass_only(self):
        # the slabs, then the first pass and each doubling: no probe at t0
        batches = []
        problem = scattering_problem(perturbed_spec(seed=26, l=3))
        scattering_matrix(ScatteringProblem(field=recording(problem.field, batches), support_halfwidth=3.0, center=problem.center))
        assert [b.size for b in batches] == [130, 129, 128, 256]

    def test_construction_calls_nothing(self):
        def broken(t):
            raise RuntimeError("field called")

        problem = ScatteringProblem(field=broken, support_halfwidth=1.0, center=CenterBlock([1.0]))
        with pytest.raises(RuntimeError, match="field called"):
            scattering_matrix(problem)

    @pytest.mark.parametrize("assigned_later", [False, True])
    def test_rejects_wrong_dimension_field_before_integrating(self, assigned_later):
        # assigned after construction, a 4 x 4 field on an l = 1 problem was
        # integrated before the slabs checked its shape
        batches = []
        wide = recording(constant(np.zeros((4, 4))), batches)
        first = constant(np.zeros((2, 2))) if assigned_later else wide
        problem = ScatteringProblem(field=first, support_halfwidth=1.0, center=CenterBlock([1.0]))
        problem.field = wide
        with pytest.raises(ValueError, match=re.escape("field returned shape (130, 4, 4) for 130 times, expected (130, 2, 2)")):
            scattering_matrix(problem)
        assert [b.size for b in batches] == [130]

    def test_perturbation_inside_declared_support_is_not_truncated(self):
        # the lab-frame field equals J D on |t| < 2.5 and is bumped on
        # 2.5 < |t| < 3; a stop rule that accepts two agreeing iterates before
        # T reaches the declared support returns sigma = I
        center = CenterBlock([1.0])
        base = standard_symplectic_form(1) @ center.D
        kick = np.array([[1.0, 0.0], [0.0, -1.0]])

        def shell(t):
            s = (np.abs(np.asarray(t, dtype=float)) - 2.75) / 0.25
            inside = np.abs(s) < 1.0
            g = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - s * s, 1.0)), 0.0)
            return base + 3.0 * g[..., None, None] * kick

        def corotating(t):
            R = symplectic_rotation(np.multiply.outer(t, [1.0]))
            return R.swapaxes(1, 2) @ (shell(t) - base) @ R

        problem = ScatteringProblem(field=corotating, support_halfwidth=3.5, center=center)
        result = scattering_matrix(problem)
        T = 4.5
        Phi = plain_rk4(shell, -T, T, 9000, 2)
        reference = symplectic_rotation([-T]) @ Phi @ symplectic_rotation([-T])
        assert max_abs(result.sigma - reference) <= 1e-7
        assert max_abs(result.sigma - np.eye(2)) > 0.5

    def test_field_on_far_half_of_slab_names_its_excess(self):
        # nonzero only on [2.5, 3] beyond the declared support 2: the slab
        # samples see it even though the integration over [-2, 2] does not
        kick = np.array([[1.0, 0.0], [0.0, -1.0]])

        def far_half(t):
            return np.where((np.asarray(t) >= 2.5)[:, None, None], 0.3 * kick, 0.0)

        problem = ScatteringProblem(field=far_half, support_halfwidth=2.0, center=CenterBlock([1.0]))
        with pytest.raises(ScatteringConvergenceError, match=f"{0.3 * np.sqrt(2.0):.3e} ahead") as info:
            scattering_matrix(problem)
        assert "0.000e+00 behind" in str(info.value)

    def test_residual_bounds_what_the_slabs_do(self):
        # a small perturbation on both unit slabs passes tol, and the residual
        # is at least the change that integrating the slabs makes to sigma
        spec = perturbed_spec(seed=23, l=2, eps=0.1, T_support=2.0)
        inner = scattering_problem(spec).field
        kick = perturbed_spec(seed=24, l=2).C
        delta = 1e-10

        def field(t):
            s = np.abs(t) - 2.5
            g = np.where(np.abs(s) < 0.5, np.cos(np.pi * s) ** 2, 0.0)
            return inner(t) + delta * g[:, None, None] * kick

        problem = ScatteringProblem(field=field, support_halfwidth=2.0, center=spec.center)
        result = scattering_matrix(problem)
        ahead = fundamental_solution(field, 2.0, 3.0, 4)
        behind = fundamental_solution(field, -3.0, -2.0, 4)
        effect = max_abs(ahead @ result.sigma @ behind - result.sigma)
        assert 0.0 < effect <= result.residual <= 1e-8

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_model_problems_have_zero_residual(self, l):
        C = np.add.outer(np.arange(2.0 * l), np.arange(2.0 * l)) / l
        spec = ModelSpec(l=l, n_hyp=1, omega=np.arange(1.0, l + 1.0), eps=0.1, C=C, T_support=5.0)
        result = scattering_matrix(scattering_problem(spec))
        assert result.residual == 0.0
        assert result.T_used == 6.0

    def test_one_solve_per_scattering_matrix(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return fundamental_solution(*args, **kwargs)

        monkeypatch.setattr("homscat.flow.fundamental_solution", counted)
        scattering_matrix(scattering_problem(perturbed_spec(seed=26, l=2)))
        assert calls == [(-3.0, 3.0)]


class TestStructurePreservation:
    def test_symplecticity_transport(self):
        spec = perturbed_spec(seed=40, l=2, eps=0.1)
        field = lambda t: center_variational_field(spec, t)
        J = standard_symplectic_form(2)
        T = spec.T_support + 2.0
        Phi = np.eye(4)
        t = -T
        while t < T - 1e-9:
            Phi = fundamental_solution(field, t, t + 1.0, 4) @ Phi
            t += 1.0
            assert max_abs(Phi.T @ J @ Phi - J) <= 1e-7

    def test_boundary_difference_identity(self):
        # Gram boundary difference of co-rotated basis solutions reproduces
        # sigma^T D sigma - D entrywise
        spec = perturbed_spec(seed=41, l=2, eps=0.07)
        D = CenterBlock(spec.omega).D
        result = scattering_matrix(scattering_problem(spec))
        H = result.sigma.T @ D @ result.sigma - D
        T = spec.T_support + 1.0
        field = lambda t: center_variational_field(spec, float(t))
        Phi = plain_rk4(field, -T, T, 4096, 4)
        ends = symplectic_rotation(-T * spec.omega) @ Phi @ symplectic_rotation(-T * spec.omega)
        gram_difference = ends.T @ D @ ends - D
        assert max_abs(gram_difference - H) <= 1e-7

