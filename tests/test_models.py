import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homscat import flow, models
from homscat.matkit import matrix_exponential, max_abs, standard_symplectic_form, symplectic_rotation
from homscat.models import (
    HamiltonianSystem,
    ModelSpec,
    _profile_mass,
    bump,
    homoclinic_orbit,
    scattering_problem,
)
from lab_frame_oracle import center_variational_field


def two_center_spec(**overrides):
    base = dict(l=2, n_hyp=1, omega=[1.0, 2.0], T_support=3.0)
    base.update(overrides)
    return ModelSpec(**base)


def one_saddle_specs():
    """The model at l = 1, 2 and 3, with frequencies 1..l."""
    return [ModelSpec(l=l, n_hyp=1, omega=np.arange(1.0, l + 1.0), T_support=3.0) for l in (1, 2, 3)]


def analytic_orbit_derivative(spec, t):
    """Time derivative of the homoclinic loop, differentiated by hand:
    xdot = -(3/2) sech^2(t/2) tanh(t/2),
    ydot = -(3/4) (sech^4(t/2) - 2 sech^2(t/2) tanh^2(t/2))."""
    u = 0.5 * t
    sech = 1.0 / np.cosh(u)
    th = np.tanh(u)
    out = np.zeros(spec.dim)
    out[2 * spec.l] = -1.5 * sech**2 * th
    out[2 * spec.l + 1] = -0.75 * (sech**4 - 2.0 * sech**2 * th**2)
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


# one valid model document, and for each of its fields values that a Python
# caller or a document may hold: numbers, the entries a document must not hold,
# and for the array fields lists, tuples and numpy arrays of either
BASE_DOC = dict(l=1, n_hyp=1, omega=[1.0], eps=0.05, C=[1.0, 0.5, 0.5, -1.0], T_support=2.0)
NOT_A_NUMBER = st.one_of(
    st.text(max_size=4),
    st.floats(-3, 3).map(repr),
    st.booleans(),
    st.none(),
    st.sampled_from([10**400, -(10**400)]),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
)
NUMBER = st.integers(-3, 3) | st.floats(-3, 3) | st.sampled_from([0.6, np.inf])
ENTRY = NUMBER | NOT_A_NUMBER | st.sampled_from([np.float64(1.5), np.int64(2)])
JUNK_ARRAYS = st.sampled_from(
    [np.array(["1"]), np.array([True]), np.array([1.0, None], dtype=object), np.zeros((1, 1))]
)


def array_values(entries):
    """A list, a tuple or a numpy array of entries, a nested list, or one entry alone."""
    return st.one_of(
        entries,
        st.lists(entries, max_size=3),
        st.lists(entries, max_size=3).map(tuple),
        st.lists(NUMBER, max_size=3).map(np.array),
        st.lists(st.lists(entries, max_size=2), max_size=2),
        JUNK_ARRAYS,
    )


def C_forms(C):
    """A 2 x 2 C as its row-major entries, as rows, and as numpy arrays of either."""
    return [C.ravel().tolist(), C.tolist(), tuple(map(tuple, C.tolist())), C, C.ravel()]


SYMMETRIC_C = st.tuples(NUMBER, NUMBER, NUMBER).map(lambda abc: np.array([[abc[0], abc[1]], [abc[1], abc[2]]], float))
FIELD_VALUES = {
    "l": NUMBER | NOT_A_NUMBER | st.sampled_from([np.int64(1), 1.0, 2]),
    "n_hyp": NUMBER | NOT_A_NUMBER | st.sampled_from([np.int64(1), 1.0]),
    "omega": array_values(ENTRY),
    "eps": NUMBER | NOT_A_NUMBER | st.sampled_from([np.float64(0.1), 1e308]),
    "C": SYMMETRIC_C.flatmap(lambda C: st.sampled_from(C_forms(C))) | array_values(ENTRY),
    "T_support": NUMBER | NOT_A_NUMBER | st.sampled_from([np.float64(3.0), 1e-300]),
}


def parsed(build):
    """The document of the spec build() returns, or the message of its ValueError."""
    try:
        return build().to_json_dict()
    except ValueError as exc:
        return str(exc)


class TestModelSpec:
    @pytest.mark.parametrize("field", sorted(FIELD_VALUES))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_python_values_and_their_document_parse_alike(self, field, data):
        # from_json_dict ran omega and C through its own parser, so
        # omega=["1"] or [True] built a spec only from Python
        doc = dict(BASE_DOC, **{field: data.draw(FIELD_VALUES[field])})
        text = json.dumps(doc, default=lambda value: value.tolist())
        outcome = parsed(lambda: ModelSpec(**doc))
        assert parsed(lambda: ModelSpec.from_json_dict(doc)) == outcome
        assert parsed(lambda: ModelSpec.from_json_dict(json.loads(text))) == outcome

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"omega": ["1"]}, "omega entries must be numbers, got '1'"),
            ({"omega": [True]}, "omega entries must be numbers, got True"),
            ({"C": [["1", "0"], ["0", "1"]]}, "C entries must be numbers, got '1'"),
        ],
        ids=["omega-string", "omega-true", "C-strings"],
    )
    def test_entry_that_is_not_a_number_is_named_on_both_paths(self, changes, message):
        doc = dict(dict(l=1, n_hyp=1, omega=[1.0]), **changes)
        for build in (lambda: ModelSpec(**doc), lambda: ModelSpec.from_json_dict(doc)):
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message

    def test_flat_and_square_C_give_one_spec(self):
        C = np.array([[1.0, 0.5], [0.5, -1.0]])
        square = ModelSpec(l=1, n_hyp=1, omega=[1.0], C=C)
        flat = ModelSpec(l=1, n_hyp=1, omega=[1.0], C=C.ravel().tolist())
        assert np.array_equal(square.C, C) and np.array_equal(flat.C, C)
        with pytest.raises(ValueError, match=r"C must be 2 x 2 or its 4 row-major entries, got shape \(3,\)"):
            ModelSpec(l=1, n_hyp=1, omega=[1.0], C=[1.0, 0.0, 1.0])

    def test_spec_cannot_change_after_it_is_checked(self):
        # assigning T_support left the bump's scale at 1/2 and sigma came out
        # 0.0499 away from exp(-eps J C), with no error
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.5, C=np.eye(2), T_support=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.T_support = 4.0
        for name in [f.name for f in dataclasses.fields(spec)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, getattr(spec, name))
        assert spec.T_support == 2.0 and bump(spec, 0.0) == bump(ModelSpec(**spec.to_json_dict()), 0.0)

    def test_rejects_duplicate_omega(self):
        with pytest.raises(ValueError):
            ModelSpec(l=2, n_hyp=1, omega=[1.0, 1.0])

    def test_rejects_equal_squares(self):
        with pytest.raises(ValueError):
            ModelSpec(l=2, n_hyp=1, omega=[1.0, -1.0])

    def test_rejects_asymmetric_C(self):
        # with entries +-1e308, C - C.T overflowed, so the check raised a
        # RuntimeWarning instead of naming the asymmetry; C's bound is 1e-12,
        # and the 1e-10 of the other symmetric inputs would accept 1e-11
        for C, asymmetry in [
            ([0.0, 1.0, 0.0, 0.0], "1.000e+00"),
            ([1.0, 1e308, -1e308, 1.0], "inf"),
            ([1.0, 1e-11, 0.0, 1.0], "1.000e-11"),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"C is not symmetric (asymmetry {asymmetry})")):
                ModelSpec(l=1, n_hyp=1, omega=[1.0], C=C)

    def test_C_within_its_symmetry_bound_is_kept_as_given(self):
        assert ModelSpec(l=1, n_hyp=1, omega=[1.0], C=[1.0, 1e-13, 0.0, 1.0]).C.tolist() == [[1.0, 1e-13], [0.0, 1.0]]

    @pytest.mark.parametrize("n_hyp", [0, 2])
    def test_n_hyp_must_be_1(self, n_hyp):
        # the model has one saddle
        with pytest.raises(ValueError, match=f"n_hyp must be 1, got {n_hyp}"):
            ModelSpec(l=1, n_hyp=n_hyp, omega=[1.0])

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
        assert sorted(doc) == ["C", "T_support", "eps", "l", "n_hyp", "omega"]
        # C is stored row-major
        assert doc["C"] == [float(x) for x in C.ravel()]
        back = ModelSpec.from_json_dict(doc)
        assert max_abs(back.C - spec.C) == 0.0
        assert back.omega.tolist() == spec.omega.tolist()
        assert back.to_json_dict() == doc

    def test_from_json_missing_field(self):
        with pytest.raises(ValueError):
            ModelSpec.from_json_dict({"l": 1, "omega": [1.0]})

    def test_from_json_rejects_unknown_fields(self):
        doc = dict(two_center_spec().to_json_dict(), T_suport=9.0, colour="red")
        with pytest.raises(ValueError, match=r"unknown fields \['T_suport', 'colour'\]"):
            ModelSpec.from_json_dict(doc)

    @pytest.mark.parametrize("field", ["l", "n_hyp"])
    @pytest.mark.parametrize("value", [1.7, None, True, "1"])
    def test_counts_must_be_integers(self, field, value):
        kwargs = dict(l=1, n_hyp=1, omega=[1.0])
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            ModelSpec(**kwargs)

    @pytest.mark.parametrize(
        "l, T_support, refusal",
        [
            # a span of 8 starts at n = 64 and is compared with n = 128, whose 257 (2l)^2
            # entries fit the cap of 2**22 = 4194304 up to l = 63 (4080132), not at l = 64
            (63, 4.0, None),
            (64, 4.0, "a span of 8 starts at n = 64 RK4 steps and is compared with n = 128, whose (2n + 1) d^2 = "
             "4210688 entries of the 128 x 128 field are beyond the cap of 4194304"),
            # at l = 1 a span of 16384 starts at n = 131072; one of 16385 starts at n = 262144,
            # whose double holds 1048577 * 4 = 4194308 entries
            (1, 8192.0, None),
            (1, 8192.5, "a span of 16385 starts at n = 262144 RK4 steps and is compared with n = 524288, whose "
             "(2n + 1) d^2 = 4194308 entries of the 2 x 2 field are beyond the cap of 4194304"),
            (100000, 4.0, "a span of 8 starts at n = 64 RK4 steps, whose (2n + 1) d^2 = 5160000000000 entries of the "
             "200000 x 200000 field are beyond the cap of 4194304"),
            # d = 2l is beyond the float range, and reads inf
            (10**308, 4.0, "a span of 8 starts at n = 64 RK4 steps, whose (2n + 1) d^2 = inf entries of the inf x inf "
             "field are beyond the cap of 4194304"),
        ],
        ids=["l=63", "l=64", "T_support=8192", "T_support=8192.5", "l=1e5", "l=1e308"],
    )
    def test_l_and_T_support_must_fit_the_integrator(self, monkeypatch, l, T_support, refusal):
        # the integrator's step rule decides: l = 64 to 127 passed a bound derived for the
        # shortest span and then exited 3 at the cap, and a T_support the cap refuses exited 3
        def no_field_call(fld, ts, d):
            raise AssertionError(f"the field was sampled at {ts.size} times")

        monkeypatch.setattr(flow, "_field_values", no_field_call)
        if refusal is None:
            spec = ModelSpec(l=l, n_hyp=1, omega=np.arange(1.0, l + 1.0), T_support=T_support)
            assert spec.C.shape == (2 * l, 2 * l) and spec.T_support == T_support
            return
        # refused before omega, here of the wrong length, is read or the default C built
        message = f"l = {l} and T_support = {T_support:g} do not fit the integrator: {refusal}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelSpec(l=l, n_hyp=1, omega=[1.0, 2.0], T_support=T_support)

    def test_bump_order_is_an_unknown_field(self):
        # fields that are gone: the bump's sharpness changed no sigma, and the model
        # has one saddle, so there are no rates alpha of further hyperbolic pairs
        for field, value in [("bump_order", 1), ("alpha", []), ("alpha", [0.6])]:
            doc = dict(ModelSpec(l=1, n_hyp=1, omega=[1.0]).to_json_dict(), **{field: value})
            with pytest.raises(ValueError, match=rf"unknown fields \['{field}'\]"):
                ModelSpec.from_json_dict(doc)

    @pytest.mark.parametrize("field", ["eps", "T_support"])
    @pytest.mark.parametrize("value", [None, True])
    def test_null_or_boolean_parameter_is_named(self, field, value):
        # a JSON true used to run as 1.0
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            ModelSpec(l=1, n_hyp=1, omega=[1.0], **{field: value})


class TestIntegrableSystem:
    def test_equilibrium_at_origin(self):
        for spec in one_saddle_specs():
            system = HamiltonianSystem(spec)
            zero = np.zeros(system.dim)
            assert system.hamiltonian(zero) == 0.0
            assert max_abs(system.gradient(zero)) == 0.0

    def test_hessian_center_block(self):
        for spec in one_saddle_specs():
            system = HamiltonianSystem(spec)
            H2 = system.hessian(np.zeros(system.dim))
            l = spec.l
            assert system.dim == 2 * l + 2
            assert np.array_equal(H2[: 2 * l, : 2 * l], np.diag(np.tile(np.arange(1.0, l + 1.0), 2)))
            assert np.array_equal(H2[2 * l :, 2 * l :], np.diag([-1.0, 1.0]))
            assert not H2[: 2 * l, 2 * l :].any() and not H2[2 * l :, : 2 * l].any()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for spec in one_saddle_specs():
            system = HamiltonianSystem(spec)
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
        for spec in one_saddle_specs():
            system = HamiltonianSystem(spec)
            for t in np.linspace(-30.0, 30.0, 121):
                assert abs(system.hamiltonian(homoclinic_orbit(spec, t))) <= 1e-10

    def test_vector_field_is_J_grad(self):
        rng = np.random.default_rng(9)
        for spec in one_saddle_specs():
            system = HamiltonianSystem(spec)
            u = rng.standard_normal(system.dim)
            assert max_abs(system.vector_field(u) - system.symplectic_form @ system.gradient(u)) <= 1e-14


class TestHomoclinicOrbit:
    def test_at_zero(self):
        spec = two_center_spec()
        state = homoclinic_orbit(spec, 0.0)
        assert state[2 * spec.l] == pytest.approx(1.5)
        assert state[2 * spec.l + 1] == 0.0
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
        rng = np.random.default_rng(12)
        for spec in one_saddle_specs():
            system = HamiltonianSystem(spec)
            R = system.reversal
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

    def test_profile_mass_bits(self):
        # every sigma scales with this constant, so its bits are pinned
        assert _profile_mass().hex() == "0x1.c6a650a045c5cp-2"

    def test_raw_profile_is_the_masked_formula_bit_for_bit(self):
        # exp(-1/p) was taken only where p = 1 - s^2 exceeds the floor 1/746, and 0.0
        # elsewhere; clamping p at half the floor gives an exponent of at most -746
        # there, where exp underflows to the same +0.0
        def masked(s):
            out = np.zeros_like(s)
            p = 1.0 - np.minimum(np.abs(s), 1.0) ** 2
            live = p > models._PROFILE_FLOOR
            out[live] = np.exp(-1.0 / p[live])
            return out

        edge = np.sqrt(1.0 - models._PROFILE_FLOOR)  # |s| at which p is the floor
        near_edge = edge + np.arange(-6, 7) * np.spacing(edge)
        p = 1.0 - near_edge**2
        assert (p > models._PROFILE_FLOOR).any() and (p <= models._PROFILE_FLOOR).any()
        s = np.concatenate([
            np.linspace(-1.25, 1.25, 2**16 + 1),
            np.linspace(1.0 - 1e-12, 1.0, 4097),
            near_edge,
            [0.0, 1.0, 1e154, 1e308],
        ])
        s = np.concatenate([s, -s])
        got, want = models._raw_profile(s), masked(s)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # sign bits included

    def test_unimodal(self):
        spec = two_center_spec()
        assert bump(spec, 0.0) > bump(spec, spec.T_support / 2) > 0.0

    def test_scattering_law_holds(self):
        C = np.eye(2)
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.5, C=C, T_support=2.0)
        result = flow.scattering_matrix(scattering_problem(spec))
        expected = matrix_exponential(-0.5 * standard_symplectic_form(1) @ C)
        assert max_abs(result.sigma - expected) <= 1e-10

    def test_tiny_support_vanishes_beyond_it(self):
        # squaring t / T_support overflowed for |t / T_support| > 1.3e154
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=1e-200, C=np.eye(2), T_support=1e-300)
        values = bump(spec, np.array([-1.0, -1e-300, 0.0, 1e-300, 1.0]))
        assert values[2] > 0.0 and not values[[0, 1, 3, 4]].any()


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
    """Saddle block of the variational coefficient J hessian(H) along the loop."""
    system = HamiltonianSystem(spec)
    A = system.symplectic_form @ system.hessian(homoclinic_orbit(spec, t))
    return A[2 * spec.l :, 2 * spec.l :]


class TestHyperbolicField:
    def test_asymptotic_block(self):
        A = hyperbolic_block(two_center_spec(), 40.0)
        assert max_abs(A - np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-12
        # eigenvalues of [[0,1],[1,0]] are +-1
        assert sorted(np.linalg.eigvals(A).real) == pytest.approx([-1.0, 1.0])

    def test_block_at_zero(self):
        A = hyperbolic_block(two_center_spec(), 0.0)
        assert max_abs(A - np.array([[0.0, 1.0], [-2.0, 0.0]])) <= 1e-12

    def test_orbit_derivative_solves_leading_pair(self):
        spec = two_center_spec()
        saddle = [2 * spec.l, 2 * spec.l + 1]
        dt = 1e-5
        worst = 0.0
        for t in np.linspace(-20.0, 20.0, 101):
            v = analytic_orbit_derivative(spec, t)[saddle]
            ahead, behind = analytic_orbit_derivative(spec, t + dt), analytic_orbit_derivative(spec, t - dt)
            vdot = (ahead[saddle] - behind[saddle]) / (2.0 * dt)
            worst = max(worst, max_abs(vdot - hyperbolic_block(spec, t) @ v))
        assert worst <= 1e-8


class TestScatteringProblemBuilder:
    def test_rejects_mu_field(self):
        # the splitting parameter is gone: the loop persists, so mu = 0 always
        doc = dict(two_center_spec().to_json_dict(), mu=[0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"unknown fields \['mu'\]"):
            ModelSpec.from_json_dict(doc)

    def test_support_whose_squared_field_overflows_names_T_support(self):
        # the bump scale 1/T_support, squared in the RK4 stage products, overflowed
        # them, and the error blamed the RK4 product
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.05, C=np.eye(2), T_support=1e-300)
        with pytest.raises(ArithmeticError, match="T_support = 1e-300"):
            scattering_problem(spec)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_field_is_the_bump_times_J_C_bit_for_bit(self, l):
        # the field's closure scales the raw profile in place; it must give every bit of
        # -eps * bump(spec, t) times J C at the times the integrator and the slabs sample
        rng = np.random.default_rng(40 + l)
        raw = rng.standard_normal((2 * l, 2 * l))
        spec = ModelSpec(l=l, n_hyp=1, omega=np.arange(1.0, l + 1.0), eps=0.07, C=raw + raw.T, T_support=3.0)
        T, n = spec.T_support, 64
        nodes = np.concatenate([np.arange(0, 2 * n + 1, 2), np.arange(1, 2 * n, 2)])
        slab = np.linspace(0.0, 1.0, 65)
        times = [
            -T + 2 * T * nodes / (2 * n),  # the first pass: step ends, then midpoints
            -T + 2 * T * np.arange(1, 4 * n, 2) / (4 * n),  # the midpoints of its doubling
            np.concatenate([-(T + slab), T + slab]),  # the slabs beyond the support
            np.array([-T, T, -1e300, 1e300, -np.inf, np.inf]),  # |t| >= T_support
        ]
        JC = standard_symplectic_form(l) @ spec.C
        field = scattering_problem(spec).field
        for t in times:
            assert np.array_equal(field(t), (-spec.eps * bump(spec, t))[:, None, None] * JC)

    def test_builds_consistent_problem(self):
        spec = two_center_spec(eps=0.1, C=np.eye(4))
        problem = scattering_problem(spec)
        assert problem.center.dim == 4
        assert problem.support_halfwidth == spec.T_support
