import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mirsky_oracle
from bracket_oracle import (
    bracket_adjoint_matrix,
    bracket_adjoint_nullity,
    bracket_kernel_basis,
    bracket_matrix,
    hessian_bracket_adjoint,
    sym_coords,
    sym_from_coords,
)
from homscat.classify import realize_signature
from homscat.majorize import (
    MajorizationError,
    _require_bracket_hypothesis,
    _solve_bracket,
    hessian_bracket,
    indefinite_spectrum,
    majorizes,
    mirsky_matrix,
)
from homscat.matkit import CenterBlock, max_abs


def random_symmetric(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n))
    return scale * 0.5 * (raw + raw.T)


def transfer_towards(rng, v, steps):
    """Robin Hood transfers: each step moves mass from a larger to a smaller
    entry, producing a vector majorized by the original."""
    out = np.array(v, dtype=float)
    for _ in range(steps):
        i, j = rng.integers(0, out.size, size=2)
        if out[i] < out[j]:
            i, j = j, i
        delta = rng.uniform(0.0, 0.5) * (out[i] - out[j])
        out[i] -= delta
        out[j] += delta
    return out


def schur_horn_pair(seed, scale):
    """A diagonal d and a spectrum lam with d <| lam by Schur-Horn: d is the
    diagonal of Q diag(lam) Q^T for an orthogonal Q."""
    rng = np.random.default_rng(seed)
    lam = scale * rng.uniform(-2.0, 2.0, 5)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    return np.diag(Q @ np.diag(lam) @ Q.T).copy(), lam


class TestMajorizes:
    def test_hand_example(self):
        w = majorizes([1, 1, -1, -1], [3, -1, -1, -1])
        assert w.holds
        assert np.allclose(w.partial_sum_gaps, [2.0, 0.0, 0.0])
        assert w.total_gap == 0.0

    def test_first_gap_fails(self):
        w = majorizes([2, 0], [1, 1])
        assert not w.holds
        assert w.partial_sum_gaps[0] == -1.0
        assert w.first_failure() == 1

    def test_reflexive(self):
        w = majorizes([5, 3, -8], [5, 3, -8])
        assert w.holds
        assert np.all(w.partial_sum_gaps == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorizes([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("a, b, name", [([np.nan, 1.0], [1.0, 0.0], "a"), ([1.0, 0.0], [np.inf, 1.0], "b")])
    def test_rejects_nonfinite_entries(self, a, b, name):
        with pytest.raises(ValueError, match=f"majorization vector {name} has a non-finite entry"):
            majorizes(a, b)

    def test_total_sum_mismatch(self):
        assert not majorizes([1, 0], [2, 0]).holds

    @pytest.mark.parametrize(
        "a, b, match",
        [
            ([1e308, 1e308], [1e308, 1e308], "vector a has partial sums"),
            ([1.0, -1.0], [1e308, 1e308], "vector b has partial sums"),
            ([-1.5e308, 0.0], [1.5e308, 0.0], "vectors a and b have partial sums"),
        ],
    )
    def test_overflowing_partial_sums_are_named(self, a, b, match):
        # they overflowed with a RuntimeWarning and the witness held NaN or inf
        with pytest.raises(ValueError, match=f"{match} .*beyond the float range"):
            majorizes(a, b)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_schur_horn_pairs_hold_at_every_scale(self, scale):
        # at scale 1e6, 16 of these 20 pairs failed an absolute bound of 1e-10
        # with a total gap near 1e-9, the round-off of sums near 1e6
        for seed in range(20):
            d, lam = schur_horn_pair(seed, scale)
            w = majorizes(d, lam)
            assert w.holds, seed
            assert w.tol == 1e-10 * max(1.0, max_abs(d), max_abs(lam))

    def test_a_relative_miss_at_large_scale_fails(self):
        for seed in range(20):
            d, lam = schur_horn_pair(seed, 1e6)
            d[seed % 5] += 1e-6 * max_abs(lam)
            assert not majorizes(d, lam).holds, seed

    def test_entries_within_one_keep_the_absolute_bound(self):
        w = majorizes([0.5, 0.5, -0.5, -0.5], [1.0, 0.0, -0.5, -0.5])
        assert w.holds and w.tol == 1e-10
        assert majorizes([0.5, -0.5], [0.5, -0.5 + 5e-11]).holds
        assert not majorizes([0.5, -0.5], [0.5, -0.5 + 2e-10]).holds

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 10))
    def test_transfers_are_majorized(self, seed, n):
        rng = np.random.default_rng(seed)
        lam = rng.standard_normal(n) * 3.0
        d = transfer_towards(rng, lam, steps=3 * n)
        assert majorizes(d, lam).holds

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(np.float64, 4, elements=st.floats(-10.0, 10.0)),
    )
    def test_shifted_sum_never_majorized(self, v):
        assert not majorizes(v, v + 1.0).holds


class TestIndefiniteSpectrum:
    def test_l1_m1(self):
        assert np.array_equal(indefinite_spectrum(1, 1), np.array([1.0, -1.0]))

    def test_l2_m1(self):
        assert np.array_equal(indefinite_spectrum(2, 1), np.array([3.0, -1.0, -1.0, -1.0]))

    def test_l2_m2(self):
        assert np.array_equal(indefinite_spectrum(2, 2), np.array([2.0, 1.0, -1.5, -1.5]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            indefinite_spectrum(2, 0)
        with pytest.raises(ValueError):
            indefinite_spectrum(2, 4)

    def test_counts_and_zero_sum(self):
        for l in range(1, 7):
            for m in range(1, 2 * l):
                b = indefinite_spectrum(l, m)
                assert b.size == 2 * l
                assert int(np.sum(b > 0)) == m
                assert int(np.sum(b < 0)) == 2 * l - m
                assert abs(np.sum(b)) <= 1e-12

    def test_majorizes_balanced_diagonal(self):
        for l in range(1, 11):
            g = np.concatenate([np.ones(l), -np.ones(l)])
            for m in range(1, 2 * l):
                assert majorizes(g, indefinite_spectrum(l, m)).holds


class TestMirskyMatrix:
    def test_2x2_offdiagonal(self):
        M = mirsky_matrix([1.0, -1.0], [2.0, -2.0])
        assert max_abs(np.diag(M) - np.array([1.0, -1.0])) <= 1e-12
        assert abs(abs(M[0, 1]) - np.sqrt(3.0)) <= 1e-12
        w = np.linalg.eigvalsh(M)
        assert max_abs(w - np.array([-2.0, 2.0])) <= 1e-12

    def test_no_rotation_needed(self):
        M = mirsky_matrix([4.0, 2.0, -1.0], [4.0, 2.0, -1.0])
        assert max_abs(M - np.diag([4.0, 2.0, -1.0])) <= 1e-12

    def test_balanced_target(self):
        d = np.array([1.0, 1.0, -1.0, -1.0])
        b = indefinite_spectrum(2, 1)
        M = mirsky_matrix(d, b)
        assert max_abs(np.diag(M) - d) <= 1e-10
        w = np.linalg.eigvalsh(M)
        assert max_abs(np.sort(w) - np.sort(b)) <= 1e-8

    def test_schur_horn_pairs_at_large_scale(self):
        # the pairs were refused as "diagonal is not majorized by the spectrum"
        for seed in range(20):
            d, lam = schur_horn_pair(seed, 1e6)
            M = mirsky_matrix(d, lam)
            scale = max_abs(lam)
            assert max_abs(np.diag(M) - d) <= 1e-10 * scale, seed
            assert max_abs(np.sort(np.linalg.eigvalsh(M)) - np.sort(lam)) <= 1e-8 * scale, seed

    def test_rejects_non_majorized(self):
        with pytest.raises(MajorizationError) as info:
            mirsky_matrix([2.0, 0.0], [1.0, 1.0])
        assert info.value.index == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 9))
    def test_random_pairs(self, seed, n):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.standard_normal(n) * 2.0)
        d = transfer_towards(rng, lam, steps=3 * n)
        M = mirsky_matrix(d, lam)
        assert max_abs(np.diag(M) - d) <= 1e-10
        w = np.linalg.eigvalsh(M)
        assert max_abs(np.sort(w) - np.sort(lam)) <= 1e-8

    def test_entries_near_the_float_limit(self):
        # the final symmetrization 0.5 * (M + M^T) overflowed to inf
        d = np.array([1e308, -1e308])
        assert np.array_equal(mirsky_matrix(d, d), np.diag(d))

    def test_rotation_beyond_the_float_range_is_named(self):
        # the pivot values -4p and 12p are 2^1024 apart, beyond the float range:
        # the rotation's cosine and sine came out 0, and so did most of the matrix
        p = 2.0**1020
        d, lam = [6 * p, -2 * p, 2 * p, -6 * p], [12 * p, p, -p, -12 * p]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="Mirsky rotation .* beyond the float range"):
                mirsky_matrix(d, lam)


def schur_pair(rng, n, repeated):
    """Diagonal and spectrum of a random symmetric matrix (Schur-Horn), with
    a spectrum drawn from a few integers when repeated is set."""
    lam = rng.integers(-3, 4, size=n).astype(float) if repeated else rng.standard_normal(n) * 2.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return np.diag((Q * lam) @ Q.T).copy(), lam


class TestMirskyMatchesOracle:
    def test_every_signature_on_the_balanced_diagonal(self):
        for l in [*range(1, 13), 20, 40]:
            g = np.concatenate([np.ones(l), -np.ones(l)])
            for m in range(1, 2 * l):
                lam = indefinite_spectrum(l, m)
                assert np.array_equal(mirsky_matrix(g, lam), mirsky_oracle.mirsky_matrix(g, lam)), (l, m)

    def test_seeded_schur_pairs(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d, lam = schur_pair(rng, int(rng.integers(1, 25)), repeated=seed % 4 == 0)
            assert np.array_equal(mirsky_matrix(d, lam), mirsky_oracle.mirsky_matrix(d, lam)), seed
        # up to the n = 80 that CI's realize sweep reaches; the integer tail is
        # a diagonal block, so its targets meet slot values and pin with no rotation
        for seed in range(40):
            rng = np.random.default_rng([80, seed])
            n = int(rng.integers(25, 81))
            d, lam = schur_pair(rng, n // 2, repeated=seed % 2 == 0)
            tail = rng.integers(-3, 4, size=n - n // 2).astype(float)
            d, lam = np.concatenate([d, tail]), np.concatenate([lam, tail])
            assert np.array_equal(mirsky_matrix(d, lam), mirsky_oracle.mirsky_matrix(d, lam)), seed

    def test_spectrum_near_the_float_limit_with_rotations(self):
        # Python floats overflow to inf without the warning numpy gives
        p = 2.0**1020
        d, lam = np.array([4 * p, -2 * p, 2 * p, -4 * p]), np.array([8 * p, p, -p, -8 * p])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = mirsky_matrix(d, lam)
            expected = mirsky_oracle.mirsky_matrix(d, lam)
        assert np.isfinite(M).all() and max_abs(M - np.diag(np.diag(M))) > p
        assert np.array_equal(M, expected)

    def test_diagonal_equal_to_spectrum_needs_no_rotation(self):
        d = np.array([3.0, -1.0, 2.0, -1.0, 0.5])
        M = mirsky_matrix(d, d)
        assert np.array_equal(M, mirsky_oracle.mirsky_matrix(d, d))
        assert np.array_equal(M, np.diag(d))

    def test_nearest_slot_fallback(self):
        # majorized within 1e-10, but no unpinned slot lies within snap below
        # the first target or above the second
        d, lam = [1.0 + 1e-11, -1.0 - 1e-11], [1.0, -1.0]
        assert np.array_equal(mirsky_matrix(d, lam), mirsky_oracle.mirsky_matrix(d, lam))


class TestCenterBlock:
    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError, match="all centre frequencies must be nonzero"):
            _require_bracket_hypothesis(CenterBlock(np.array([1.0, 0.0])))

    def test_rejects_equal_squares(self):
        with pytest.raises(ValueError, match="squared frequencies must be pairwise distinct"):
            _require_bracket_hypothesis(CenterBlock(np.array([1.0, -1.0])))

    def test_names_the_first_colliding_pair_in_row_major_order(self):
        with pytest.raises(ValueError, match=r"got omega\[0\]\^2 ~ omega\[2\]\^2 ~ 1$"):
            _require_bracket_hypothesis(CenterBlock(np.array([1.0, 2.0, -1.0, -2.0])))

    @pytest.mark.parametrize(
        "omega, match",
        [
            ([2.0, 1.0, -2.0, -1.0], r"got omega\[0\]\^2 ~ omega\[2\]\^2 ~ 4$"),
            ([1.0, 3.0, 1.0000000000001, 3.0], r"got omega\[0\]\^2 ~ omega\[2\]\^2 ~ 1$"),
        ],
    )
    def test_names_the_first_colliding_pair_of_several(self, omega, match):
        with pytest.raises(ValueError, match=match):
            _require_bracket_hypothesis(CenterBlock(np.array(omega)))

    def test_rejects_frequency_whose_square_overflows(self):
        # w * w overflowed with a RuntimeWarning and the block was accepted
        with pytest.raises(ValueError, match=r"omega\[1\] = 1e\+300 .* square"):
            _require_bracket_hypothesis(CenterBlock(np.array([1.0, 1e300])))

    def test_solve_bracket_requires_the_hypothesis(self):
        # realize_signature checks the block before it solves the bracket
        with pytest.raises(ValueError, match="all centre frequencies must be nonzero"):
            realize_signature(1, 1, [0.0], 0.01)

    def test_dimensions(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        assert block.l == 2 and block.dim == 4
        assert np.array_equal(block.D, np.diag([1.0, 2.0, 1.0, 2.0]))


class TestBracket:
    def test_hand_value(self):
        block = CenterBlock(np.array([1.0]))
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(hessian_bracket(block, B), np.array([[-2.0, 0.0], [0.0, 2.0]]))

    def test_zero(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        assert np.array_equal(hessian_bracket(block, np.zeros((4, 4))), np.zeros((4, 4)))

    def test_paired_diagonal_in_kernel(self):
        block = CenterBlock(np.array([1.5]))
        B = np.diag([0.7, 0.7])
        assert max_abs(hessian_bracket(block, B)) == 0.0

    def test_bracket_beyond_the_float_range_is_named(self):
        # B @ J @ D overflowed with a RuntimeWarning, or without one returned inf
        B = np.full((4, 4), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="beyond the float range"):
                hessian_bracket(CenterBlock([1.0, 2.0]), B)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10**6))
    def test_symmetric_traceless(self, l, seed):
        rng = np.random.default_rng(seed)
        block = CenterBlock(np.arange(1.0, l + 1.0) + rng.uniform(0, 0.3, l))
        B = random_symmetric(rng, 2 * l, scale=2.0)
        G = hessian_bracket(block, B)
        assert max_abs(G - G.T) == 0.0
        assert abs(np.trace(G)) <= 1e-12


class TestBracketAdjoint:
    def test_hand_value(self):
        block = CenterBlock(np.array([1.0]))
        M = np.diag([1.0, -1.0])
        assert np.array_equal(
            hessian_bracket_adjoint(block, M), np.array([[0.0, -2.0], [-2.0, 0.0]])
        )

    def test_kernel_paired_diagonal(self):
        block = CenterBlock(np.array([2.0, 3.0]))
        M = np.diag([0.4, -1.1, 0.4, -1.1])
        assert max_abs(hessian_bracket_adjoint(block, M)) == 0.0

    def test_zero(self):
        block = CenterBlock(np.array([1.0]))
        assert max_abs(hessian_bracket_adjoint(block, np.zeros((2, 2)))) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10**6))
    def test_adjoint_identity(self, l, seed):
        # tr(bracket(B) M) == tr(B adjoint(M)) under the trace inner product
        rng = np.random.default_rng(seed)
        block = CenterBlock(np.arange(1.0, l + 1.0) * (1.0 + rng.uniform(0, 0.2)))
        B = random_symmetric(rng, 2 * l)
        M = random_symmetric(rng, 2 * l)
        lhs = np.trace(hessian_bracket(block, B) @ M)
        rhs = np.trace(B @ hessian_bracket_adjoint(block, M))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestKernelAndRange:
    def test_kernel_basis_l1(self):
        (K,) = bracket_kernel_basis(CenterBlock(np.array([1.0])))
        assert np.array_equal(K, np.eye(2))

    def test_kernel_basis_l2(self):
        K1, K2 = bracket_kernel_basis(CenterBlock(np.array([1.0, 2.0])))
        assert np.array_equal(K1, np.diag([1.0, 0.0, 1.0, 0.0]))
        assert np.array_equal(K2, np.diag([0.0, 1.0, 0.0, 1.0]))

    def test_kernel_basis_trace_orthogonal(self):
        basis = bracket_kernel_basis(CenterBlock(np.array([1.0, 2.0, 3.0])))
        assert len(basis) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.trace(basis[i] @ basis[j]) == 0.0

    def test_kernel_annihilated_exactly(self):
        block = CenterBlock(np.array([1.0, np.sqrt(2.0), np.pi]))
        for K in bracket_kernel_basis(block):
            assert max_abs(hessian_bracket_adjoint(block, K)) == 0.0

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_adjoint_nullity(self, l):
        block = CenterBlock(np.arange(1.0, l + 1.0))
        assert bracket_adjoint_nullity(block) == l

    def test_matricizations_are_adjoint(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        assert max_abs(bracket_matrix(block).T - bracket_adjoint_matrix(block)) <= 1e-13

    # the range test is the first step of _solve_bracket: a target outside the
    # range raises, one inside is solved
    def test_images_lie_in_range(self):
        rng = np.random.default_rng(17)
        block = CenterBlock(np.array([1.0, 2.0]))
        for _ in range(20):
            B = random_symmetric(rng, 4)
            _solve_bracket(block, hessian_bracket(block, B))

    def test_identity_not_in_range(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="outside the bracket range"):
            _solve_bracket(block, np.eye(4))

    def test_pattern_instance(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        G = np.diag([1.0, 1.0, -1.0, -1.0])
        assert np.array_equal(_solve_bracket(block, G)[1], G)


DIFFERENTIAL_OMEGAS = [np.arange(1.0, l + 1.0) for l in range(1, 13)] + [
    np.array([1.0, -1.7, 2.3, -0.6])
]


class TestSolveBracket:
    @pytest.mark.parametrize("omega", DIFFERENTIAL_OMEGAS, ids=lambda w: ",".join(f"{x:g}" for x in w))
    def test_matches_least_squares_oracle(self, omega):
        # minimum-norm least squares on the matricized bracket is the reference
        block = CenterBlock(omega)
        l = block.l
        rng = np.random.default_rng((313, l))
        balanced = np.concatenate([np.ones(l), -np.ones(l)])
        targets = [mirsky_matrix(balanced, indefinite_spectrum(l, m)) for m in range(1, 2 * l)]
        targets += [hessian_bracket(block, random_symmetric(rng, 2 * l, scale=3.0)) for _ in range(3)]
        X = bracket_matrix(block)
        for G in targets:
            sol, *_ = np.linalg.lstsq(X, sym_coords(G), rcond=None)
            expected = sym_from_coords(sol, block.dim)
            assert max_abs(_solve_bracket(block, G)[0] - expected) <= 1e-10 * max(1.0, max_abs(G))

    def test_minimum_norm_l1(self):
        block = CenterBlock(np.array([1.0]))
        B = _solve_bracket(block, np.array([[-2.0, 0.0], [0.0, 2.0]]))[0]
        assert max_abs(B - np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-8

    def test_zero_target(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        assert max_abs(_solve_bracket(block, np.zeros((4, 4)))[0]) <= 1e-12

    def test_pipeline_target(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        G = mirsky_matrix([1.0, 1.0, -1.0, -1.0], indefinite_spectrum(2, 3))
        B = _solve_bracket(block, G)[0]
        assert max_abs(hessian_bracket(block, B) - G) <= 1e-8

    def test_rejects_out_of_range(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            _solve_bracket(block, np.eye(4))

    def test_solution_beyond_the_float_range_is_named(self):
        # B held -inf, the residual was NaN, and NaN > tol let it through
        G = np.zeros((4, 4))
        G[0, 1] = G[1, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="beyond the float range"):
                _solve_bracket(CenterBlock([1.0, 2.0]), G)

    def test_solution_orthogonal_to_kernel(self):
        block = CenterBlock(np.array([1.0, 2.0]))
        G = mirsky_matrix([1.0, 1.0, -1.0, -1.0], indefinite_spectrum(2, 2))
        B = _solve_bracket(block, G)[0]
        for K in bracket_kernel_basis(block):
            assert abs(np.trace(B @ K)) <= 1e-9


class TestSymCoords:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10**6))
    def test_roundtrip_and_isometry(self, n, seed):
        rng = np.random.default_rng(seed)
        A = random_symmetric(rng, n)
        B = random_symmetric(rng, n)
        va, vb = sym_coords(A), sym_coords(B)
        assert max_abs(sym_from_coords(va, n) - A) <= 1e-14
        # orthonormal basis: coordinate dot product equals the trace inner product
        assert abs(float(va @ vb) - np.trace(A @ B)) <= 1e-10 * max(1.0, abs(np.trace(A @ B)))
