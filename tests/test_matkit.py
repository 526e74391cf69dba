import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensemble_oracle
from homscat.cli import to_json
from homscat.matkit import (
    CenterBlock,
    classification_tol,
    inertia,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
    symplectic_rotation,
)


def random_symmetric(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n))
    return scale * 0.5 * (raw + raw.T)


def is_symplectic(M, tol):
    """True iff M^T J M reproduces J to within tol in max-abs norm."""
    J = standard_symplectic_form(M.shape[0] // 2)
    return max_abs(M.T @ J @ M - J) <= tol


class TestStandardForm:
    def test_n1_exact(self):
        assert np.array_equal(standard_symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_squares_to_minus_identity(self):
        J = standard_symplectic_form(2)
        assert np.array_equal(J @ J, -np.eye(4))

    def test_antisymmetric(self):
        J = standard_symplectic_form(3)
        assert np.array_equal(J.T, -J)


class TestIsSymplectic:
    def test_hamiltonian_exponential(self):
        # exp(-eps J B) with symmetric B is symplectic
        B = np.array([[1.0, 0.3], [0.3, -0.5]])
        J = standard_symplectic_form(1)
        M = matrix_exponential(-0.1 * J @ B)
        assert is_symplectic(M, 1e-10)


class TestSymplecticRotation:
    def test_quarter_turn(self):
        R = symplectic_rotation([np.pi / 2])
        assert max_abs(R - np.array([[0.0, 1.0], [-1.0, 0.0]])) < 1e-15

    def test_zero_angles_identity(self):
        assert np.array_equal(symplectic_rotation([0.0, 0.0]), np.eye(4))

    def test_orthogonal(self):
        R = symplectic_rotation([0.3])
        assert max_abs(R.T @ R - np.eye(2)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5))
    def test_symplectic_and_orthogonal(self, angles):
        R = symplectic_rotation(angles)
        assert is_symplectic(R, 1e-12)
        assert max_abs(R.T @ R - np.eye(2 * len(angles))) <= 1e-12

    def test_batched_matches_stacked(self):
        angles = np.random.default_rng(3).uniform(-10.0, 10.0, (5, 3))
        stacked = np.stack([symplectic_rotation(row) for row in angles])
        assert np.array_equal(symplectic_rotation(angles), stacked)


class TestMatrixExponential:
    def test_zero(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_diagonal_logs(self):
        E = matrix_exponential(np.diag([np.log(2.0), np.log(3.0)]))
        assert max_abs(E - np.diag([2.0, 3.0])) <= 1e-12

    def test_rotation_closed_form(self):
        E = matrix_exponential((np.pi / 2) * standard_symplectic_form(1))
        assert max_abs(E - np.array([[0.0, 1.0], [-1.0, 0.0]])) <= 1e-12

    def test_inverse_product(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((5, 5))
        assert max_abs(matrix_exponential(M) @ matrix_exponential(-M) - np.eye(5)) <= 1e-10

    def test_stack_slices_match_single(self):
        # max-row-sum norms 0.3 * 2**j need j squarings, and a ninth slice of
        # norm 0.5 needs none either; shuffled so that the slices are not
        # already in order of their squaring counts.  A slice that needs no
        # halving skips ldexp alone and is halved by 0 in the stack.
        rng = np.random.default_rng(12)
        M = rng.standard_normal((9, 5, 5))
        M /= np.max(np.sum(np.abs(M), axis=2), axis=1)[:, None, None]
        M *= np.append(0.3 * 2.0 ** np.arange(8), 0.5)[:, None, None]
        M = M[rng.permutation(9)]
        norms = np.max(np.sum(np.abs(M), axis=2), axis=1)
        squarings = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5))
        assert sorted(squarings) == [0] + list(range(8))
        E = matrix_exponential(M)
        assert E.shape == M.shape
        for k in range(9):
            assert np.array_equal(E[k], matrix_exponential(M[k]))

    @pytest.mark.parametrize("counts", [[7, 5, 5, 2, 0], [3] * 6, [4]], ids=["falling", "equal", "one-slice"])
    def test_stack_slices_match_single_in_any_order(self, counts):
        # a stack already in falling order of its squaring counts, or with all
        # counts equal, is still put in order by argsort, and a one-slice stack
        # is not: every slice keeps the bits that it and the oracle get alone
        M = np.random.default_rng(len(counts)).standard_normal((len(counts), 5, 5))
        M *= (0.3 * 2.0 ** np.array(counts) / np.max(np.sum(np.abs(M), axis=2), axis=1))[:, None, None]
        norms = np.max(np.sum(np.abs(M), axis=2), axis=1)
        assert list(np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5))) == counts
        E = matrix_exponential(M)
        assert E.shape == M.shape
        for k in range(len(counts)):
            assert np.array_equal(E[k], matrix_exponential(M[k]))
            assert np.array_equal(E[k], ensemble_oracle._expm(M[k]))

    @pytest.mark.parametrize(
        "M",
        [
            0.1 * np.arange(9.0).reshape(3, 3) / 36.0,
            np.stack([4.0 * np.eye(3), np.eye(3), np.zeros((3, 3))]),
            np.stack([np.eye(2), np.array([[1e308, 1e308], [0.0, 0.0]])]),
        ],
        ids=["no-halving", "stack-in-squaring-order", "stack-with-an-overflowing-row-sum"],
    )
    def test_argument_is_neither_written_nor_returned(self, M):
        before = M.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            E = matrix_exponential(M)
        assert np.array_equal(M, before)
        assert not np.shares_memory(E, M)

    def test_single_matrix_matches_sequential_oracle(self):
        # max-row-sum norm 3 needs three squarings
        M = np.random.default_rng(4).standard_normal((6, 6))
        M *= 3.0 / np.max(np.sum(np.abs(M), axis=1))
        assert np.array_equal(matrix_exponential(M), ensemble_oracle._expm(M))

    def test_stack_with_every_slice_squared(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((5, 4, 4)) * 3.0
        E = matrix_exponential(M)
        for k in range(5):
            assert np.array_equal(E[k], ensemble_oracle._expm(M[k]))

    def test_empty_stack(self):
        assert matrix_exponential(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize(
        "M",
        [
            np.diag([6e307, 0.0]),
            np.diag([-1e308, 1e308]),
            np.array([[1e308, 1e308], [0.0, 0.0]]),
            # a nilpotent block whose row sum overflows beside [[40]]: one
            # halving would leave exp(40) to a truncated series, finite and wrong
            np.diag([0.0, 0.0, 0.0, 40.0]) + np.pad([[0.0, 1e308, 1e308]], ((0, 3), (0, 1))),
        ],
        ids=["exponential-overflows", "norm-near-the-limit", "norm-overflows", "norm-overflows-beside-a-finite-block"],
    )
    def test_argument_beyond_the_float_range_is_not_finite(self, M):
        # 1024 halvings divided by 2.0 ** 1024 = inf and the result was I; a
        # norm overflowing to inf gave a garbage halving count
        small = np.random.default_rng(7).standard_normal(M.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            E = matrix_exponential(np.stack([M, small]))
        assert not np.isfinite(E[0]).all()
        assert np.array_equal(E[1], matrix_exponential(small))

    def test_rejects_nonsquare_stack(self):
        with pytest.raises(ValueError, match="square"):
            matrix_exponential(np.zeros((2, 3, 4)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10**6), st.floats(0.01, 1.0))
    def test_symplectic_for_hamiltonian_generators(self, n, seed, eps):
        # |eps| * |B| <= 1 keeps the generator within the stated regime
        rng = np.random.default_rng(seed)
        B = random_symmetric(rng, 2 * n)
        norm = max_abs(B)
        if norm > 0:
            B /= norm
        J = standard_symplectic_form(n)
        assert is_symplectic(matrix_exponential(-eps * J @ B), 1e-9)


class TestMaxAbs:
    def test_value(self):
        assert max_abs(np.array([[1.0, -3.5], [2.0, 0.0]])) == 3.5

    def test_nan_comes_out_as_nan(self):
        # the residual checks read `not residual <= tol`, which a NaN must fail
        assert np.isnan(max_abs(np.array([1.0, np.nan, -2.0])))
        assert np.isnan(max_abs(np.array([[np.inf, np.nan]])))

    def test_empty_array_is_zero(self):
        assert max_abs(np.zeros((0, 3))) == 0.0


class TestInertia:
    def test_mixed_diagonal(self):
        assert inertia(np.diag([2.0, -3.0, 0.0])).inertia == (1, 1, 1)

    def test_zero_matrix(self):
        rep = inertia(np.zeros((4, 4)))
        assert rep.inertia == (0, 0, 4)
        assert rep.degenerate

    def test_ties_at_the_tolerance_are_zeros(self):
        # the largest entry sets the tolerance; eigenvalues of exactly +-tol count as zero,
        # and the next floats beyond them do not
        tol = classification_tol(np.array([[300.0]]))
        beyond = np.nextafter(tol, np.inf)
        S = np.diag([300.0, tol, -tol, beyond, -beyond])
        report = inertia(S)
        assert report.tol == classification_tol(S) == tol
        assert sorted(report.eigenvalues) == sorted(np.diag(S))
        assert report.inertia == (2, 1, 2)

    def test_first_order_instance(self):
        assert inertia(np.array([[-2.0, 0.0], [0.0, 2.0]])).inertia == (1, 1, 0)

    def test_default_tolerance_scales(self):
        assert classification_tol(np.eye(2)) == pytest.approx(1e-7)
        assert classification_tol(100.0 * np.eye(2)) == pytest.approx(1e-5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_invariant_under_orthogonal_conjugation(self, n, seed):
        rng = np.random.default_rng(seed)
        S = random_symmetric(rng, n, scale=2.0)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert inertia(Q.T @ S @ Q).inertia == inertia(S).inertia

    def test_entries_near_the_float_limit(self):
        # the symmetrization 0.5 * (S + S^T) overflowed to inf
        S = np.array([[1e308, 1e308], [1e308, -1e308]])
        report = inertia(S)
        assert report.inertia == (1, 1, 0) and np.isfinite(report.eigenvalues).all()

    def test_default_tolerance_is_classification_tol_of_the_symmetrized_input(self):
        S = np.array([[3.0, -250.0 + 1e-9], [-250.0, 0.5]])
        assert inertia(S).tol == classification_tol(0.5 * S + 0.5 * S.T)
        assert inertia(0.25 * np.eye(3)).tol == 1e-7

    def test_report_json(self):
        doc = to_json(inertia(np.diag([1.0, -1.0])))
        assert doc["n_pos"] == 1 and doc["n_neg"] == 1 and doc["n_zero"] == 0
        assert doc["eigenvalues"] == [1.0, -1.0]


class TestCenterDiagonal:
    def test_build_and_recover(self):
        w = np.array([1.0, 2.5])
        block = CenterBlock(w)
        assert np.array_equal(block.D, np.diag([1.0, 2.5, 1.0, 2.5]))
        assert np.array_equal(block.J, standard_symplectic_form(2))
        recovered = CenterBlock.from_diagonal(block.D)
        assert np.array_equal(recovered.omega, w) and np.array_equal(recovered.D, block.D)

    def test_blocks_of_one_l_share_one_read_only_J(self):
        for l in (1, 2, 5):
            w = np.arange(1.0, l + 1.0)
            J = CenterBlock(w).J
            assert CenterBlock.from_diagonal(CenterBlock(2 * w).D).J is J
            assert not J.flags.writeable and np.array_equal(J, standard_symplectic_form(l))
            with pytest.raises(ValueError, match="read-only"):
                J[0, 0] = 1.0

    def test_standard_form_is_a_fresh_writable_array(self):
        first = standard_symplectic_form(3)
        first[0, 0] = 7.0
        again = standard_symplectic_form(3)
        assert again[0, 0] == 0.0 and again.flags.writeable and again is not CenterBlock(np.ones(3)).J

    def test_rejects_unpaired(self):
        with pytest.raises(ValueError, match="must repeat its frequencies in both blocks"):
            CenterBlock.from_diagonal(np.diag([1.0, 2.0, 1.0, 3.0]))

    def test_rejects_nondiagonal(self):
        D = np.diag([1.0, 1.0])
        D[0, 1] = 0.5
        with pytest.raises(ValueError, match="centre block must be diagonal"):
            CenterBlock.from_diagonal(D)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="centre diagonal must have even dimension"):
            CenterBlock.from_diagonal(np.eye(3))

    @pytest.mark.parametrize(
        "omega, message",
        [
            ([], "omega must be a nonempty finite vector"),
            ([1.0, np.nan], "omega has a non-finite entry nan at index 1"),
            ([np.inf], "omega has a non-finite entry inf at index 0"),
            ([[1.0, 2.0]], "omega must be a nonempty finite vector"),
        ],
        ids=["omega0", "omega1", "omega2", "omega3"],
    )
    def test_rejects_what_no_centre_has(self, omega, message):
        with pytest.raises(ValueError) as raised:
            CenterBlock(omega)
        assert str(raised.value) == message

    @pytest.mark.parametrize("omega", [[1.0, 1.0], [0.0, 1.0], [1.0, -1.0], [1e308]])
    def test_accepts_any_finite_centre(self, omega):
        # the bracket's hypothesis is checked in majorize, not here
        block = CenterBlock(omega)
        assert np.array_equal(CenterBlock.from_diagonal(block.D).omega, block.omega)
