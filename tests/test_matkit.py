import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homscat.cli import to_json
from homscat.matkit import (
    center_diagonal,
    center_frequencies,
    classification_tol,
    eigh,
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

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            standard_symplectic_form(0)


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
        # max-row-sum norms 0.3 * 2**j need j squarings; shuffled so that the
        # slices are not already in order of their squaring counts
        rng = np.random.default_rng(12)
        M = rng.standard_normal((8, 5, 5))
        M /= np.max(np.sum(np.abs(M), axis=2), axis=1)[:, None, None]
        M *= 0.3 * 2.0 ** np.arange(8)[:, None, None]
        M = M[rng.permutation(8)]
        norms = np.max(np.sum(np.abs(M), axis=2), axis=1)
        squarings = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5))
        assert sorted(squarings) == list(range(8))
        E = matrix_exponential(M)
        assert E.shape == M.shape
        for k in range(8):
            assert np.array_equal(E[k], matrix_exponential(M[k]))

    def test_empty_stack(self):
        assert matrix_exponential(np.zeros((0, 3, 3))).shape == (0, 3, 3)

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


class TestEigh:
    def test_diagonal_sorted(self):
        w, _ = eigh(np.diag([2.0, -3.0, 0.0]))
        assert np.array_equal(w, np.array([2.0, 0.0, -3.0]))

    def test_2x2_closed_form(self):
        S = np.array([[1.0, np.sqrt(3.0)], [np.sqrt(3.0), -1.0]])
        w, V = eigh(S)
        assert max_abs(w - np.array([2.0, -2.0])) <= 1e-12
        assert max_abs(S @ V - V @ np.diag(w)) <= 1e-12

    def test_identity(self):
        w, V = eigh(np.eye(4))
        assert np.array_equal(w, np.ones(4))
        assert max_abs(V.T @ V - np.eye(4)) <= 1e-12

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_slices_match_single(self):
        rng = np.random.default_rng(13)
        S = np.stack([random_symmetric(rng, 6, scale) for scale in (1e-3, 1.0, 50.0, 1.0)])
        w, V = eigh(S)
        assert w.shape == (4, 6) and V.shape == (4, 6, 6)
        for k in range(4):
            wk, Vk = eigh(S[k])
            assert np.array_equal(w[k], wk) and np.array_equal(V[k], Vk)

    def test_empty_stack(self):
        w, V = eigh(np.zeros((0, 4, 4)))
        assert w.shape == (0, 4) and V.shape == (0, 4, 4)

    def test_rejects_one_asymmetric_slice(self):
        # the check is per slice: 1e-6 asymmetry is within tolerance for the
        # slice of scale 1e5 but not for the unit-scale one
        S = np.stack([np.eye(3), 1e5 * np.eye(3), np.eye(3)])
        S[1, 0, 1] += 1e-6
        eigh(S)
        S[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match=r"not symmetric \(asymmetry 1\.000e-06\)"):
            eigh(S)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_reconstruction(self, n, seed):
        S = random_symmetric(np.random.default_rng(seed), n, scale=3.0)
        w, V = eigh(S)
        scale = max(1.0, max_abs(S))
        assert max_abs(V @ np.diag(w) @ V.T - S) <= 1e-8 * scale
        assert max_abs(V.T @ V - np.eye(n)) <= 1e-10
        assert max_abs(S @ V - V @ np.diag(w)) <= 1e-8 * scale
        assert np.all(np.diff(w) <= 1e-14)


class TestInertia:
    def test_mixed_diagonal(self):
        assert inertia(np.diag([2.0, -3.0, 0.0]), 1e-9).inertia == (1, 1, 1)

    def test_zero_matrix(self):
        rep = inertia(np.zeros((4, 4)), 1e-3)
        assert rep.inertia == (0, 0, 4)
        assert rep.degenerate

    def test_first_order_instance(self):
        assert inertia(np.array([[-2.0, 0.0], [0.0, 2.0]])).inertia == (1, 1, 0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
    def test_rejects_tolerance_that_is_not_finite_positive(self, tol):
        with pytest.raises(ValueError, match="finite positive"):
            inertia(np.diag([1.0, -1.0]), tol)

    def test_default_tolerance_scales(self):
        assert classification_tol(np.eye(2)) == pytest.approx(1e-7)
        assert classification_tol(100.0 * np.eye(2)) == pytest.approx(1e-5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_invariant_under_orthogonal_conjugation(self, n, seed):
        rng = np.random.default_rng(seed)
        S = random_symmetric(rng, n, scale=2.0)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert inertia(Q.T @ S @ Q, 1e-9).inertia == inertia(S, 1e-9).inertia

    def test_report_json(self):
        doc = to_json(inertia(np.diag([1.0, -1.0]), 1e-9))
        assert doc["n_pos"] == 1 and doc["n_neg"] == 1 and doc["n_zero"] == 0
        assert doc["eigenvalues"] == [1.0, -1.0]


class TestCenterDiagonal:
    def test_build_and_recover(self):
        w = np.array([1.0, 2.5])
        D = center_diagonal(w)
        assert np.array_equal(D, np.diag([1.0, 2.5, 1.0, 2.5]))
        assert np.array_equal(center_frequencies(D), w)

    def test_rejects_unpaired(self):
        with pytest.raises(ValueError):
            center_frequencies(np.diag([1.0, 2.0, 1.0, 3.0]))

    def test_rejects_nondiagonal(self):
        D = np.diag([1.0, 1.0])
        D[0, 1] = 0.5
        with pytest.raises(ValueError):
            center_frequencies(D)
