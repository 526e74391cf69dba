import numpy as np
import pytest

import ensemble_oracle
from homscat import classify
from homscat.classify import (
    RealizationError,
    center_reversal,
    check_reversibility,
    hessian_from_scattering,
    indefiniteness_ensemble,
    random_reversible_form,
    random_symplectic,
    realize_signature,
    reversible_signature,
)
from homscat.cli import to_json
from homscat.majorize import CenterBlock, hessian_bracket, indefinite_spectrum
from homscat.matkit import (
    center_diagonal,
    inertia,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
    symplectic_rotation,
)


def random_symmetric(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n))
    return scale * 0.5 * (raw + raw.T)


class TestHessianFromScattering:
    def test_identity_gives_zero(self):
        D = center_diagonal([1.0, 2.0])
        assert max_abs(hessian_from_scattering(np.eye(4), D)) == 0.0

    def test_rotations_give_zero(self):
        D = center_diagonal([1.0, 2.0])
        for theta in ([0.4, -1.2], [np.pi, 0.1]):
            H = hessian_from_scattering(symplectic_rotation(theta), D)
            assert max_abs(H) <= 1e-14

    def test_first_order_expansion(self):
        rng = np.random.default_rng(3)
        block = CenterBlock(np.array([1.0, 2.0]))
        B = random_symmetric(rng, 4)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            sigma = matrix_exponential(-eps * block.J @ B)
            H = hessian_from_scattering(sigma, block.D)
            gaps.append(max_abs(H / eps - hessian_bracket(block, B)) / eps)
        # the gap shrinks linearly in eps, so gap/eps is a stable constant
        assert max(gaps) <= 3.0 * min(gaps)

    def test_rejects_nonsymplectic(self):
        D = center_diagonal([1.0])
        with pytest.raises(ValueError):
            hessian_from_scattering(2.0 * np.eye(2), D)

    def test_stack_slices_match_single(self):
        D = center_diagonal([1.0, 2.0])
        rng = np.random.default_rng(17)
        sigmas = np.stack([random_symplectic(2, rng) for _ in range(5)])
        H = hessian_from_scattering(sigmas, D)
        for k in range(5):
            assert np.array_equal(H[k], hessian_from_scattering(sigmas[k], D))

    def test_rejects_one_nonsymplectic_slice(self):
        sigmas = np.stack([np.eye(2), 2.0 * np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match=r"not symplectic \(defect 3\.000e\+00\)"):
            hessian_from_scattering(sigmas, center_diagonal([1.0]))

    def test_output_symmetric(self):
        rng = np.random.default_rng(7)
        D = center_diagonal([1.0, 2.0])
        sigma = random_symplectic(2, rng)
        H = hessian_from_scattering(sigma, D)
        assert max_abs(H - H.T) <= 1e-9 * max(1.0, max_abs(H))


class TestFirstOrderHessian:
    def test_kernel_gives_zero(self):
        block = CenterBlock(np.array([1.0, 3.0]))
        B = np.diag([0.2, -0.9, 0.2, -0.9])
        assert max_abs(hessian_bracket(block, B)) == 0.0

    def test_signature_instance(self):
        block = CenterBlock(np.array([1.0]))
        H = hessian_bracket(block, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert inertia(H).inertia == (1, 1, 0)

    def test_traceless(self):
        rng = np.random.default_rng(6)
        block = CenterBlock(np.array([1.0, 2.0, 3.5]))
        for _ in range(10):
            assert abs(np.trace(hessian_bracket(block, random_symmetric(rng, 6)))) <= 1e-12


class TestClassifyHessian:
    def test_zero_is_degenerate(self):
        rep = inertia(np.zeros((4, 4)), 1e-9)
        assert rep.inertia == (0, 0, 4)
        assert rep.degenerate

    def test_two_by_two(self):
        assert inertia(np.array([[-2.0, 0.0], [0.0, 2.0]])).inertia == (1, 1, 0)


class TestIndefinitenessEnsemble:
    def test_never_definite_small(self):
        summary = indefiniteness_ensemble(center_diagonal([1.0]), trials=200, seed=101)
        assert summary.definite_positive == 0
        assert summary.definite_negative == 0
        # indefiniteness is two-sided: extremes straddle zero
        assert summary.largest_min_eigenvalue <= summary.tol
        assert summary.smallest_max_eigenvalue >= -summary.tol

    def test_never_definite_l3(self):
        D = center_diagonal([1.0, np.sqrt(2.0), np.pi / 2])
        summary = indefiniteness_ensemble(D, trials=150, seed=77)
        assert summary.definite_positive == 0
        assert summary.definite_negative == 0

    def test_deterministic(self):
        D = center_diagonal([1.0, 2.0])
        a = indefiniteness_ensemble(D, trials=50, seed=5)
        b = indefiniteness_ensemble(D, trials=50, seed=5)
        assert to_json(a) == to_json(b)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            indefiniteness_ensemble(center_diagonal([1.0]), trials=0, seed=1)

    @pytest.mark.parametrize("tol", [np.nan, -5.0, 0.0, np.inf])
    def test_rejects_tolerance_that_is_not_finite_positive(self, tol):
        # a NaN tolerance used to count nothing as definite, a negative one
        # every trial
        with pytest.raises(ValueError, match="finite positive"):
            indefiniteness_ensemble(center_diagonal([1.0]), trials=3, seed=1, tol=tol)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            indefiniteness_ensemble(center_diagonal([1.0]), trials=3, seed=-1)


OMEGAS = {1: [1.0], 2: [1.0, 1.7], 3: [1.0, np.sqrt(2.0), np.pi], 5: [1.0, 1.3, 2.0, 2.2, 3.1],
          8: list(np.linspace(1.0, 3.0, 8))}


class TestEnsembleMatchesSequentialOracle:
    @pytest.mark.parametrize("l", sorted(OMEGAS))
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_summary(self, l, seed):
        D = center_diagonal(OMEGAS[l])
        batched = indefiniteness_ensemble(D, trials=40, seed=seed)
        assert to_json(batched) == to_json(ensemble_oracle.indefiniteness_ensemble(D, 40, seed))

    @pytest.mark.parametrize("elements", [1, 1000])
    def test_summary_across_chunks(self, monkeypatch, elements):
        # l = 3 trials hold 5 * 36 entries, so 1000 entries make chunks of 5
        # trials and 1 entry chunks of one trial
        monkeypatch.setattr(classify, "_MAX_CHUNK_ELEMENTS", elements)
        D = center_diagonal(OMEGAS[3])
        batched = indefiniteness_ensemble(D, trials=23, seed=4)
        assert to_json(batched) == to_json(ensemble_oracle.indefiniteness_ensemble(D, 23, 4))

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_random_symplectic_draws(self, l):
        # same sigma and the same generator state afterwards, so that callers
        # drawing after it see the same numbers
        for seed in range(10):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(random_symplectic(l, rng), ensemble_oracle.random_symplectic(l, ref))
            assert rng.bit_generator.state == ref.bit_generator.state
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        sigma = random_symplectic(l, rng, max_factors=3, max_norm=1.0)
        assert np.array_equal(sigma, ensemble_oracle.random_symplectic(l, ref, max_factors=3, max_norm=1.0))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRealizeSignature:
    def test_l1(self):
        report = realize_signature(1, 1, [1.0], 1e-2)
        assert report.achieved.inertia == (1, 1, 0)

    def test_l2_m1(self):
        report = realize_signature(2, 1, [1.0, 2.0], 1e-2)
        assert report.achieved.inertia == (1, 3, 0)

    def test_l3_m5(self):
        report = realize_signature(3, 5, [1.0, np.sqrt(2.0), np.e], 1e-2)
        assert report.achieved.inertia == (5, 1, 0)

    def test_report_consistency(self):
        report = realize_signature(2, 2, [1.0, 2.0], 1e-2)
        assert np.array_equal(report.b, indefinite_spectrum(2, 2))
        assert report.first_order_gap <= report.gap_constant * report.eps_used + 1e-15
        assert max_abs(np.diag(report.G) - np.array([1.0, 1.0, -1.0, -1.0])) <= 1e-10
        doc = to_json(report)
        assert doc["l"] == 2 and doc["m"] == 2
        assert doc["sigma"]["dim"] == 4
        assert doc["achieved"]["n_pos"] == 2

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            realize_signature(2, 4, [1.0, 2.0], 1e-2)

    def test_rejects_omega_length_mismatch(self):
        with pytest.raises(ValueError):
            realize_signature(2, 1, [1.0], 1e-2)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            realize_signature(1, 1, [1.0], 0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_eps_that_is_not_finite(self, eps):
        with pytest.raises(ValueError, match="eps must be a finite positive number"):
            realize_signature(1, 1, [1.0], eps)

    def test_large_eps_recovers_by_halving(self):
        report = realize_signature(2, 1, [1.0, 2.0], 4.0)
        assert report.achieved.inertia == (1, 3, 0)
        assert report.eps_used < 4.0

    @pytest.mark.parametrize("eps", [1e-8, 1e-7])
    def test_tiny_eps_names_the_zero_tolerance(self, eps):
        # H ~ eps G has eigenvalues near eps * min|b| = eps, at or below the
        # 1e-7 floor of the zero tolerance; halving eps only moves further away
        with pytest.raises(RealizationError, match="zero tolerance") as info:
            realize_signature(2, 1, [1.0, 2.0], eps)
        assert f"eps = {eps:.3g}" in str(info.value)


class TestRotationQuotient:
    def test_hessian_invariant_under_rotations(self):
        rng = np.random.default_rng(19)
        D = center_diagonal([1.0, 2.0])
        for _ in range(20):
            sigma = random_symplectic(2, rng, max_factors=3, max_norm=1.0)
            theta = rng.uniform(-np.pi, np.pi, size=2)
            H1 = hessian_from_scattering(sigma, D)
            H2 = hessian_from_scattering(symplectic_rotation(theta) @ sigma, D)
            assert max_abs(H1 - H2) <= 1e-9


class TestCheckReversibility:
    def test_identity_passes(self):
        R = center_reversal(2)
        rep = check_reversibility(np.eye(4), R, 1e-10)
        assert rep.passed and rep.residual == 0.0

    def test_commuting_generator_passes(self):
        rng = np.random.default_rng(23)
        l = 2
        B = random_reversible_form(l, rng)
        sigma = matrix_exponential(-0.05 * standard_symplectic_form(l) @ B)
        rep = check_reversibility(sigma, center_reversal(l), 1e-9)
        assert rep.passed

    def test_generic_generator_fails(self):
        rng = np.random.default_rng(24)
        l = 2
        B = random_symmetric(rng, 2 * l)
        B[0, l] = B[l, 0] = 1.0  # force coupling across the reversal eigenspaces
        sigma = matrix_exponential(-0.3 * standard_symplectic_form(l) @ B)
        rep = check_reversibility(sigma, center_reversal(l), 1e-9)
        assert not rep.passed
        assert rep.residual > 1e-4

    def test_rejects_nonsymmetric_R(self):
        R = symplectic_rotation([0.3])
        with pytest.raises(ValueError, match="not symmetric"):
            check_reversibility(np.eye(2), R, 1e-8)

    def test_rejects_nonorthogonal_R(self):
        R = np.diag([2.0, 0.5])
        with pytest.raises(ValueError, match="not orthogonal"):
            check_reversibility(np.eye(2), R, 1e-8)

    def test_rejects_symplectic_R(self):
        # the identity is symmetric, orthogonal, involutive, but commutes with J
        with pytest.raises(ValueError, match="not antisymplectic"):
            check_reversibility(np.eye(2), np.eye(2), 1e-8)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_tolerance_that_is_not_finite_positive(self, tol):
        with pytest.raises(ValueError, match="finite positive"):
            check_reversibility(np.eye(2), center_reversal(1), tol)


class TestReversibleSignature:
    def test_identity_sigma_degenerate(self):
        D = center_diagonal([1.0, 2.0])
        rep = reversible_signature(np.eye(4), center_reversal(2), D, 1e-8)
        assert rep.inertia == (0, 0, 4)
        assert rep.degenerate

    def test_balanced_signature(self):
        for l, omega in ((1, [1.0]), (2, [1.0, 2.0])):
            rng = np.random.default_rng(100 + l)
            B = random_reversible_form(l, rng)
            sigma = matrix_exponential(-1e-2 * standard_symplectic_form(l) @ B)
            rep = reversible_signature(sigma, center_reversal(l), center_diagonal(omega), 1e-7)
            assert rep.inertia == (l, l, 0)

    def test_eigenvalues_pair(self):
        l = 3
        rng = np.random.default_rng(55)
        B = random_reversible_form(l, rng)
        sigma = matrix_exponential(-5e-3 * standard_symplectic_form(l) @ B)
        D = center_diagonal([1.0, 2.0, 3.0])
        rep = reversible_signature(sigma, center_reversal(l), D, 1e-7)
        w = rep.eigenvalues
        assert max_abs(w + w[::-1]) <= 1e-7

    def test_rejects_nonreversible_sigma(self):
        rng = np.random.default_rng(66)
        l = 2
        B = random_symmetric(rng, 2 * l)
        B[0, l] = B[l, 0] = 1.0
        sigma = matrix_exponential(-0.3 * standard_symplectic_form(l) @ B)
        with pytest.raises(ValueError, match="not reversible"):
            reversible_signature(sigma, center_reversal(l), center_diagonal([1.0, 2.0]), 1e-9)


class TestHelpers:
    def test_center_reversal_structure(self):
        R = center_reversal(3)
        J = standard_symplectic_form(3)
        assert np.array_equal(R, R.T)
        assert np.array_equal(R @ R, np.eye(6))
        assert max_abs(R @ J + J @ R) == 0.0

    def test_random_reversible_form_commutes(self):
        rng = np.random.default_rng(8)
        for l in (1, 2, 3):
            B = random_reversible_form(l, rng)
            R = center_reversal(l)
            assert max_abs(R @ B @ R - B) == 0.0
            assert max_abs(B - B.T) == 0.0

    def test_random_symplectic_is_symplectic(self):
        rng = np.random.default_rng(9)
        J = standard_symplectic_form(2)
        for _ in range(10):
            sigma = random_symplectic(2, rng)
            assert max_abs(sigma.T @ J @ sigma - J) <= 1e-9 * max(1.0, max_abs(sigma) ** 2)
