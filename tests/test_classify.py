import json
import sys
import warnings

import numpy as np
import pytest

import ensemble_oracle
import mirsky_oracle
import realize_oracle
from homscat import classify
from homscat.classify import (
    RealizationError,
    center_reversal,
    hessian_from_scattering,
    indefiniteness_ensemble,
    realize_signature,
    reversible_signature,
)
from homscat.cli import main, to_json
from homscat.majorize import _solve_bracket, hessian_bracket, indefinite_spectrum
from homscat.matkit import (
    CenterBlock,
    inertia,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
    symplectic_rotation,
)
from reversible_forms import random_reversible_form


def random_symmetric(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n))
    return scale * 0.5 * (raw + raw.T)


class TestHessianFromScattering:
    def test_identity_gives_zero(self):
        D = CenterBlock([1.0, 2.0]).D
        assert max_abs(hessian_from_scattering(np.eye(4), D)) == 0.0

    def test_rotations_give_zero(self):
        D = CenterBlock([1.0, 2.0]).D
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
        D = CenterBlock([1.0]).D
        with pytest.raises(ValueError):
            hessian_from_scattering(2.0 * np.eye(2), D)

    # the ensemble forms the Hessians of a stack of sigmas with classify._hessian
    def test_stack_slices_match_single(self):
        block = CenterBlock([1.0, 2.0])
        sigmas = classify._random_symplectics(block, ensemble_oracle.ensemble_streams(17), 5)
        H = classify._hessian(sigmas, block)
        for k in range(5):
            assert np.array_equal(H[k], classify._hessian(sigmas[k], block))
            assert np.array_equal(H[k], hessian_from_scattering(sigmas[k], block.D))

    def test_rejects_one_nonsymplectic_slice(self):
        sigmas = np.stack([np.eye(2), 2.0 * np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match=r"not symplectic \(defect 3\.000e\+00\)"):
            classify._hessian(sigmas, CenterBlock([1.0]))

    def test_overflowing_defect_is_rejected_without_a_warning(self):
        # forming the defect warned "overflow encountered in matmul"
        with pytest.raises(ValueError, match=r"not symplectic \(defect inf\)"):
            hessian_from_scattering(np.diag([1e200, 1e200]), CenterBlock([1.0]).D)

    def test_nan_defect_is_rejected(self):
        # the test "defect > tol" let a NaN defect pass as symplectic
        with pytest.raises(ValueError, match=r"not symplectic \(defect nan\)"):
            classify._require_symplectic(np.float64(np.nan))

    def test_hessian_beyond_the_float_range_names_omega_and_sigma(self):
        # it warned twice in the matmul and returned an array of inf and NaN
        with pytest.raises(ArithmeticError, match=r"max\|omega\| = 1e\+308 and max\|sigma\| = 2"):
            hessian_from_scattering(np.diag([2.0, 0.5]), np.diag([1e308, 1e308]))

    def test_output_symmetric(self):
        rng = np.random.default_rng(7)
        D = CenterBlock([1.0, 2.0]).D
        sigma = ensemble_oracle.random_symplectic(2, rng)
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
        rep = inertia(np.zeros((4, 4)))
        assert rep.inertia == (0, 0, 4)
        assert rep.degenerate

    def test_two_by_two(self):
        assert inertia(np.array([[-2.0, 0.0], [0.0, 2.0]])).inertia == (1, 1, 0)


class TestIndefinitenessEnsemble:
    def test_never_definite_small(self):
        summary = indefiniteness_ensemble(CenterBlock([1.0]).D, trials=200, seed=101)
        assert summary.definite_positive == 0
        assert summary.definite_negative == 0
        # indefiniteness is two-sided: extremes straddle zero
        assert summary.largest_min_eigenvalue <= summary.tol
        assert summary.smallest_max_eigenvalue >= -summary.tol

    def test_never_definite_l3(self):
        D = CenterBlock([1.0, np.sqrt(2.0), np.pi / 2]).D
        summary = indefiniteness_ensemble(D, trials=150, seed=77)
        assert summary.definite_positive == 0
        assert summary.definite_negative == 0

    def test_deterministic(self):
        D = CenterBlock([1.0, 2.0]).D
        a = indefiniteness_ensemble(D, trials=50, seed=5)
        b = indefiniteness_ensemble(D, trials=50, seed=5)
        assert to_json(a) == to_json(b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            indefiniteness_ensemble(CenterBlock([1.0]).D, trials=3, seed=-1)


class TestSameSignCertificate:
    """The two-trace argument of the classify docstring: for omega of one sign and
    T = |D|^(1/2) sigma |D|^(-1/2), tr(D^-1 H) = |T|_F^2 - 2l > 0, and for sigma^-1
    -tr(sigma^-1 D^-1 sigma^-T H) = |D^(-1/2) sigma D^(1/2)|_F^2 - 2l > 0."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    def test_both_traces_are_positive_and_are_frobenius_norms(self, l, sign):
        block = CenterBlock(sign * (1.0 + 0.5 * np.arange(l)))
        d = np.diag(block.D)
        root = np.sqrt(np.abs(d))
        rng = np.random.default_rng((35, l, sign > 0))
        for _ in range(20):
            sigma = ensemble_oracle.random_symplectic(l, rng)
            H = hessian_from_scattering(sigma, block.D)
            inverse = -block.J @ sigma.T @ block.J
            first, second = np.trace(H / d[:, None]), -np.trace(inverse @ (inverse.T / d[:, None]) @ H)
            for trace, T in ((first, root[:, None] * sigma / root), (second, sigma * root / root[:, None])):
                norm = np.sum(T * T)
                assert abs(trace - (norm - 2 * l)) <= 1e-12 * norm
                assert trace > 0.0
            if l == 1:
                assert max_abs(H) > 0.0 and inertia(H).inertia == (1, 1, 0)


OMEGAS = {1: [1.0], 2: [1.0, 1.7], 3: [1.0, np.sqrt(2.0), np.pi], 5: [1.0, 1.3, 2.0, 2.2, 3.1],
          8: list(np.linspace(1.0, 3.0, 8))}


class TestEnsembleMatchesSequentialOracle:
    @pytest.mark.parametrize("l", sorted(OMEGAS))
    # seeds beyond 64 bits pin the directly built streams to SeedSequence(seed).spawn(3)
    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**64, 2**100])
    def test_summary(self, l, seed):
        D = CenterBlock(OMEGAS[l]).D
        batched = indefiniteness_ensemble(D, trials=40, seed=seed)
        assert to_json(batched) == to_json(ensemble_oracle.indefiniteness_ensemble(D, 40, seed))

    @pytest.mark.parametrize(
        "omega, trials, elements, chunk",
        [
            # l = 3 trials hold 5 * 36 entries, so 1 entry makes chunks of one
            # trial and 1000 entries chunks of 5 trials
            (OMEGAS[3], 23, 1, 1),
            (OMEGAS[3], 23, 1000, 5),
            # the default chunking runs 2000 trials at l = 6 in 91 chunks of 22
            ([1.0, 1.5, 2.0, 2.5, 3.0, 3.5], 2000, None, 22),
        ],
        ids=["1", "1000", "default-l6"],
    )
    def test_summary_across_chunks(self, monkeypatch, tmp_path, omega, trials, elements, chunk):
        # the indefinite report must equal the oracle's summary, encoded by the same
        # cli.to_json, in every field; the summary's two extremes miss a reversed or
        # shortened product, so every sigma drawn in chunks is compared as well
        if elements is not None:
            monkeypatch.setattr(classify, "_MAX_CHUNK_ELEMENTS", elements)
        block, out = CenterBlock(omega), tmp_path / "report.json"
        omega_flag = "--omega=" + ",".join(repr(float(w)) for w in omega)
        assert main(["indefinite", "--l", str(block.l), omega_flag, "--trials", str(trials), "--seed", "4",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for key in ("command", "pass", "timestamp"):
            report.pop(key)
        assert report == to_json(ensemble_oracle.indefiniteness_ensemble(block.D, trials, 4))
        streams, sequential = ensemble_oracle.ensemble_streams(4), ensemble_oracle.ensemble_streams(4)
        sigmas = np.concatenate(
            [classify._random_symplectics(block, streams, min(chunk, trials - k)) for k in range(0, trials, chunk)]
        )
        oracle = [ensemble_oracle._draw_sigma(block.l, sequential, 5, 2.0) for _ in range(trials)]
        differ = [k for k in range(trials) if not np.array_equal(sigmas[k], oracle[k])]
        assert len(sigmas) == trials and not differ, f"sigmas of trials {differ[:10]} differ from the oracle"

    def test_overflow_message_across_chunks(self, monkeypatch):
        # it named max|sigma| over the whole overflowing chunk: 2.34 at the
        # default chunk size, 1.95 with chunks of one trial
        def message():
            with pytest.raises(ArithmeticError) as raised:
                indefiniteness_ensemble(CenterBlock([1e308]).D, trials=5, seed=1)
            return str(raised.value)

        default = message()
        monkeypatch.setattr(classify, "_MAX_CHUNK_ELEMENTS", 1)
        assert message() == default
        assert "max|sigma| = 1.95" in default

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_random_symplectic_draws(self, l):
        # one draw with one generator for all three streams: the same sigma and
        # the same generator state afterwards, so the kernel reads the count,
        # the raw generators and the norms in the oracle's order
        for seed in range(10):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(one_draw(l, rng), ensemble_oracle.random_symplectic(l, ref))
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_zero_generator_is_skipped(self, l):
        # the first generator's symmetric part is exactly zero, so both skip
        # that factor and discard its norm; seeds 11 and 14 draw one factor,
        # so sigma is I
        skipped_only = 0
        for seed in range(15):
            rng, ref = AntisymmetricDraws(seed, 2 * l, [0]), AntisymmetricDraws(seed, 2 * l, [0])
            sigma = one_draw(l, rng)
            assert np.array_equal(sigma, ensemble_oracle.random_symplectic(l, ref))
            assert rng.bit_generator.state == ref.bit_generator.state
            skipped_only += np.array_equal(sigma, np.eye(2 * l))
        assert skipped_only == 2

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_zero_generators_are_skipped_in_a_stack(self, l):
        # the first ten raw draws take all of trial 0 and more, so trial 0
        # has no factor left, and each stream ends where the oracle's does
        def streams():
            return np.random.default_rng(100), AntisymmetricDraws(101, 2 * l, range(10)), np.random.default_rng(102)

        batched = streams()
        sigmas = classify._random_symplectics(CenterBlock(np.ones(l)), batched, 15)
        sequential = streams()
        for k in range(15):
            assert np.array_equal(sigmas[k], ensemble_oracle._draw_sigma(l, sequential, 5, 2.0))
        assert np.array_equal(sigmas[0], np.eye(2 * l))
        for stream, ref in zip(batched, sequential):
            assert stream.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("l", [1, 3, 8])
    def test_first_trials_of_a_stack_are_a_shorter_stack(self, l):
        block = CenterBlock(OMEGAS[l])
        long = classify._random_symplectics(block, ensemble_oracle.ensemble_streams(5), 30)
        for k in (1, 7, 29):
            short = classify._random_symplectics(block, ensemble_oracle.ensemble_streams(5), k)
            assert np.array_equal(long[:k], short)

    @pytest.mark.parametrize("spectrum", ["positive", "negative", "mixed"])
    @pytest.mark.parametrize("l", [1, 3])
    def test_spectral_norm_from_the_end_eigenvalues(self, l, spectrum):
        # generators of one sign put the largest magnitude at one end of the
        # ascending spectrum, mixed ones at either; the kernel's norm must be
        # max|w| to the bit, so that every sigma is the oracle's
        d = 2 * l
        X = np.random.default_rng((41, l)).standard_normal((60, d, d))
        definite = X @ X.swapaxes(1, 2) + 0.1 * np.eye(d)
        raw = {"positive": definite, "negative": -definite, "mixed": X}[spectrum]
        w = np.linalg.eigvalsh(0.5 * (raw + raw.swapaxes(1, 2)))
        ends = -w[:, 0] > w[:, -1]
        assert {"positive": not ends.any(), "negative": ends.all(), "mixed": 0 < ends.sum() < 60}[spectrum]
        assert np.array_equal(np.maximum(-w[:, 0], w[:, -1]), np.abs(w).max(axis=-1))

        def streams():
            return np.random.default_rng(7), ListedDraws(raw), np.random.default_rng(8)

        sigmas = classify._random_symplectics(CenterBlock(np.ones(l)), streams(), 12)
        sequential = streams()
        for k in range(12):
            assert np.array_equal(sigmas[k], ensemble_oracle._draw_sigma(l, sequential, 5, 2.0))

    @pytest.mark.parametrize("counts", [[3, 0, 5, 1, 2], [0, 0], [2]])
    def test_factor_stack_is_the_tiled_identity_holding_the_factors(self, counts):
        counts, d = np.array(counts), 4
        factors = np.random.default_rng(9).standard_normal((counts.sum(), d, d))
        expected = np.tile(np.eye(d), (counts.size, max(1, counts.max()), 1, 1))
        for k, start in enumerate(np.cumsum(counts) - counts):
            expected[k, : counts[k]] = factors[start : start + counts[k]]
        assert np.array_equal(classify._factor_stack(factors, counts), expected)


class TestTotalResonance:
    """The total-resonance lock of the classify docstring: with every omega_i =
    omega, H = omega (sigma^T sigma - I), whose eigenvalues omega (mu - 1) pair
    through mu, 1/mu, so its inertia is (r, r, 2l - 2r)."""

    @pytest.mark.parametrize(
        "omega, seed, draws",
        [((1.0, 1.0), (6, 2), 500), ((1.0, 1.0, 1.0), (6, 3), 500), ((2.0, 2.0, 2.0), (6, 3), 500),
         ((-1.5, -1.5), (6, 2), 500), ((1.0,) * 6, 4, 2000)],
        ids=["l2", "l3", "l3-omega2", "l2-negative", "l6"],
    )
    def test_signature_is_balanced_and_eigenvalues_pair(self, omega, seed, draws):
        block = CenterBlock(omega)
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            sigma = ensemble_oracle.random_symplectic(block.l, rng)
            report = inertia(hessian_from_scattering(sigma, block.D))
            assert report.n_pos == report.n_neg
            # descending eigenvalues: mu_i pairs with mu_(2l - 1 - i) for either sign of omega
            mu = 1.0 + report.eigenvalues / omega[0]
            assert np.abs(mu * mu[::-1] - 1.0).max() <= 1e-10 * max(1.0, max_abs(sigma)) ** 2


def one_draw(l, rng):
    """One sigma of the ensemble kernel, with rng as all three of its streams."""
    return classify._random_symplectics(CenterBlock(np.ones(l)), (rng, rng, rng), 1)[0]


class ListedDraws:
    """A standard normal stream that hands out the entries of the given
    matrices in order, whether drawn in one call or one at a time."""

    def __init__(self, matrices):
        self.entries, self.drawn = np.ravel(matrices), 0

    def standard_normal(self, shape=None):
        size = 1 if shape is None else int(np.prod(shape))
        out = self.entries[self.drawn : self.drawn + size]
        self.drawn += size
        return float(out[0]) if shape is None else out.reshape(shape)


class AntisymmetricDraws:
    """default_rng(seed), except that the raw generators with the given
    indices in its standard normal stream, d x d draws each whether made in
    one call or one at a time, are the antisymmetric r - c at entry (r, c)."""

    def __init__(self, seed, d, indices):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.d, self.indices, self.drawn = d, list(indices), 0

    def integers(self, low, high, size=None):
        return self.rng.integers(low, high, size=size)

    def uniform(self, low, high, size=None):
        return self.rng.uniform(low, high, size=size)

    def standard_normal(self, shape=None):
        raw = np.array(self.rng.standard_normal(shape))
        flat = raw.reshape(-1)
        matrix, entry = np.divmod(self.drawn + np.arange(flat.size), self.d * self.d)
        self.drawn += flat.size
        row, col = np.divmod(entry, self.d)
        zeroed = np.isin(matrix, self.indices)
        flat[zeroed] = (row - col)[zeroed]
        return raw if shape is not None else float(raw)


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
        # the gap is max|H / eps - bracket(B)| of the report's own sigma, B and omega
        block = CenterBlock([1.0, 2.0])
        H = hessian_from_scattering(report.sigma, block.D)
        gap = max_abs(H / report.eps_used - hessian_bracket(block, report.B))
        assert report.first_order_gap == gap and report.gap_constant == gap / report.eps_used
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

    def test_very_large_eps_is_halved_not_blamed_on_the_tolerance(self):
        # the zero tolerance 1e-7 * max(1, |H|) grows with the second-order
        # Hessian, so eps = 100 used to raise at once, naming a tolerance of 9.16e+25
        report = realize_signature(2, 1, [1.0, 2.0], 100.0)
        assert report.achieved.inertia == (1, 3, 0)
        assert report.eps_used == 1.5625

    @pytest.mark.parametrize("eps", [1e-8, 1e-7])
    def test_tiny_eps_names_the_zero_tolerance(self, eps):
        # H ~ eps G has eigenvalues near eps * min|b| = eps, at or below the
        # 1e-7 floor of the zero tolerance; halving eps only moves further away
        with pytest.raises(RealizationError, match="zero tolerance") as info:
            realize_signature(2, 1, [1.0, 2.0], eps)
        assert f"eps = {eps:.3g}" in str(info.value)


def seeded_omega(l):
    return 1.0 + 0.5 * np.arange(l) + np.random.default_rng((7, l)).uniform(0.0, 0.25, l)


def realize_errors(exc_type, *args):
    with pytest.raises(exc_type) as expected:
        realize_oracle.realize_signature(*args)
    with pytest.raises(exc_type) as got:
        realize_signature(*args)
    return str(got.value), str(expected.value)


class TestRealizeMatchesOracle:
    """The realize path checks each input once and forms each quantity once;
    tests/realize_oracle.py keeps the path that re-checked and recomputed."""

    # eps = 1 halves eps in 112 of the 144 cases, up to 3 times
    @pytest.mark.parametrize("eps", [1e-2, 1.0])
    def test_every_signature_up_to_l12(self, eps):
        halved = 0
        for l in range(1, 13):
            omega = seeded_omega(l)
            for m in range(1, 2 * l):
                report = realize_signature(l, m, omega, eps)
                expected = realize_oracle.realize_signature(l, m, omega, eps)
                assert json.dumps(to_json(report)) == json.dumps(to_json(expected)), (l, m)
                halved += report.eps_used < eps
        assert halved > 0 if eps == 1.0 else halved == 0

    @pytest.mark.parametrize("l, m, eps", [(3, 2, 50.0), (3, 2, 300.0), (4, 4, 300.0)])
    def test_off_symplectic_attempt_is_a_miss(self, l, m, eps):
        # the first exp(-eps J B) is off symplectic by more than 1e-7: it used to
        # raise ValueError, an input error, although the caller gave no sigma
        omega = [1.0, 1.5, 2.25, 3.375][:l]
        block = CenterBlock(omega)
        JB = block.J @ _solve_bracket(block, mirsky_oracle.mirsky_matrix(
            np.repeat([1.0, -1.0], l), indefinite_spectrum(l, m)))[0]
        sigma = matrix_exponential(-eps * JB)
        H = sigma.T @ block.D @ sigma - block.D
        assert np.isfinite(H).all()  # not the overflow rule, which raises at once
        assert max_abs(sigma.T @ block.J @ sigma - block.J) > classify._SYMPLECTIC_PRECONDITION_TOL
        report = realize_signature(l, m, omega, eps)
        assert report.eps_used < eps and report.achieved.inertia == (m, 2 * l - m, 0)
        assert json.dumps(to_json(report)) == json.dumps(to_json(realize_oracle.realize_signature(l, m, omega, eps)))

    @pytest.mark.parametrize("l, eps", [(2, 1e-8), (2, 1e-7), (1, 1e300), (1, 1e3), (3, 1e300)])
    def test_same_errors(self, l, eps):
        exc_type = RealizationError if eps < 1.0 else ArithmeticError
        got, expected = realize_errors(exc_type, l, 1, seeded_omega(l), eps)
        assert got == expected

    def test_same_error_when_the_halvings_run_out(self, monkeypatch):
        monkeypatch.setattr(classify, "_REALIZE_MAX_HALVINGS", 2)
        monkeypatch.setattr(realize_oracle, "_REALIZE_MAX_HALVINGS", 2)
        got, expected = realize_errors(RealizationError, 2, 1, [1.0, 2.0], 100.0)
        assert got == expected and "after 2 halvings" in got

    @pytest.mark.parametrize("seed", range(4))
    def test_public_kernels(self, seed):
        rng = np.random.default_rng(seed)
        l = 1 + seed
        block = CenterBlock(seeded_omega(l))
        G = hessian_bracket(block, random_symmetric(rng, 2 * l))
        G += 1e-12 * random_symmetric(rng, 2 * l)
        assert np.array_equal(_solve_bracket(block, G)[0], realize_oracle.solve_bracket(block, G))
        S = G + 1e-12 * rng.standard_normal(G.shape)
        assert to_json(inertia(S)) == to_json(realize_oracle.inertia(S))
        # scaled to the tolerance floor 1e-7, the eigenvalues below 2 in magnitude count as zero
        assert to_json(inertia(5e-8 * S)) == to_json(realize_oracle.inertia(5e-8 * S))


class TestSignatureTargetCache:
    """The spectrum and the Mirsky target are kept per (l, m); omega and eps
    enter only after them, so a kept target changes no report."""

    @pytest.mark.parametrize("first, second", [(0, 1), (1, 0)])
    def test_two_omegas_share_a_target(self, first, second):
        omegas = [[1.0, 1.5, 2.25], seeded_omega(3)]
        classify._signature_target.cache_clear()
        for k in (first, second):
            report = realize_signature(3, 2, omegas[k], 1e-2)
            expected = realize_oracle.realize_signature(3, 2, omegas[k], 1e-2)
            assert json.dumps(to_json(report)) == json.dumps(to_json(expected)), k
        assert classify._signature_target.cache_info().hits == 1

    def test_every_spectrum_has_min_abs_b_one(self):
        # the stop rule tests eps itself against the floor, for eps * min|b|
        for l in range(1, 41):
            for m in range(1, 2 * l):
                assert np.abs(indefinite_spectrum(l, m)).min() == 1.0, (l, m)

    def test_mutating_a_report_changes_no_later_report(self):
        omega = [1.0, 2.0]
        expected = json.dumps(to_json(realize_oracle.realize_signature(2, 1, omega, 1e-2)))
        report = realize_signature(2, 1, omega, 1e-2)
        report.b[:] = 7.0
        report.G[:] = 7.0
        assert json.dumps(to_json(realize_signature(2, 1, omega, 1e-2))) == expected

    def test_an_out_of_range_m_raises_on_every_call(self):
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError, match="m must lie in 1..3, got 4") as info:
                realize_signature(2, 4, [1.0, 2.0], 1e-2)
            messages.add(str(info.value))
        assert len(messages) == 1


class TestRotationQuotient:
    def test_hessian_invariant_under_rotations(self):
        rng = np.random.default_rng(19)
        D = CenterBlock([1.0, 2.0]).D
        for _ in range(20):
            sigma = ensemble_oracle.random_symplectic(2, rng, max_factors=3, max_norm=1.0)
            theta = rng.uniform(-np.pi, np.pi, size=2)
            H1 = hessian_from_scattering(sigma, D)
            H2 = hessian_from_scattering(symplectic_rotation(theta) @ sigma, D)
            assert max_abs(H1 - H2) <= 1e-9


class TestCheckReversibility:
    # the reversibility report, the first item reversible_signature returns
    def test_identity_passes(self):
        rep = reversible_signature(np.eye(4), CenterBlock([1.0, 2.0]))[0]
        assert rep.passed and rep.residual == 0.0

    def test_commuting_generator_passes(self):
        rng = np.random.default_rng(23)
        l = 2
        B = random_reversible_form(l, rng)
        sigma = matrix_exponential(-0.05 * standard_symplectic_form(l) @ B)
        rep = reversible_signature(sigma, CenterBlock([1.0, 2.0]))[0]
        assert rep.passed

    def test_generic_generator_fails(self):
        rng = np.random.default_rng(24)
        l = 2
        B = random_symmetric(rng, 2 * l)
        B[0, l] = B[l, 0] = 1.0  # force coupling across the reversal eigenspaces
        sigma = matrix_exponential(-0.3 * standard_symplectic_form(l) @ B)
        rep = reversible_signature(sigma, CenterBlock([1.0, 2.0]))[0]
        assert not rep.passed
        assert rep.residual > 1e-4

    def test_rejects_odd_dimension(self):
        # it was "scattering matrix must have even dimension, got 3", from a
        # check that read l from sigma before the centre block was consulted
        with pytest.raises(ValueError, match="scattering matrix has dimension 3 but the centre block 2"):
            reversible_signature(np.eye(3), CenterBlock([1.0]))

    @pytest.mark.parametrize(
        "sigma", [np.diag([1e200, 1e-200]), np.full((2, 2), 1e200)], ids=["overflow", "inf-minus-inf"]
    )
    def test_residual_beyond_the_float_range_fails_without_a_warning(self, sigma):
        # sigma R sigma overflowed with a RuntimeWarning, and inf - inf left a NaN residual;
        # then the failed check raised "not reversible" where the CLI reported it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep, signature = reversible_signature(sigma, CenterBlock([1.0]))
        assert rep.residual == np.inf and not rep.passed
        assert signature is None


class TestReversibleSignature:
    def test_identity_sigma_degenerate(self):
        rev, rep = reversible_signature(np.eye(4), CenterBlock([1.0, 2.0]))
        assert rev.passed
        assert rep.inertia == (0, 0, 4)
        assert rep.degenerate

    def test_balanced_signature(self):
        # zeroing k pairs of B (rows and columns i and l + i) makes sigma the identity
        # on those planes, so the cross block has rank r = l - k: (r, r, 2l - 2r)
        for l, omega in ((1, [1.0]), (2, [1.0, 2.0]), (3, [1.0, 1.5, 2.0])):
            block = CenterBlock(omega)
            for k in range(l + 1):
                B = random_reversible_form(l, np.random.default_rng(100 + l))
                pairs = [*range(k), *range(l, l + k)]
                B[pairs, :] = B[:, pairs] = 0.0
                for eps in (1e-2, 1.0):
                    sigma = matrix_exponential(-eps * standard_symplectic_form(l) @ B)
                    _, rep = reversible_signature(sigma, block)
                    assert rep.inertia == (l - k, l - k, 2 * k)
                    assert rep.inertia == inertia(hessian_from_scattering(sigma, block.D)).inertia

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    def test_hessian_vanishes_on_both_fixed_spaces(self, l):
        # A = R sigma is an involution, and sigma^T D sigma = A^T D A; the bases are the
        # +-1 eigenvectors of eig(A), not the SVD that reversible_signature takes
        block = CenterBlock(1.0 + 0.5 * np.arange(l))
        R = center_reversal(l)
        for eps in (1e-3, 0.1, 1.0, 3.0, 8.0):
            for seed in range(5):
                B = random_reversible_form(l, np.random.default_rng((l, seed)))
                sigma = matrix_exponential(-eps * standard_symplectic_form(l) @ (B / max_abs(B)))
                H = sigma.T @ block.D @ sigma - block.D
                w, V = np.linalg.eig(R @ sigma)
                for sign in (1.0, -1.0):
                    P = V[:, np.abs(w - sign) < 0.5]
                    assert P.shape[1] == l
                    # eig may return complex vectors; H vanishes on the complexified space too
                    assert np.abs(P.conj().T @ H @ P).max() <= 1e-12 * max_abs(sigma) ** 2 * max_abs(block.omega)

    def test_eigenvalues_pair(self):
        l = 3
        rng = np.random.default_rng(55)
        B = random_reversible_form(l, rng)
        sigma = matrix_exponential(-5e-3 * standard_symplectic_form(l) @ B)
        _, rep = reversible_signature(sigma, CenterBlock([1.0, 2.0, 3.0]))
        w = rep.eigenvalues
        assert max_abs(w + w[::-1]) <= 1e-7

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_strong_coupling(self, l):
        # the raw Hessian's rounding, of the size of |sigma|^2 (up to about 1e5
        # here), survived the square-root congruence as an asymmetry, and 17 of
        # these 80 cases raised "inertia input is not symmetric"
        block = CenterBlock(1.0 + 0.5 * np.arange(l))
        for seed in range(20):
            B = random_reversible_form(l, np.random.default_rng((l, seed)))
            sigma = matrix_exponential(-8.0 * standard_symplectic_form(l) @ (B / max_abs(B)))
            rev, rep = reversible_signature(sigma, block)
            if not rev.passed:
                assert rep is None
                continue
            w = rep.eigenvalues
            assert rep.inertia == (l, l, 0)
            assert max_abs(w + w[::-1]) <= 1e-6 * max(1.0, max_abs(w))

    def test_transformed_hessian_beyond_the_float_range(self):
        # the raw Hessian overflows at omega = 1e308; the cross block P-^T D P+ is
        # bounded by max|omega|, so every omega in the float range classifies, without
        # a warning, with eigenvalues +-omega tanh(1)
        sigma = np.array([[np.cosh(1.0), np.sinh(1.0)], [np.sinh(1.0), np.cosh(1.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for omega in (1e308, 1.7e308, sys.float_info.max):
                rep = reversible_signature(sigma, CenterBlock([omega]))[1]
                assert rep.inertia == (1, 1, 0)
                expected = omega * np.tanh(1.0) * np.array([1.0, -1.0])
                assert np.all(np.abs(rep.eigenvalues / expected - 1.0) <= 1e-12)

    def test_rejects_nonreversible_sigma(self):
        # a failed check raised "not reversible" here, while the CLI reported it
        # with exit 1; now both report it, with no signature to misuse
        rng = np.random.default_rng(66)
        l = 2
        B = random_symmetric(rng, 2 * l)
        B[0, l] = B[l, 0] = 1.0
        sigma = matrix_exponential(-0.3 * standard_symplectic_form(l) @ B)
        rev, rep = reversible_signature(sigma, CenterBlock([1.0, 2.0]))
        assert not rev.passed and rev.residual > 1e-4 and rev.tol == 1e-7 * max_abs(sigma) > 1e-7
        assert rep is None

    def test_bound_scales_with_sigma_above_one(self):
        # the residual's round-off grows with |sigma|: the bound is 1e-7 max(1, max|sigma|),
        # 1e-7 for a rotation, and 1e-6 for a boost of max|sigma| 10.07
        center = CenterBlock([1.0])
        rotation = np.array([[np.cos(0.7), np.sin(0.7)], [-np.sin(0.7), np.cos(0.7)]])
        assert reversible_signature(rotation, center)[0].tol == 1e-7
        boost = np.array([[np.cosh(3.0), np.sinh(3.0)], [np.sinh(3.0), np.cosh(3.0)]])
        for delta, passed in ((0.0, True), (1.5e-9, True), (1.5e-7, False)):
            sigma = boost @ np.diag([1.0 + delta, 1.0 / (1.0 + delta)])  # reversible only at delta = 0
            rev, rep = reversible_signature(sigma, center)
            assert rev.tol == 1e-7 * max_abs(sigma) and rev.passed is passed and (rep is not None) is passed
            # delta = 1.5e-9 leaves a residual of 3e-7, which the absolute 1e-7 refused
            assert delta != 1.5e-9 or 1e-7 < rev.residual < 1e-6
        # near max|sigma| = 1 the same residual still fails
        assert not reversible_signature(np.diag([1.0 + 1.5e-7, 1.0 / (1.0 + 1.5e-7)]), center)[0].passed

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_rotated_reversor_reduces_to_the_centre_reversal(self, l):
        # a reversor of the centre flow is R_theta = Psi R0 Psi^T with Psi a centre
        # rotation; sigma reversible under R_theta is Psi sigma0 Psi^T with sigma0
        # reversible under R0, and its Hessian is congruent to that of Psi^T sigma Psi
        rng = np.random.default_rng(300 + l)
        block = CenterBlock(np.arange(1.0, l + 1))
        R0 = center_reversal(l)
        Psi = symplectic_rotation(rng.uniform(-np.pi, np.pi, size=l) / 2)
        R_theta = Psi @ R0 @ Psi.T
        sigma0 = matrix_exponential(-1e-2 * standard_symplectic_form(l) @ random_reversible_form(l, rng))
        sigma = Psi @ sigma0 @ Psi.T
        assert max_abs(sigma @ R_theta @ sigma - R_theta) <= 1e-12
        rev, rep = reversible_signature(sigma, block)
        assert not rev.passed and rep is None
        rev, rep = reversible_signature(Psi.T @ sigma @ Psi, block)
        assert rev.passed
        assert rep.inertia == inertia(hessian_from_scattering(sigma, block.D)).inertia == (l, l, 0)


ENSEMBLE_D = np.diag([1.0, 1.0])


class TestCounts:
    def test_integral_float_counts_are_accepted(self):
        assert realize_signature(2.0, 1.0, [1.0, 2.0], 0.01).achieved.inertia == (1, 3, 0)
        assert indefiniteness_ensemble(ENSEMBLE_D, 3.0, 1.0).trials == 3
        assert np.array_equal(center_reversal(2.0), center_reversal(2))
        assert np.array_equal(standard_symplectic_form(2.0), standard_symplectic_form(2))


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
        J = standard_symplectic_form(2)
        for sigma in classify._random_symplectics(CenterBlock([1.0, 2.0]), ensemble_oracle.ensemble_streams(9), 10):
            assert max_abs(sigma.T @ J @ sigma - J) <= 1e-9 * max(1.0, max_abs(sigma) ** 2)
