"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced; without -s pytest shows them for failing tests only.
"""

import time

import numpy as np

from bracket_oracle import bracket_adjoint_nullity
from ensemble_oracle import random_symplectic
from homscat.classify import (
    hessian_from_scattering,
    indefiniteness_ensemble,
    realize_signature,
    reversible_signature,
)
from homscat.flow import fundamental_solution, scattering_matrix
from homscat.majorize import (
    hessian_bracket,
    indefinite_spectrum,
    majorizes,
    mirsky_matrix,
)
from homscat.matkit import (
    CenterBlock,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
    symplectic_rotation,
)
from homscat.models import (
    HamiltonianSystem,
    ModelSpec,
    homoclinic_orbit,
    scattering_problem,
)
from lab_frame_oracle import center_variational_field
from realize_oracle import in_bracket_range
from reversible_forms import random_reversible_form

OMEGAS = {1: [1.0], 2: [1.0, 2.0], 3: [1.0, np.sqrt(2.0), np.pi]}


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def random_symmetric(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n))
    return scale * 0.5 * (raw + raw.T)


def gridded_rk4(spec, T, steps):
    """Plain stepping loop over a precomputed time grid; independent of the
    library's batched product formulation."""
    dim = 2 * spec.l
    h = 2.0 * T / steps
    nodes = -T + h * 0.5 * np.arange(2 * steps + 1)
    A = center_variational_field(spec, nodes)
    Phi = np.eye(dim)
    for k in range(steps):
        a0, am, a1 = A[2 * k], A[2 * k + 1], A[2 * k + 2]
        k1 = a0 @ Phi
        k2 = am @ (Phi + 0.5 * h * k1)
        k3 = am @ (Phi + 0.5 * h * k2)
        k4 = a1 @ (Phi + h * k3)
        Phi = Phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Phi


def test_criterion_01_integrable_scattering():
    worst_dev = 0.0
    worst_time = 0.0
    for l, omega in OMEGAS.items():
        spec = ModelSpec(l=l, n_hyp=1, omega=omega, eps=0.0, T_support=3.0)
        start = time.perf_counter()
        result = scattering_matrix(scattering_problem(spec))
        elapsed = time.perf_counter() - start
        worst_dev = max(worst_dev, max_abs(result.sigma - np.eye(2 * l)))
        worst_time = max(worst_time, elapsed)
    ok = worst_dev <= 1e-8 and worst_time < 1.0
    report(
        1,
        "integrable-scattering-identity",
        ok,
        f"max |sigma - I| = {worst_dev:.3e}, slowest case {worst_time:.2f}s",
    )


def test_criterion_02_perturbed_scattering_law():
    start = time.perf_counter()
    worst = 0.0
    for l in (1, 2):
        J = standard_symplectic_form(l)
        for c_index in range(5):
            rng = np.random.default_rng((202, l, c_index))
            C = random_symmetric(rng, 2 * l)
            for eps in (1e-3, 1e-2, 1e-1):
                spec = ModelSpec(
                    l=l, n_hyp=1, omega=OMEGAS[l], eps=eps, C=C, T_support=3.0
                )
                result = scattering_matrix(scattering_problem(spec))
                expected = matrix_exponential(-eps * J @ C)
                worst = max(worst, max_abs(result.sigma - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 5.0
    report(
        2,
        "perturbed-scattering-exponential-law",
        ok,
        f"max |sigma - exp(-eps J C)| = {worst:.3e} over 30 runs, {elapsed:.2f}s",
    )


def test_criterion_03_signature_realization():
    start = time.perf_counter()
    failures = []
    for l in (1, 2, 3):
        for m in range(1, 2 * l):
            rep = realize_signature(l, m, OMEGAS[l], 1e-2)
            if rep.achieved.inertia != (m, 2 * l - m, 0):
                failures.append((l, m, rep.achieved.inertia))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(
        3,
        "signature-realization-totality",
        ok,
        f"9 cases, failures={failures}, {elapsed:.2f}s",
    )


def test_criterion_04_never_definite():
    start = time.perf_counter()
    total_definite = 0
    extremes = []
    for l in (1, 2, 3):
        summary = indefiniteness_ensemble(CenterBlock(OMEGAS[l]).D, trials=1000, seed=400 + l)
        total_definite += summary.definite_positive + summary.definite_negative
        extremes.append(summary.largest_min_eigenvalue)
    elapsed = time.perf_counter() - start
    ok = total_definite == 0 and elapsed < 30.0
    report(
        4,
        "never-definite-ensemble",
        ok,
        f"definite count {total_definite}/3000, largest min eig {max(extremes):.3e}, {elapsed:.2f}s",
    )


def test_criterion_05_majorization_totality():
    start = time.perf_counter()
    bad = []
    cases = 0
    for l in range(1, 11):
        g = np.concatenate([np.ones(l), -np.ones(l)])
        for m in range(1, 2 * l):
            cases += 1
            if not majorizes(g, indefinite_spectrum(l, m)).holds:
                bad.append((l, m))
    elapsed = time.perf_counter() - start
    ok = not bad and cases == 100 and elapsed < 1.0
    report(5, "majorization-totality", ok, f"{cases} cases, failures={bad}, {elapsed:.2f}s")


def test_criterion_06_mirsky_construction():
    rng = np.random.default_rng(606)
    worst_diag = 0.0
    worst_eig = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        lam = np.sort(rng.standard_normal(n) * 2.0)
        d = lam.copy()
        for _ in range(3 * n):
            i, j = rng.integers(0, n, size=2)
            if d[i] < d[j]:
                i, j = j, i
            delta = rng.uniform(0.0, 0.5) * (d[i] - d[j])
            d[i] -= delta
            d[j] += delta
        M = mirsky_matrix(d, lam)
        worst_diag = max(worst_diag, max_abs(np.diag(M) - d))
        w = np.linalg.eigvalsh(M)
        worst_eig = max(worst_eig, max_abs(np.sort(w) - np.sort(lam)))
    ok = worst_diag <= 1e-10 and worst_eig <= 1e-8
    report(
        6,
        "mirsky-construction-contract",
        ok,
        f"200 pairs: diag error {worst_diag:.3e}, eigenvalue error {worst_eig:.3e}",
    )


def test_criterion_07_bracket_operator_structure():
    rng = np.random.default_rng(707)
    nullities = {}
    range_failures = 0
    worst_trace = 0.0
    for l in (1, 2, 3, 4):
        block = CenterBlock(np.arange(1.0, l + 1.0))
        nullities[l] = bracket_adjoint_nullity(block)
        for _ in range(25):
            image = hessian_bracket(block, random_symmetric(rng, 2 * l))
            if not in_bracket_range(block, image, 1e-10):
                range_failures += 1
            worst_trace = max(worst_trace, abs(float(np.trace(image))))
    ok = (
        all(nullities[l] == l for l in nullities)
        and range_failures == 0
        and worst_trace <= 1e-12
    )
    report(
        7,
        "bracket-kernel-and-range",
        ok,
        f"nullities {nullities}, range failures {range_failures}/100, max |trace| {worst_trace:.3e}",
    )


def test_criterion_08_rotation_quotient_invariance():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        l = int(rng.integers(1, 4))
        D = CenterBlock(OMEGAS[l]).D
        sigma = random_symplectic(l, rng, max_factors=3, max_norm=1.0)
        theta = rng.uniform(-np.pi, np.pi, size=l)
        H_plain = hessian_from_scattering(sigma, D)
        H_rotated = hessian_from_scattering(symplectic_rotation(theta) @ sigma, D)
        worst = max(worst, max_abs(H_plain - H_rotated))
    ok = worst <= 1e-9
    report(8, "rotation-quotient-invariance", ok, f"100 pairs, max disagreement {worst:.3e}")


def test_criterion_09_reversible_case():
    worst_rev = 0.0
    worst_pairing = 0.0
    bad_signatures = []
    degenerate_total = 0
    for l in (1, 2, 3):
        block = CenterBlock(OMEGAS[l])
        J = standard_symplectic_form(l)
        accepted = 0
        draw = 0
        while accepted < 20:
            rng = np.random.default_rng((909, l, draw))
            draw += 1
            assert draw < 100, "too many degenerate draws"
            B = random_reversible_form(l, rng)
            sigma = matrix_exponential(-1e-2 * J @ B)
            rev, rep = reversible_signature(sigma, block)
            worst_rev = max(worst_rev, rev.residual)
            assert rev.passed
            if rep.degenerate:
                degenerate_total += 1
                continue
            accepted += 1
            worst_pairing = max(worst_pairing, max_abs(rep.eigenvalues + rep.eigenvalues[::-1]))
            if rep.inertia != (l, l, 0):
                bad_signatures.append((l, draw - 1, rep.inertia))
    ok = worst_rev <= 1e-7 and worst_pairing <= 1e-7 and not bad_signatures
    report(
        9,
        "reversible-signature",
        ok,
        f"60 draws: sigma R sigma residual {worst_rev:.3e}, pairing defect {worst_pairing:.3e}, "
        f"degenerate resampled {degenerate_total}, wrong signatures {bad_signatures}",
    )


def test_criterion_10_boundary_difference_identity():
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng((1010, k))
        l = 1 + k % 2
        C = random_symmetric(rng, 2 * l)
        spec = ModelSpec(
            l=l, n_hyp=1, omega=OMEGAS[l], eps=0.05 * rng.uniform(0.5, 1.5), C=C, T_support=3.0
        )
        D = CenterBlock(spec.omega).D
        result = scattering_matrix(scattering_problem(spec))
        H = result.sigma.T @ D @ result.sigma - D
        # independent route: co-rotate the ends of directly evolved basis solutions
        T = spec.T_support + 1.0
        Phi = gridded_rk4(spec, T, steps=4096)
        ends = symplectic_rotation(-T * spec.omega) @ Phi @ symplectic_rotation(-T * spec.omega)
        gram_difference = ends.T @ D @ ends - D
        worst = max(worst, max_abs(gram_difference - H))
    ok = worst <= 1e-7
    report(10, "boundary-difference-identity", ok, f"20 problems, max disagreement {worst:.3e}")


def test_criterion_11_numerical_hygiene():
    # symplectic defect of the transported fundamental solution at unit checkpoints
    worst_defect = 0.0
    for l in (1, 2):
        rng = np.random.default_rng((1111, l))
        C = random_symmetric(rng, 2 * l)
        spec = ModelSpec(l=l, n_hyp=1, omega=OMEGAS[l], eps=0.1, C=C, T_support=3.0)
        field = lambda t: center_variational_field(spec, t)
        J = standard_symplectic_form(l)
        T_edge = spec.T_support + 2.0
        Phi = np.eye(2 * l)
        t = -T_edge
        while t < T_edge - 1e-9:
            Phi = fundamental_solution(field, t, t + 1.0, 2 * l) @ Phi
            t += 1.0
            worst_defect = max(worst_defect, max_abs(Phi.T @ J @ Phi - J))
    # homoclinic residual against the hand-differentiated loop
    spec = ModelSpec(l=1, n_hyp=1, omega=[1.0])
    system = HamiltonianSystem(spec)
    worst_residual = 0.0
    for t in np.linspace(-20.0, 20.0, 400):
        u = 0.5 * t
        sech = 1.0 / np.cosh(u)
        th = np.tanh(u)
        expected = np.zeros(spec.dim)
        expected[2 * spec.l] = -1.5 * sech**2 * th
        expected[2 * spec.l + 1] = -0.75 * (sech**4 - 2.0 * sech**2 * th**2)
        residual = expected - system.vector_field(homoclinic_orbit(spec, t))
        worst_residual = max(worst_residual, max_abs(residual))
    ok = worst_defect <= 1e-7 and worst_residual <= 1e-9
    report(
        11,
        "numerical-hygiene",
        ok,
        f"symplectic defect {worst_defect:.3e}, homoclinic residual {worst_residual:.3e}",
    )
