import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import homscat
from homscat import flow
from homscat.classify import RealizationError, indefiniteness_ensemble
from homscat.cli import build_parser, main
from homscat.flow import ScatteringConvergenceError
from homscat.majorize import majorizes
from homscat.matkit import CenterBlock, inertia, matrix_exponential, max_abs, standard_symplectic_form
from homscat.models import ModelSpec


def reject_constant(name):
    raise ValueError(f"report holds {name}, which is not valid JSON")


def check_streams(code, out, err):
    """The exit code's contract for the two streams: stderr is empty on exit 0
    and on exit 1, a failed computed assertion; on exit 2 and 3 stdout is empty
    and stderr is one JSON line, an object of exactly the keys error and kind,
    of kind input (exit 2) or numerical (exit 3)."""
    kind = {2: "input", 3: "numerical"}.get(code)
    if kind is None:
        assert err == "", f"exit {code} wrote to stderr: {err!r}"
    else:
        assert out == "", f"exit {code} wrote a report: {out!r}"
        assert err.endswith("\n") and err.count("\n") == 1, f"exit {code} wrote more than one line: {err!r}"
        error = json.loads(err)
        assert set(error) == {"error", "kind"} and error["kind"] == kind, f"exit {code} wrote {err!r}"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    check_streams(code, captured.out, captured.err)
    payload = json.loads(captured.out, parse_constant=reject_constant) if captured.out.strip() else None
    return code, payload, captured.err


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec.to_json_dict()))
    return str(path)


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def spec_doc(**changes):
    doc = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.05, C=np.eye(2), T_support=2.0).to_json_dict()
    return dict(doc, **changes)


def run_limited(argv, address_space=1_500_000 * 1024):
    """Exit code and stderr of python -W error::RuntimeWarning -m homscat argv in
    a child process whose address space is limited as by ulimit -v 1500000, so
    that a command that allocates gigabytes ends there, not in this process."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(homscat.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "homscat", *argv],
        preexec_fn=limit, env=env, capture_output=True, text=True, timeout=120,
    )
    check_streams(child.returncode, child.stdout, child.stderr)
    return child.returncode, child.stderr


def no_field_call(fld, ts, d):
    raise AssertionError(f"the field was sampled at {ts.size} times")


def input_error(code, err, field):
    return code == 2 and field in json.loads(err)["error"]


def write_matrix(tmp_path, M, name="sigma.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": M.shape[0], "data": [float(x) for x in M.ravel()]}))
    return str(path)


def skeleton(value):
    """JSON type skeleton: leaves become their type names, a list the sorted
    set of its item skeletons, so an int printed as 1 and a float printed as
    1.0 stay distinct."""
    if isinstance(value, dict):
        return {key: skeleton(item) for key, item in value.items()}
    if isinstance(value, list):
        return [json.loads(t) for t in sorted({json.dumps(skeleton(item), sort_keys=True) for item in value})]
    return type(value).__name__


MATRIX = {"dim": "int", "data": ["float"]}
SIGNATURE = {"n_pos": "int", "n_neg": "int", "n_zero": "int", "eigenvalues": ["float"], "tol": "float"}
SPEC = {
    "l": "int", "n_hyp": "int", "omega": ["float"], "eps": "float", "C": ["float"], "T_support": "float",
}
SCATTERING = {"sigma": MATRIX, "T_used": "float", "residual": "float", "symplectic_defect": "float"}


# a scalar of a model document that is not a number: strings (numeric ones
# included), booleans, null, lists and integers beyond the float range; a
# count also rejects a fractional number
NOT_A_NUMBER = st.one_of(
    st.text(max_size=6),
    st.floats(allow_nan=False).map(repr),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.sampled_from([10**400, -(10**400)]),
)
NOT_A_COUNT = NOT_A_NUMBER | st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())
SCALAR_FIELDS = {
    "l": NOT_A_COUNT, "n_hyp": NOT_A_COUNT, "eps": NOT_A_NUMBER, "T_support": NOT_A_NUMBER,
}


def reversible_spec():
    C = np.diag([0.7, -0.4])  # block diagonal over the reversal eigenspaces
    return ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.05, C=C, T_support=2.0)


# subcommand -> (argv builder over tmp_path, skeleton of the payload minus timestamp)
REPORTS = {
    "scatter": (
        lambda tmp: ["scatter", "--spec", write_spec(tmp, reversible_spec())],
        {"command": "str", "spec": SPEC, "tol": "float", **SCATTERING},
    ),
    "classify": (
        lambda tmp: ["classify", "--sigma", write_matrix(tmp, matrix_exponential(
            -0.01 * standard_symplectic_form(1) @ np.diag([2.0, -1.0]))), "--omega", "1"],
        {"command": "str", "omega": ["float"], "hessian": MATRIX, "signature": SIGNATURE, "degenerate": "bool"},
    ),
    "realize": (
        lambda tmp: ["realize", "--l", "1", "--m", "1", "--omega", "1", "--eps", "0.01"],
        {
            "command": "str", "omega": ["float"], "l": "int", "m": "int", "b": ["float"], "G": MATRIX,
            "B": MATRIX, "eps_used": "float", "sigma": MATRIX, "achieved": SIGNATURE,
            "first_order_gap": "float", "gap_constant": "float",
        },
    ),
    "indefinite": (
        lambda tmp: ["indefinite", "--l", "1", "--omega", "1", "--trials", "5", "--seed", "3"],
        {
            "command": "str", "l": "int", "omega": ["float"], "trials": "int", "seed": "int", "tol": "float",
            "definite_positive": "int", "definite_negative": "int", "largest_min_eigenvalue": "float",
            "smallest_max_eigenvalue": "float", "pass": "bool",
        },
    ),
    "reversible": (
        lambda tmp: ["reversible", "--spec", write_spec(tmp, reversible_spec())],
        {
            "command": "str", "spec": SPEC, "tol": "float", **SCATTERING,
            "reversibility": {"residual": "float", "tol": "float", "passed": "bool"},
            "signature": SIGNATURE, "degenerate": "bool", "pass": "bool",
        },
    ),
    "mirsky": (
        lambda tmp: ["mirsky", "--diag", "1,-1", "--eigs", "2,-2"],
        {
            "command": "str", "diag": ["float"], "eigs": ["float"], "matrix": MATRIX,
            "diag_error": "float", "eigenvalue_error": "float", "tol": "float", "pass": "bool",
        },
    ),
    "majorize": (
        lambda tmp: ["majorize", "--a", "1,-1", "--b", "2,-2"],
        {
            "command": "str", "a_sorted": ["float"], "b_sorted": ["float"], "partial_sum_gaps": ["float"],
            "total_gap": "float", "holds": "bool", "tol": "float",
        },
    ),
    "demo-integrable": (
        lambda tmp: ["demo-integrable", "--l", "1"],
        {
            "command": "str", "l": "int", "omega": ["float"], "tol": "float",
            "max_deviation_from_identity": "float", "pass": "bool", **SCATTERING,
        },
    ),
}


# subcommand -> (CenterBlock constructions, from_diagonal parses) per run
BLOCKS = {
    "scatter": (1, 0),
    "demo-integrable": (1, 0),
    "reversible": (1, 0),
    "classify": (2, 1),
    "indefinite": (2, 1),
    "realize": (1, 0),
    "mirsky": (0, 0),
    "majorize": (0, 0),
}


class TestDemoIntegrable:
    def test_identity_scattering(self, capsys):
        code, payload, _ = run(capsys, ["demo-integrable", "--l", "2"])
        assert code == 0
        assert payload["pass"] is True
        assert payload["max_deviation_from_identity"] <= 1e-8

    def test_custom_omega(self, capsys):
        code, payload, _ = run(capsys, ["demo-integrable", "--l", "2", "--omega", "1,3.5"])
        assert code == 0
        assert payload["omega"] == [1.0, 3.5]

    def test_frequency_whose_square_overflows_is_named(self, capsys):
        # it used to exit 0 after two RuntimeWarnings
        code, _, err = run(capsys, ["demo-integrable", "--l", "1", "--omega=1e300"])
        assert input_error(code, err, "omega[0] = 1e+300")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--l", "0"], "l must be at least 1"),
            (["--l", "2", "--omega", "1"], "omega must be a vector of length 2"),
        ],
    )
    def test_model_spec_names_a_bad_l_or_omega(self, capsys, argv, message):
        # the handler checks l by the spec's own rule, and the spec checks omega, in the spec's words
        code, _, err = run(capsys, ["demo-integrable", *argv])
        assert code == 2 and json.loads(err)["error"] == message

    @pytest.mark.parametrize("l", [64, 90, 127, 128, 179])
    def test_l_beyond_what_the_integrator_holds_is_an_input_error(self, capsys, monkeypatch, l):
        # the default T_support 4 spans 8, which starts at n = 64 steps and is compared with
        # n = 128, whose 257 (2l)^2 entries are beyond 2**22 from l = 64 on: l = 64 to 127
        # exited 3 at the cap, and 128 and 179 were refused by a bound derived for a span of 2
        monkeypatch.setattr(flow, "_field_values", no_field_call)
        code, _, err = run(capsys, ["demo-integrable", "--l", str(l)])
        message = json.loads(err)["error"]
        assert input_error(code, err, f"l = {l} and T_support = 4 do not fit the integrator")
        assert "a span of 8 starts at n = 64 RK4 steps" in message and "cap of 4194304" in message
        assert f"of the {2 * l} x {2 * l} field" in message and ("compared with n = 128" in message) == (l <= 90)

    def test_l_whose_solve_fits_the_cap_runs(self, capsys):
        # 257 * 126^2 = 4080132 entries fit the cap
        code, payload, _ = run(capsys, ["demo-integrable", "--l", "63"])
        assert code == 0 and payload["pass"] is True

    @pytest.mark.parametrize("l", ["100000000", "1" + "0" * 300])
    def test_large_l_fails_before_the_default_omega_is_built(self, l):
        # a list of 10**8 default frequencies ended in MemoryError, exit 1, under this limit
        code, err = run_limited(["demo-integrable", "--l", l, "--out", os.devnull])
        assert input_error(code, err, "T_support = 4 do not fit the integrator: ")
        assert len(err.encode()) < 1024 and "MemoryError" not in err

    def test_l_whose_second_pass_is_beyond_the_cap_makes_no_field_call(self, capsys, monkeypatch):
        # at l = 90 a span of 8 starts at n = 64 steps, whose 129 samples of the 180 x 180
        # field fit the cap, but the 257 of the n = 128 pass it is compared with do not; it
        # used to sample and multiply that first pass, then blame the tolerance, and then
        # exited 3 at the cap although l alone decides the refusal
        monkeypatch.setattr(flow, "_field_values", no_field_call)
        code, _, err = run(capsys, ["demo-integrable", "--l", "90"])
        assert code == 2 and json.loads(err)["error"] == (
            "l = 90 and T_support = 4 do not fit the integrator: "
            "a span of 8 starts at n = 64 RK4 steps and is compared with n = 128, whose (2n + 1) d^2 = "
            "8326800 entries of the 180 x 180 field are beyond the cap of 4194304"
        )


class TestMajorizeCommand:
    def test_holds(self, capsys):
        code, payload, _ = run(capsys, ["majorize", "--a", "1,1,-1,-1", "--b", "3,-1,-1,-1"])
        assert code == 0
        assert payload["holds"] is True
        assert payload["partial_sum_gaps"] == [2.0, 0.0, 0.0]

    def test_reports_failure_without_error(self, capsys):
        code, payload, _ = run(capsys, ["majorize", "--a", "2,0", "--b", "1,1"])
        assert code == 0
        assert payload["holds"] is False

    @pytest.mark.parametrize("a", ["nan,1", "inf,1"])
    def test_nonfinite_entry_is_an_input_error(self, capsys, a):
        # it used to exit 0 and write the NaN or Infinity token, which is not JSON
        code, _, err = run(capsys, ["majorize", f"--a={a}", "--b=1,0"])
        assert input_error(code, err, "vector a")

    def test_overflowing_partial_sums_are_an_input_error(self, capsys):
        # it used to exit 0 after two RuntimeWarnings and write "total_gap": NaN
        code, _, err = run(capsys, ["majorize", "--a=1e308,1e308", "--b=1e308,1e308"])
        assert input_error(code, err, "vector a has partial sums")


class TestMirskyCommand:
    def test_construction(self, capsys):
        code, payload, _ = run(capsys, ["mirsky", "--diag", "1,-1", "--eigs", "2,-2"])
        assert code == 0
        assert payload["diag_error"] <= 1e-10
        assert payload["eigenvalue_error"] <= 1e-8
        assert payload["pass"] is True

    def test_construction_off_by_more_than_its_bounds_fails(self, capsys, monkeypatch):
        # the report had no pass key and exited 0 whatever its errors
        import homscat.cli

        construct = homscat.cli.mirsky_matrix
        monkeypatch.setattr(homscat.cli, "mirsky_matrix", lambda d, eigs: construct(d, eigs) + 1e-6 * np.eye(2))
        code, payload, err = run(capsys, ["mirsky", "--diag", "1,-1", "--eigs", "2,-2"])
        assert code == 1
        assert payload["pass"] is False
        assert payload["diag_error"] > 1e-10 and payload["eigenvalue_error"] > 1e-8

    def test_nonfinite_diagonal_is_named(self, capsys):
        # it used to blame "partial sum 2 fails (gap nan)"
        code, _, err = run(capsys, ["mirsky", "--diag=nan,0", "--eigs=1,-1"])
        assert input_error(code, err, "non-finite") and "partial sum" not in err

    def test_overflowing_partial_sums_are_named(self, capsys):
        # it exited 2 only after two RuntimeWarnings, blaming "gap nan"
        code, _, err = run(capsys, ["mirsky", "--diag=1e308,1e308", "--eigs=1e308,1e308"])
        assert input_error(code, err, "partial sums")
        assert "nan" not in json.loads(err)["error"]

    def test_entries_near_the_float_limit(self, capsys):
        # the symmetrization 0.5 * (M + M^T) overflowed, and the command exited 2
        # blaming "eigendecomposition input contains non-finite entries"
        code, payload, _ = run(capsys, ["mirsky", "--diag=1e308,-1e308", "--eigs=1e308,-1e308"])
        assert code == 0 and payload["pass"] is True
        assert payload["diag_error"] == 0.0 and payload["eigenvalue_error"] == 0.0

    def test_rotation_beyond_the_float_range_is_a_numerical_failure(self, capsys):
        # it exited 0 with a mostly zero matrix and diag_error 6.7e307
        p = 2.0**1020
        diag, eigs = (",".join(repr(k * p) for k in ks) for ks in ((6, -2, 2, -6), (12, 1, -1, -12)))
        code, _, err = run(capsys, ["mirsky", f"--diag={diag}", f"--eigs={eigs}"])
        assert code == 3 and "beyond the float range" in json.loads(err)["error"]

    # a Schur-Horn pair at scale 1e6: the diagonal of Q diag(eigs) Q^T
    LARGE_DIAG = [-1273788.6914347336, -470615.308262831, -117587.02371583505, -803853.9836271892, -224075.7939581287]
    LARGE_EIGS = [547846.7492858173, -920853.1449445188, -1836105.9042552211, -1933889.4578858835, 1253080.9568010897]

    def test_large_scale_pair(self, capsys):
        # it exited 2: "partial sum 5 fails (gap 9.313e-10)", round-off under an absolute 1e-10
        diag, eigs = (",".join(map(repr, v)) for v in (self.LARGE_DIAG, self.LARGE_EIGS))
        code, payload, _ = run(capsys, ["mirsky", f"--diag={diag}", f"--eigs={eigs}"])
        assert code == 0 and payload["pass"] is True

    def test_large_scale_pair_off_by_a_relative_1e_3_exits_2(self, capsys):
        moved = [self.LARGE_DIAG[0] * 1.001] + self.LARGE_DIAG[1:]
        diag, eigs = (",".join(map(repr, v)) for v in (moved, self.LARGE_EIGS))
        code, _, err = run(capsys, ["mirsky", f"--diag={diag}", f"--eigs={eigs}"])
        assert input_error(code, err, "diagonal is not majorized by the spectrum")

    def test_report_states_the_majorization_bound(self, capsys):
        diag, eigs = (",".join(map(repr, v)) for v in (self.LARGE_DIAG, self.LARGE_EIGS))
        code, payload, _ = run(capsys, ["mirsky", f"--diag={diag}", f"--eigs={eigs}"])
        assert code == 0
        assert payload["tol"] == majorizes(self.LARGE_DIAG, self.LARGE_EIGS).tol == 1e-10 * 1933889.4578858835

    def test_refusal_names_the_bound_that_was_missed(self, capsys):
        moved = [self.LARGE_DIAG[0] * 1.001] + self.LARGE_DIAG[1:]
        diag, eigs = (",".join(map(repr, v)) for v in (moved, self.LARGE_EIGS))
        code, _, err = run(capsys, ["mirsky", f"--diag={diag}", f"--eigs={eigs}"])
        assert input_error(code, err, "diagonal is not majorized by the spectrum: partial sum 5 fails")
        assert "exceeds the bound 1.934e-04" in json.loads(err)["error"]

    def test_non_majorized_exits_2(self, capsys):
        code, _, err = run(capsys, ["mirsky", "--diag", "2,0", "--eigs", "1,1"])
        assert code == 2


class TestRealizeCommand:
    def test_signature(self, capsys):
        code, payload, _ = run(
            capsys, ["realize", "--l", "2", "--m", "3", "--omega", "1,2", "--eps", "0.01"]
        )
        assert code == 0
        sig = payload["achieved"]
        assert (sig["n_pos"], sig["n_neg"], sig["n_zero"]) == (3, 1, 0)

    @pytest.mark.parametrize("eps, eps_used", [("50", 25.0), ("300", 1.171875)])
    def test_off_symplectic_attempt_halves_eps(self, capsys, eps, eps_used):
        # exp(-eps J B) at eps = 50 is off symplectic by 5.9e-7, and the run
        # exited 2 blaming the caller for the sigma it built itself
        argv = ["realize", "--l", "3", "--m", "2", "--omega", "1,1.5,2.25", "--eps", eps]
        code, payload, err = run(capsys, argv)
        assert code == 0
        sig = payload["achieved"]
        assert (sig["n_pos"], sig["n_neg"], sig["n_zero"]) == (2, 4, 0)
        assert payload["eps_used"] == eps_used

    @pytest.mark.parametrize(
        "l, m, omega, message",
        [
            ("2", "0", "1,2", "m must lie in 1..3, got 0"),
            # l below 1 was blamed on omega: "omega must have length l = 0, got 1"
            ("0", "1", "1", "l must be at least 1"),
            ("-1", "1", "1", "l must be at least 1"),
        ],
    )
    def test_out_of_range_l_or_m_is_named(self, capsys, l, m, omega, message):
        code, _, err = run(capsys, ["realize", "--l", l, "--m", m, "--omega", omega, "--eps", "0.01"])
        assert code == 2 and json.loads(err)["error"] == message

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_eps_is_named(self, capsys, eps):
        # inf used to warn and then report "matrix contains non-finite entries"
        code, _, err = run(capsys, ["realize", "--l", "1", "--m", "1", "--omega", "1", f"--eps={eps}"])
        assert code == 2 and json.loads(err)["error"] == f"eps must be a finite positive number, got {eps}"

    @pytest.mark.parametrize("eps", ["1e308", "1e300", "1e3"])
    def test_overflowing_eps_fails_at_once(self, capsys, monkeypatch, eps):
        # 1e300 overflowed the exponential and 1e3 the Hessian, each with a
        # RuntimeWarning, and then blamed "non-finite entries" as an input error;
        # 1e308 got exp(-eps J B) = I, halved once and blamed eps = 5e+307
        import homscat.classify

        calls = []
        expm = homscat.classify.matrix_exponential
        monkeypatch.setattr(homscat.classify, "matrix_exponential", lambda M: calls.append(1) or expm(M))
        code, _, err = run(capsys, ["realize", "--l", "1", "--m", "1", "--omega", "1", "--eps", eps])
        assert code == 3 and f"eps = {float(eps):.3g} overflows" in json.loads(err)["error"]
        assert calls == [1]

    @pytest.mark.parametrize(
        "l, m, omega, eps",
        [(3, 5, "1,1.5,2.25", "1e308"), (6, 7, "1,1.5,2,2.5,3,3.5", "1e308"), (2, 1, "1,2", "1.7e308")],
    )
    def test_overflowing_generator_is_a_numerical_failure(self, capsys, l, m, omega, eps):
        # eps J B itself overflowed, and the exponential blamed "matrix has a
        # non-finite entry" as an input error
        argv = ["realize", "--l", str(l), "--m", str(m), "--omega", omega, "--eps", eps]
        code, _, err = run(capsys, argv)
        assert code == 3 and json.loads(err)["error"].startswith(f"eps = {float(eps):.3g} overflows the float range")

    def test_frequency_whose_square_overflows_is_named(self, capsys):
        # it halved eps 17 times and then blamed the zero tolerance at eps = 7.63e-08
        code, _, err = run(capsys, ["realize", "--l", "1", "--m", "1", "--omega=1e300", "--eps", "0.01"])
        assert input_error(code, err, "omega[0] = 1e+300")

    def test_tiny_eps_is_a_numerical_failure(self, capsys):
        code, _, err = run(capsys, ["realize", "--l", "2", "--m", "1", "--omega", "1,2", "--eps", "1e-8"])
        assert code == 3 and "zero tolerance" in json.loads(err)["error"]

    def test_halvings_run_out_on_near_equal_frequencies(self, capsys):
        # reached before only with the halving limit patched down
        code, _, err = run(
            capsys, ["realize", "--l", "3", "--m", "5", "--omega", "1,1.0000001,2", "--eps", "0.5"]
        )
        assert code == 3 and json.loads(err)["error"] == (
            "signature (5, 1) not reached after 20 halvings of eps; the frequency choice is numerically degenerate"
        )


class TestIndefiniteCommand:
    @pytest.mark.parametrize(
        "omega, trials, seed",
        [
            ("1", "50", "3"),
            # 10000 trials at l = 6 run in many chunks; with every omega_i = 1, total
            # resonance, H = sigma^T sigma - I has inertia (r, r, 2l - 2r)
            ("1,1.5,2,2.5,3,3.5", "10000", "4"),
            ("1,1,1,1,1,1", "10000", "4"),
        ],
        ids=["l1", "l6", "l6-resonant"],
    )
    def test_ensemble(self, tmp_path, omega, trials, seed):
        # two processes with one seed write one report, timestamp aside
        l = str(omega.count(",") + 1)
        reports = []
        for k in range(2):
            out = tmp_path / f"report-{k}.json"
            argv = ["indefinite", "--l", l, "--omega", omega, "--trials", trials, "--seed", seed, "--out", str(out)]
            assert run_limited(argv) == (0, "")
            report = json.loads(out.read_text(), parse_constant=reject_constant)
            assert isinstance(report.pop("timestamp"), str)
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["trials"] == int(trials) and reports[0]["pass"] is True
        assert reports[0]["definite_positive"] == reports[0]["definite_negative"] == 0

    @pytest.mark.parametrize(
        "l, message",
        [
            ("2", "omega has 1 entries but --l is 2"),
            # l below 1 was blamed on omega: "omega has 1 entries but --l is 0"
            ("0", "l must be at least 1"),
            ("-1", "l must be at least 1"),
        ],
    )
    def test_omega_mismatch(self, capsys, l, message):
        code, _, err = run(capsys, ["indefinite", "--l", l, "--omega", "1", "--trials", "5", "--seed", "3"])
        assert code == 2 and json.loads(err)["error"] == message

    def test_negative_seed_names_seed(self, capsys):
        # numpy's own message, "expected non-negative integer", named no field
        code, _, err = run(capsys, ["indefinite", "--l", "1", "--omega", "1", "--trials", "3", "--seed=-1"])
        assert input_error(code, err, "seed")

    def test_hessian_beyond_the_float_range_is_a_numerical_failure(self, capsys):
        # it warned twice in the Hessian matmul and then blamed
        # "eigendecomposition input contains non-finite entries" as an input error
        code, _, err = run(
            capsys, ["indefinite", "--l", "1", "--omega=1e308", "--trials", "5", "--seed", "1"]
        )
        assert code == 3 and "max|omega| = 1e+308" in json.loads(err)["error"]


class TestScatterCommand:
    def test_integrable_spec(self, capsys, tmp_path):
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.0, T_support=2.0)
        code, payload, _ = run(capsys, ["scatter", "--spec", write_spec(tmp_path, spec)])
        assert code == 0
        sigma = np.array(payload["sigma"]["data"]).reshape(2, 2)
        assert max_abs(sigma - np.eye(2)) <= 1e-8
        assert payload["symplectic_defect"] <= 1e-8

    def test_perturbed_spec(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((2, 2))
        C = 0.5 * (C + C.T)
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.05, C=C, T_support=2.5)
        code, payload, _ = run(capsys, ["scatter", "--spec", write_spec(tmp_path, spec)])
        assert code == 0
        sigma = np.array(payload["sigma"]["data"]).reshape(2, 2)
        expected = matrix_exponential(-0.05 * standard_symplectic_form(1) @ C)
        assert max_abs(sigma - expected) <= 1e-7

    def test_document_with_a_large_l_fails_before_its_default_C(self, tmp_path):
        # the default C of (2l)^2 zeros, 298 GiB at l = 100000, ended in
        # MemoryError, exit 1, under this limit
        l = 100000
        doc = write_doc(tmp_path, {"l": l, "n_hyp": 1, "omega": list(range(1, l + 1)), "eps": 0.0})
        code, err = run_limited(["scatter", "--spec", doc, "--out", os.devnull])
        assert code == 2
        assert json.loads(err)["error"].startswith("l = 100000 and T_support = 4 do not fit the integrator")

    def test_infinite_support_names_the_field(self, capsys, tmp_path):
        # it used to fail with "integration endpoints must be finite"
        doc = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.05, C=np.eye(2), T_support=2.0).to_json_dict()
        doc["T_support"] = float("inf")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["scatter", "--spec", str(path)])
        assert input_error(code, err, "T_support")

    def test_overflow_is_a_numerical_failure(self, capsys, tmp_path):
        # it used to refine up to n = 524288 steps and blame the refinement
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=1e308, C=np.eye(2), T_support=2.0)
        code, _, err = run(capsys, ["scatter", "--spec", write_spec(tmp_path, spec)])
        assert code == 3 and "overflow" in json.loads(err)["error"]

    def test_bump_order_is_an_unknown_field(self, capsys, tmp_path):
        # fields that are gone: the bump's sharpness changed no sigma, and the
        # model has one saddle, so there are no rates alpha of further pairs
        for field, value in [("bump_order", 1), ("alpha", [])]:
            code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, spec_doc(**{field: value}))])
            assert input_error(code, err, f"unknown fields ['{field}']")

    @pytest.mark.parametrize(
        "C, asymmetry",
        [
            # C - C.T overflowed: a traceback and exit 1 under -W error::RuntimeWarning,
            # and otherwise a warning line on stderr before the JSON error
            ([1.0, 1e308, -1e308, 1.0], "inf"),
            # C's symmetry bound is 1e-12; the 1e-10 bound of the other symmetric inputs would accept this C
            ([1.0, 1e-11, 0.0, 1.0], "1.000e-11"),
        ],
    )
    def test_asymmetric_C_is_named(self, capsys, tmp_path, C, asymmetry):
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, spec_doc(C=C))])
        assert code == 2 and json.loads(err)["error"] == f"C is not symmetric (asymmetry {asymmetry})"

    @pytest.mark.parametrize("T_support", [1e308, 1e307, 1e200, 8192.5])
    def test_support_beyond_the_step_cap_is_an_input_error(self, capsys, tmp_path, monkeypatch, T_support):
        # 1e308 exited 3 with "cannot convert float infinity to integer", and
        # 1e200 blamed a step refinement that never ran; then both exited 3 at
        # the cap, although the document alone decides the refusal
        monkeypatch.setattr(flow, "_field_values", no_field_call)
        doc = spec_doc(T_support=T_support)
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, doc)])
        assert input_error(code, err, f"l = 1 and T_support = {T_support:g} do not fit the integrator")
        message = json.loads(err)["error"]
        assert f"span of {2 * T_support:g}" in message and "refinement" not in message

    def test_support_whose_squared_field_overflows_names_T_support(self, capsys, tmp_path):
        # it blamed "RK4 product overflowed with n = 16 steps over [-1e-300, 1e-300]"
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, spec_doc(T_support=1e-300))])
        assert code == 3 and "T_support = 1e-300" in json.loads(err)["error"]

    @pytest.mark.parametrize("T_support, eps", [(3e-16, 0.05), (1e-300, 1e-200)])
    def test_tiny_support_scatters_exactly(self, capsys, tmp_path, T_support, eps):
        # 3e-16 put the inner end of the left slab inside the support and raised
        # ScatteringConvergenceError with residual inf; 1e-300 overflowed squaring
        # t / T_support on the slabs
        C = np.array([[1.0, 0.5], [0.5, -1.0]])
        doc = spec_doc(T_support=T_support, eps=eps, C=C.ravel().tolist())
        code, payload, _ = run(capsys, ["scatter", "--spec", write_doc(tmp_path, doc)])
        assert code == 0 and payload["residual"] == 0.0
        sigma = np.array(payload["sigma"]["data"]).reshape(2, 2)
        assert max_abs(sigma - matrix_exponential(-eps * standard_symplectic_form(1) @ C)) <= 1e-10

    def test_overflowing_perturbation_names_eps(self, capsys, tmp_path):
        # it used to warn inside the field and then blame "field produced
        # non-finite values" as an input error
        doc = spec_doc(eps=1e308, C=[10.0, 0.0, 0.0, 10.0])
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, doc)])
        message = json.loads(err)["error"]
        assert code == 3 and "overflows" in message and "eps = 1e+308" in message

    @pytest.mark.parametrize("field", ["l", "n_hyp", "eps", "T_support"])
    def test_null_field_is_named(self, capsys, tmp_path, field):
        # each crashed with a TypeError traceback and exit 1
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, spec_doc(**{field: None}))])
        assert input_error(code, err, field)

    @pytest.mark.parametrize("field, value", [("l", 1.7), ("n_hyp", 1.5), ("l", True), ("n_hyp", 2)])
    def test_bad_count_is_named(self, capsys, tmp_path, field, value):
        # "l": 1.7 used to run silently as l = 1; the model has one saddle, so n_hyp is 1
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, spec_doc(**{field: value}))])
        assert input_error(code, err, field)

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"C": {"a": 1}}, "C"),
            ({"C": [True, 0.0, 0.0, 1.0]}, "C"),
            ({"omega": [True]}, "omega"),
            ({"omega": "1"}, "omega"),
            ({"C": [10**400, 0, 0, 1]}, "C"),
            ({"eps": 10**400}, "eps"),
            ({"eps": "0.05"}, "eps must be a finite number, got '0.05'"),
            ({"T_support": "3"}, "T_support must be a finite positive number, got '3'"),
        ],
        ids=[
            "C-object", "C-true", "omega-true", "omega-string", "C-huge-int", "eps-huge-int",
            "eps-string", "T_support-string",
        ],
    )
    def test_entry_that_is_not_a_float_is_named(self, capsys, tmp_path, changes, field):
        # an object crashed with a TypeError traceback and exit 1, true ran as
        # 1.0, "1" as [1.0], ["x"] got numpy's message naming no field, and an
        # integer beyond the float range exited 3 as a numerical failure; a
        # string eps or T_support ran as a number, while "omega": ["1.0"] exited 2
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, spec_doc(**changes))])
        assert input_error(code, err, field)

    def test_integral_float_count_is_accepted(self, capsys, tmp_path):
        code, payload, _ = run(capsys, ["scatter", "--spec", write_doc(tmp_path, spec_doc(l=1.0, n_hyp=1.0))])
        assert code == 0 and payload["spec"]["l"] == 1 and payload["spec"]["n_hyp"] == 1

    @pytest.mark.parametrize("field", sorted(SCALAR_FIELDS))
    @settings(
        max_examples=20, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_scalar_that_is_not_a_number_is_named(self, capsys, tmp_path, field, data):
        value = data.draw(SCALAR_FIELDS[field])
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, spec_doc(**{field: value}))])
        assert code == 2 and json.loads(err)["error"].startswith(f"{field} ")

    @pytest.mark.parametrize("doc", [[1, 2], "spec", 3.0, None])
    def test_document_that_is_not_an_object(self, capsys, tmp_path, doc):
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, doc)])
        assert input_error(code, err, "JSON object")

    def test_unknown_field_is_named(self, capsys, tmp_path):
        # a misspelt T_support used to run with the default 4.0 and exit 0
        doc = spec_doc(T_suport=9.0)
        del doc["T_support"]
        code, _, err = run(capsys, ["scatter", "--spec", write_doc(tmp_path, doc)])
        assert input_error(code, err, "T_suport")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["scatter", "--spec", str(path)])
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["scatter", "--spec", str(tmp_path / "nope.json")])
        assert code == 2


class TestClassifyCommand:
    def test_exponential_sigma(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((4, 4))
        B = 0.5 * (B + B.T)
        sigma = matrix_exponential(-0.01 * standard_symplectic_form(2) @ B)
        code, payload, _ = run(
            capsys, ["classify", "--sigma", write_matrix(tmp_path, sigma), "--omega", "1,2"]
        )
        assert code == 0
        sig = payload["signature"]
        assert sig["n_pos"] + sig["n_neg"] + sig["n_zero"] == 4
        assert payload["hessian"]["dim"] == 4

    @pytest.mark.parametrize("dim", [None, 1.5, "2"])
    def test_bad_dim_is_named(self, capsys, tmp_path, dim):
        # a null dim crashed with a TypeError traceback and exit 1
        path = write_doc(tmp_path, {"dim": dim, "data": [1.0, 0.0, 0.0, 1.0]})
        code, _, err = run(capsys, ["classify", "--sigma", path, "--omega", "1"])
        assert input_error(code, err, "dim must be an integer")

    @pytest.mark.parametrize("entry", [True, {"a": 1}], ids=["true", "object"])
    def test_non_numeric_data_is_named(self, capsys, tmp_path, entry):
        # true ran as 1.0, and an object crashed with a TypeError traceback and exit 1
        path = write_doc(tmp_path, {"dim": 2, "data": [entry, 0.0, 0.0, 1.0]})
        code, _, err = run(capsys, ["classify", "--sigma", path, "--omega", "1"])
        assert input_error(code, err, "data entries must be numbers")

    @pytest.mark.parametrize(
        "doc, omega, message",
        [
            # the first four were reported as "matrix data length ... does not match dim ..."
            ({"dim": 2, "data": [[1, 0], [0, 1]]}, "1",
             "matrix data must be a flat list of dim^2 = 4 row-major entries, got nested lists of shape (2, 2)"),
            ({"dim": 2, "data": 1.0}, "1",
             "matrix data must be a flat list of dim^2 = 4 row-major entries, got a single number"),
            ({"dim": 0, "data": []}, "1", "matrix dim must be at least 1, got 0"),
            ({"dim": -2, "data": [1.0, 0.0, 0.0, 1.0]}, "1", "matrix dim must be at least 1, got -2"),
            ({"dim": 2, "data": [float("nan"), 0.0, 0.0, 1.0]}, "1",
             "matrix data has a non-finite entry nan at index 0"),
            ({"dim": 2, "data": [2.0, 0.0, 0.0, 0.5]}, "nan", "omega has a non-finite entry nan at index 0"),
        ],
        ids=["nested", "scalar", "zero-dim", "negative-dim", "nan-data", "nan-omega"],
    )
    def test_bad_input_names_its_cause(self, capsys, tmp_path, doc, omega, message):
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, ["classify", "--sigma", path, f"--omega={omega}"])
        assert code == 2 and json.loads(err)["error"] == message

    def test_nonsymplectic_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["classify", "--sigma", write_matrix(tmp_path, 2.0 * np.eye(2)), "--omega", "1"],
        )
        assert code == 2


    def test_overflowing_symplectic_defect_is_an_input_error(self, capsys, tmp_path):
        # "overflow encountered in matmul" warned before the rejection, so
        # under -W error::RuntimeWarning the command exited 1 with a traceback
        sigma = write_matrix(tmp_path, np.diag([1e200, 1e200]))
        code, _, err = run(capsys, ["classify", "--sigma", sigma, "--omega", "1"])
        assert input_error(code, err, "not symplectic (defect inf)")

    def test_hessian_beyond_the_float_range_is_a_numerical_failure(self, capsys, tmp_path):
        # it warned twice in the Hessian matmul and then blamed
        # "inertia input contains non-finite entries" as an input error
        sigma = write_matrix(tmp_path, np.diag([2.0, 0.5]))
        code, _, err = run(capsys, ["classify", "--sigma", sigma, "--omega=1e308"])
        message = json.loads(err)["error"]
        assert code == 3 and "max|omega| = 1e+308" in message and "max|sigma| = 2" in message

    def test_large_frequency_with_a_finite_hessian(self, capsys, tmp_path):
        sigma = write_matrix(tmp_path, np.diag([2.0, 0.5]))
        code, payload, _ = run(capsys, ["classify", "--sigma", sigma, "--omega=1e200"])
        assert code == 0
        assert payload["signature"]["n_pos"] == 1 and payload["signature"]["n_neg"] == 1


class TestReversibleCommand:
    def test_reversible_model(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        blocks = [0.5 * (lambda A: A + A.T)(rng.standard_normal((2, 2))) for _ in range(2)]
        C = np.zeros((4, 4))
        C[:2, :2], C[2:, 2:] = blocks
        spec = ModelSpec(l=2, n_hyp=1, omega=[1.0, 2.0], eps=0.05, C=C, T_support=2.5)
        code, payload, _ = run(capsys, ["reversible", "--spec", write_spec(tmp_path, spec)])
        assert code == 0
        assert payload["reversibility"]["passed"] is True
        sig = payload["signature"]
        assert (sig["n_pos"], sig["n_neg"], sig["n_zero"]) == (2, 2, 0)
        assert payload["degenerate"] is False and payload["pass"] is True

    @pytest.mark.parametrize(
        "l, seed, eps, T_support",
        # l = 3 exited 2, blaming the input with "inertia input is not symmetric
        # (asymmetry 4.323e-10)" for the rounding of the raw Hessian; its max|sigma| is about 1e3
        [(3, 11, 3.0, 3.0), (6, 6, 0.05, 5.0)],
        ids=["l3-strong", "l6"],
    )
    def test_coupled_reversible_model_is_balanced(self, capsys, tmp_path, l, seed, eps, T_support):
        # a random symmetric C, block diagonal over the reversal eigenspaces
        r = np.random.default_rng(seed).standard_normal((2 * l, 2 * l))
        C = r + r.T
        C[:l, l:] = C[l:, :l] = 0.0
        spec = ModelSpec(l=l, n_hyp=1, omega=[1.0 + 0.5 * k for k in range(l)], eps=eps, C=C, T_support=T_support)
        code, payload, _ = run(capsys, ["reversible", "--spec", write_spec(tmp_path, spec)])
        assert code == 0 and payload["pass"] is True
        sig = payload["signature"]
        assert (sig["n_pos"], sig["n_neg"], sig["n_zero"]) == (l, l, 0)
        assert payload["degenerate"] is False

    @pytest.mark.parametrize(
        "eps, C, signature",
        [
            # eps = 0 gives sigma = I and a zero Hessian, r = 0
            (0.0, np.zeros((4, 4)), (0, 0, 4)),
            # only the first pair is coupled, so sigma is the identity on the second: r = 1
            (0.05, np.diag([1.0, 0.0, 0.5, 0.0]), (1, 1, 2)),
        ],
        ids=["integrable", "one-pair-coupled"],
    )
    def test_model_with_an_uncoupled_pair_is_degenerate_and_passes(self, capsys, tmp_path, eps, C, signature):
        # the signature is (r, r, 2l - 2r) with r < l: pass is the reversibility
        # check alone, and degenerate true says r < l
        spec = ModelSpec(l=2, n_hyp=1, omega=[1.0, 2.0], eps=eps, C=C, T_support=2.0)
        code, payload, _ = run(capsys, ["reversible", "--spec", write_spec(tmp_path, spec)])
        assert code == 0
        assert payload["reversibility"]["passed"] is True
        sig = payload["signature"]
        assert (sig["n_pos"], sig["n_neg"], sig["n_zero"]) == signature
        assert payload["degenerate"] is True and payload["pass"] is True

    def test_nonreversible_model_fails(self, capsys, tmp_path):
        C = np.zeros((2, 2))
        C[0, 1] = C[1, 0] = 1.0  # couples the reversal eigenspaces
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.3, C=C, T_support=2.0)
        code, payload, _ = run(capsys, ["reversible", "--spec", write_spec(tmp_path, spec)])
        assert code == 1
        assert payload["pass"] is False
        assert payload["reversibility"]["passed"] is False

    def test_large_reversible_sigma_passes_within_the_scaled_bound(self, capsys, tmp_path):
        # C = diag(1, -1) leaves sigma reversible; at eps = 9 max|sigma| is 4.05e3 and the
        # residual 5.5e-7, which an absolute 1e-7 refused with exit 1
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=9.0, C=[1.0, 0.0, 0.0, -1.0], T_support=3.0)
        code, payload, err = run(capsys, ["reversible", "--spec", write_spec(tmp_path, spec)])
        assert code == 0
        scale = max_abs(np.array(payload["sigma"]["data"]))
        assert 4e3 < scale < 4.1e3
        rev = payload["reversibility"]
        assert 1e-7 < rev["residual"] <= rev["tol"] == 1e-7 * scale
        assert payload["pass"] is True and payload["signature"]["n_pos"] == 1

    @pytest.mark.parametrize("eps, residual", [(0.3, 0.37), (9.0, 1.8e8)])
    def test_coupled_twin_still_fails(self, capsys, tmp_path, eps, residual):
        # the off-diagonal 0.5 couples the reversal eigenspaces: no scale of the bound lets it pass
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=eps, C=[1.0, 0.5, 0.5, -1.0], T_support=3.0)
        code, payload, err = run(capsys, ["reversible", "--spec", write_spec(tmp_path, spec)])
        assert code == 1
        rev = payload["reversibility"]
        assert rev["passed"] is False and payload["pass"] is False
        assert rev["residual"] == pytest.approx(residual, rel=0.05)
        assert rev["tol"] == 1e-7 * max(1.0, max_abs(np.array(payload["sigma"]["data"])))


class TestCliPlumbing:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, payload, _ = run(
            capsys, ["majorize", "--a", "1,-1", "--b", "2,-2", "--out", str(out)]
        )
        assert code == 0
        assert payload is None  # payload goes to the file, not stdout
        doc = json.loads(out.read_text())
        assert doc["holds"] is True
        assert "timestamp" in doc

    @pytest.mark.parametrize("out", ["missing/report.json", "."], ids=["missing-directory", "directory"])
    def test_out_that_cannot_be_written_is_named(self, capsys, tmp_path, out):
        # it ended in an OSError traceback with exit 1, the code of a failed assertion
        path = str(tmp_path / out)
        code, _, err = run(capsys, ["majorize", "--a", "1,0", "--b", "1,0", "--out", path])
        assert input_error(code, err, f"cannot write {path}")

    @pytest.mark.parametrize(
        "argv, text, position",
        [
            (["realize", "--l", "2", "--m", "1", "--omega", "1,,2", "--eps", "0.1"], "1,,2", 2),
            (["mirsky", "--diag", "1,,2", "--eigs", "2,1"], "1,,2", 2),
            (["majorize", "--a", ",1", "--b", "1"], ",1", 1),
            (["indefinite", "--l", "1", "--omega", "1,", "--trials", "2", "--seed", "0"], "1,", 2),
            (["demo-integrable", "--l", "2", "--omega", "1, ,2"], "1, ,2", 2),
            (["demo-integrable", "--l", "2", "--omega", ""], "", 1),
        ],
        ids=["realize", "mirsky", "majorize-first", "indefinite-last", "demo-blank", "demo-empty"],
    )
    def test_empty_list_entry_is_named(self, capsys, argv, text, position):
        # the empty entries were dropped: --omega 1,,2 parsed as [1.0, 2.0],
        # and demo-integrable --omega "" fell back to 1, ..., l
        code, _, err = run(capsys, argv)
        named = f"could not parse '{text}' as a comma-separated list of numbers: entry {position} is empty"
        assert input_error(code, err, named)

    @pytest.mark.parametrize("command", sorted(REPORTS))
    def test_deterministic_payload(self, capsys, tmp_path, command):
        build, expected = REPORTS[command]
        argv = build(tmp_path)
        code, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert code == 0
        assert isinstance(first.pop("timestamp"), str)
        second.pop("timestamp")
        # compared as JSON text: 1 == 1.0 in Python, but not in the report
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert skeleton(first) == expected

    @pytest.mark.parametrize("command", sorted(BLOCKS))
    def test_each_pipeline_builds_its_centre_block_once(self, capsys, tmp_path, monkeypatch, command):
        # CenterBlock constructions and from_diagonal parses per run: the model
        # pipelines hand on the block of their ModelSpec, and the Hessian
        # pipelines parse the D array that their public functions take once
        argv = REPORTS[command][0](tmp_path)
        built, parsed = [], []
        post_init, from_diagonal = CenterBlock.__post_init__, CenterBlock.from_diagonal.__func__

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        def counted_from_diagonal(cls, D):
            parsed.append(D)
            return from_diagonal(cls, D)

        monkeypatch.setattr(CenterBlock, "__post_init__", counted_post_init)
        monkeypatch.setattr(CenterBlock, "from_diagonal", classmethod(counted_from_diagonal))
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert (len(built), len(parsed)) == BLOCKS[command]

    @pytest.mark.parametrize("token", [["--tol", "1e-8"], ["--tol", "nan"], ["--tol=-5"]], ids=" ".join)
    @pytest.mark.parametrize("command", sorted(REPORTS))
    def test_no_subcommand_takes_a_tolerance(self, capsys, tmp_path, command, token):
        # each check applies one constant, which its report states; six subcommands had a --tol.
        # --tol nan once failed demo-integrable's identity check at sigma = I with exit 1 and
        # let the ensemble pass unchecked, and --tol=-5 failed every ensemble trial
        subcommands = build_parser()._subparsers._group_actions[0].choices
        assert "--tol" not in subcommands[command].format_help()
        code, _, err = run(capsys, REPORTS[command][0](tmp_path) + token)
        assert input_error(code, err, f"unrecognized arguments: {' '.join(token)}")

    @pytest.mark.parametrize("command", ["scatter", "classify", "indefinite", "majorize"])
    def test_tolerance_defaults_are_the_library_defaults(self, capsys, tmp_path, command):
        # each report states the tolerance that the library call applied to the same input
        code, payload, _ = run(capsys, REPORTS[command][0](tmp_path))
        assert code == 0
        if command == "scatter":
            assert payload["tol"] == flow.DEFAULT_SIGMA_TOL
        elif command == "classify":
            H = np.array(payload["hessian"]["data"]).reshape(2, 2)
            assert payload["signature"]["tol"] == inertia(H).tol
        elif command == "indefinite":
            assert payload["tol"] == indefiniteness_ensemble(CenterBlock([1.0]).D, trials=5, seed=3).tol
        else:
            assert payload["tol"] == majorizes([1.0, -1.0], [2.0, -2.0]).tol

    def test_numerical_failures_are_arithmetic_errors(self):
        # main maps ValueError to exit 2 and ArithmeticError to exit 3 by base class alone
        assert issubclass(RealizationError, ArithmeticError)
        assert issubclass(ScatteringConvergenceError, ArithmeticError)

    def test_bad_number_list(self, capsys):
        code, _, err = run(capsys, ["majorize", "--a", "1,spam", "--b", "1,1"])
        assert code == 2


# subcommand -> its numeric and list flags; the ones missing from the REPORTS
# argv are added with the value that APPENDED gives
NUMERIC_FLAGS = {
    "classify": ["--omega"],
    "realize": ["--l", "--m", "--omega", "--eps"],
    "indefinite": ["--l", "--omega", "--trials", "--seed"],
    "mirsky": ["--diag", "--eigs"],
    "majorize": ["--a", "--b"],
    "demo-integrable": ["--l", "--omega"],
}
APPENDED = {"--omega": "1"}


class TestNumberReader:
    """Every numeric flag and list entry must be an ASCII decimal number (or
    nan/inf/infinity), and a count an optional sign and ASCII digits; what the
    value may be is checked by the library."""

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in NUMERIC_FLAGS.items() for f in flags])
    def test_digit_group_underscore_is_refused(self, capsys, tmp_path, command, flag):
        # int() and float() read 0_5 as 5, so a typo ran as another number with exit 0
        argv = REPORTS[command][0](tmp_path)
        if flag not in argv:
            argv += [flag, APPENDED[flag]]
        k = argv.index(flag) + 1
        argv[k] = "0_" + argv[k]
        code, _, err = run(capsys, argv)
        assert code == 2 and json.loads(err)["error"].startswith(f"argument {flag}: could not parse '{argv[k]}'")

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "0x10", "1e", ".", "e5", "", "infinit", "1.5.2"])
    def test_number_outside_the_grammar_is_refused(self, capsys, token):
        code, _, err = run(capsys, ["realize", "--l", "1", "--m", "1", "--omega", "1", f"--eps={token}"])
        assert input_error(code, err, f"argument --eps: could not parse '{token}' as a number")

    @pytest.mark.parametrize("token", ["1.0", "1e3", "1_0", "\u0661", "nan", "", "0x1"])
    def test_count_outside_the_grammar_is_refused(self, capsys, token):
        argv = ["indefinite", "--l", "1", "--omega", "1", "--trials", "5", f"--seed={token}"]
        code, _, err = run(capsys, argv)
        assert input_error(code, err, f"argument --seed: could not parse '{token}' as an integer")

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("flag", ["--l", "--trials", "--seed"])
    def test_count_beyond_the_float_range_is_named_in_a_short_line(self, capsys, flag, digits):
        # int reads 400 digits and the library names the parameter; it refuses more than
        # 4300, and those exited 2 with "invalid number value" and every digit echoed
        count = "1" * digits
        argv = {
            "--l": ["realize", "--l", count, "--m", "1", "--omega", "1", "--eps", "0.1"],
            "--trials": ["indefinite", "--l", "1", "--omega", "1", "--trials", count, "--seed", "1"],
            "--seed": ["indefinite", "--l", "1", "--omega", "1", "--trials", "5", f"--seed=-{count}"],
        }[flag]
        code, _, err = run(capsys, argv)
        cause = "is an integer beyond the float range"
        named = f"{flag[2:]} {cause}" if digits == 400 else f"argument {flag}: '1111111111...1111111111' (5000 digits) {cause}"
        assert input_error(code, err, named)
        assert len(err) < 200

    def test_count_that_misses_omega_is_shortened(self, capsys):
        # int reads these 4000 digits, and the length check echoed all of them in 4062 bytes
        argv = ["indefinite", "--l", "1" * 4000, "--omega", "1", "--trials", "2", "--seed", "1"]
        code, _, err = run(capsys, argv)
        assert input_error(code, err, "omega has 1 entries but --l is '1111111111...1111111111' (4000 digits)")
        assert len(err.encode()) <= 1024

    def test_list_entry_outside_the_grammar_is_named(self, capsys):
        code, _, err = run(capsys, ["majorize", "--a", "1,1_0", "--b", "1,1"])
        assert input_error(code, err, "argument --a: could not parse '1,1_0' as a comma-separated list")
        assert json.loads(err)["error"].endswith("entry 2 is not a number")

    @pytest.mark.parametrize(
        "argv, parsed",
        [
            (["majorize", "--a=-1,2", "--b", "1, 2"], {"a": [-1.0, 2.0], "b": [1.0, 2.0]}),
            (["majorize", "--a=-0.0,+.5,1.,1E-3", "--b", "1"], {"a": [-0.0, 0.5, 1.0, 0.001]}),
            (["realize", "--l", "1", "--m", "1", "--omega", "1", "--eps=nan"], {"eps": float("nan")}),
            (["realize", "--l", "1", "--m", "1", "--omega", "1", "--eps", " -Infinity "], {"eps": float("-inf")}),
            (["realize", "--l", "+5", "--m", "-1", "--omega", "1", "--eps", "1e308"], {"l": 5, "m": -1, "eps": 1e308}),
            # leading zeros count towards int's digit limit, but not towards the value
            (["indefinite", "--l", "0" * 5000 + "2", "--omega", "1,2", "--trials", "-" + "0" * 5000, "--seed", "7"],
             {"l": 2, "trials": 0}),
            (["classify", "--sigma", "sigma.json", "--omega=nan,INF"], {"omega": [float("nan"), float("inf")]}),
        ],
    )
    def test_token_shapes_that_bench_and_the_tests_send(self, argv, parsed):
        # compared by repr, which tells -0.0 from 0.0 and 5 from 5.0, and matches nan
        args = build_parser().parse_args(argv)
        assert {dest: repr(getattr(args, dest)) for dest in parsed} == {dest: repr(v) for dest, v in parsed.items()}

    @given(st.lists(st.floats(), min_size=1, max_size=6), st.integers(-(10**30), 10**30))
    def test_repr_of_floats_and_str_of_ints_round_trip(self, values, count):
        omega = "--omega=" + ",".join(map(repr, values))
        args = build_parser().parse_args(["indefinite", "--l", str(count), omega, "--trials", "1", "--seed", "0"])
        assert repr(args.omega) == repr(values) and repr(args.l) == repr(count)


# omega -> the message of the bracket hypothesis it violates
INADMISSIBLE_FOR_THE_BRACKET = {
    "1,1": "squared frequencies must be pairwise distinct, got omega[0]^2 ~ omega[1]^2 ~ 1",
    "0,1": "all centre frequencies must be nonzero",
    "1,-1": "squared frequencies must be pairwise distinct, got omega[0]^2 ~ omega[1]^2 ~ 1",
}


class TestCentreAcceptanceSets:
    """The Hessian pipelines take any nonempty finite centre; the pipelines that
    invert the bracket or build the model also need nonzero frequencies with
    distinct squares."""

    @pytest.mark.parametrize("omega", sorted(INADMISSIBLE_FOR_THE_BRACKET))
    def test_classify_accepts(self, capsys, tmp_path, omega):
        sigma = matrix_exponential(-0.01 * standard_symplectic_form(2) @ np.diag([1.0, -2.0, 0.5, 3.0]))
        code, payload, _ = run(capsys, ["classify", "--sigma", write_matrix(tmp_path, sigma), f"--omega={omega}"])
        assert code == 0 and payload["omega"] == [float(x) for x in omega.split(",")]

    @pytest.mark.parametrize("omega", sorted(INADMISSIBLE_FOR_THE_BRACKET))
    def test_indefinite_accepts(self, capsys, omega):
        code, payload, _ = run(capsys, ["indefinite", "--l", "2", f"--omega={omega}", "--trials", "20", "--seed", "1"])
        assert code == 0 and payload["pass"] is True

    @pytest.mark.parametrize("omega", sorted(INADMISSIBLE_FOR_THE_BRACKET))
    @pytest.mark.parametrize("command", ["realize", "demo-integrable", "scatter"])
    def test_bracket_and_model_pipelines_reject(self, capsys, tmp_path, command, omega):
        if command == "realize":
            argv = ["realize", "--l", "2", "--m", "1", f"--omega={omega}", "--eps", "0.01"]
        elif command == "demo-integrable":
            argv = ["demo-integrable", "--l", "2", f"--omega={omega}"]
        else:
            doc = spec_doc(l=2, omega=[float(x) for x in omega.split(",")], C=np.eye(4).ravel().tolist())
            argv = ["scatter", "--spec", write_doc(tmp_path, doc)]
        code, _, err = run(capsys, argv)
        assert code == 2 and json.loads(err)["error"] == INADMISSIBLE_FOR_THE_BRACKET[omega]
