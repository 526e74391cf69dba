import json

import numpy as np
import pytest

from homscat.cli import main
from homscat.matkit import matrix_exponential, max_abs, standard_symplectic_form
from homscat.models import ModelSpec


def reject_constant(name):
    raise ValueError(f"report holds {name}, which is not valid JSON")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out, parse_constant=reject_constant) if captured.out.strip() else None
    return code, payload, captured.err


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec.to_json_dict()))
    return str(path)


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
    "l": "int", "n_hyp": "int", "omega": ["float"], "alpha": [], "eps": "float", "C": ["float"],
    "mu": ["float"], "T_support": "float", "bump_order": "int",
}
SCATTERING = {"sigma": MATRIX, "T_used": "float", "residual": "float", "symplectic_defect": "float"}


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
            "command": "str", "spec": SPEC, "sigma": MATRIX,
            "reversibility": {"residual": "float", "tol": "float", "passed": "bool"},
            "signature": SIGNATURE, "degenerate": "bool", "eigenvalue_pairing_defect": "float",
            "expected_signature": ["int"], "pass": "bool",
        },
    ),
    "mirsky": (
        lambda tmp: ["mirsky", "--diag", "1,-1", "--eigs", "2,-2"],
        {
            "command": "str", "diag": ["float"], "eigs": ["float"], "matrix": MATRIX,
            "diag_error": "float", "eigenvalue_error": "float",
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

    def test_nan_tolerance_is_an_input_error(self, capsys):
        # it used to exit 1, a failed identity check, although sigma = I
        code, payload, err = run(capsys, ["demo-integrable", "--l", "1", "--tol", "nan"])
        assert code == 2 and payload is None
        assert json.loads(err)["kind"] == "input"


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
        code, payload, err = run(capsys, ["majorize", f"--a={a}", "--b=1,0"])
        assert code == 2 and payload is None
        message = json.loads(err)
        assert message["kind"] == "input" and "vector a" in message["error"]


class TestMirskyCommand:
    def test_construction(self, capsys):
        code, payload, _ = run(capsys, ["mirsky", "--diag", "1,-1", "--eigs", "2,-2"])
        assert code == 0
        assert payload["diag_error"] <= 1e-10
        assert payload["eigenvalue_error"] <= 1e-8

    def test_nonfinite_diagonal_is_named(self, capsys):
        # it used to blame "partial sum 2 fails (gap nan)"
        code, payload, err = run(capsys, ["mirsky", "--diag=nan,0", "--eigs=1,-1"])
        assert code == 2 and payload is None
        message = json.loads(err)
        assert message["kind"] == "input" and "non-finite" in message["error"]
        assert "partial sum" not in message["error"]

    def test_non_majorized_exits_2(self, capsys):
        code, payload, err = run(capsys, ["mirsky", "--diag", "2,0", "--eigs", "1,1"])
        assert code == 2
        assert payload is None
        assert "error" in json.loads(err)


class TestRealizeCommand:
    def test_signature(self, capsys):
        code, payload, _ = run(
            capsys, ["realize", "--l", "2", "--m", "3", "--omega", "1,2", "--eps", "0.01"]
        )
        assert code == 0
        sig = payload["achieved"]
        assert (sig["n_pos"], sig["n_neg"], sig["n_zero"]) == (3, 1, 0)

    def test_out_of_range_m(self, capsys):
        code, _, err = run(capsys, ["realize", "--l", "2", "--m", "0", "--omega", "1,2", "--eps", "0.01"])
        assert code == 2
        message = json.loads(err)
        assert "error" in message and message["kind"] == "input"

    def test_infinite_eps_names_eps(self, capsys):
        # it used to warn and then report "matrix contains non-finite entries"
        code, payload, err = run(capsys, ["realize", "--l", "1", "--m", "1", "--omega", "1", "--eps", "inf"])
        assert code == 2 and payload is None
        message = json.loads(err)
        assert message["kind"] == "input" and message["error"].startswith("eps must be")

    def test_tiny_eps_is_a_numerical_failure(self, capsys):
        code, payload, err = run(capsys, ["realize", "--l", "2", "--m", "1", "--omega", "1,2", "--eps", "1e-8"])
        assert code == 3
        assert payload is None
        message = json.loads(err)
        assert message["kind"] == "numerical"
        assert "zero tolerance" in message["error"]


class TestIndefiniteCommand:
    def test_ensemble(self, capsys):
        code, payload, _ = run(
            capsys,
            ["indefinite", "--l", "1", "--omega", "1", "--trials", "50", "--seed", "3"],
        )
        assert code == 0
        assert payload["definite_positive"] == 0
        assert payload["definite_negative"] == 0
        assert payload["pass"] is True

    def test_omega_mismatch(self, capsys):
        code, _, err = run(
            capsys, ["indefinite", "--l", "2", "--omega", "1", "--trials", "5", "--seed", "3"]
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_negative_seed_names_seed(self, capsys):
        # numpy's own message, "expected non-negative integer", named no field
        code, payload, err = run(capsys, ["indefinite", "--l", "1", "--omega", "1", "--trials", "3", "--seed=-1"])
        assert code == 2 and payload is None
        message = json.loads(err)
        assert message["kind"] == "input" and "seed" in message["error"]

    @pytest.mark.parametrize("tol", ["nan", "-5"])
    def test_bad_tolerance_is_an_input_error(self, capsys, tol):
        # NaN used to pass without checking anything, -5 to fail every trial with exit 1
        code, payload, err = run(
            capsys, ["indefinite", "--l", "1", "--omega", "1", "--trials", "3", "--seed", "3", f"--tol={tol}"]
        )
        assert code == 2 and payload is None
        message = json.loads(err)
        assert message["kind"] == "input" and "finite positive" in message["error"]


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

    def test_nan_tolerance_is_an_input_error(self, capsys, tmp_path):
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.0, T_support=2.0)
        code, payload, err = run(capsys, ["scatter", "--spec", write_spec(tmp_path, spec), "--tol", "nan"])
        assert code == 2 and payload is None
        assert json.loads(err)["kind"] == "input"

    def test_infinite_support_names_the_field(self, capsys, tmp_path):
        # it used to fail with "integration endpoints must be finite"
        doc = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.05, C=np.eye(2), T_support=2.0).to_json_dict()
        doc["T_support"] = float("inf")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, payload, err = run(capsys, ["scatter", "--spec", str(path)])
        assert code == 2 and payload is None
        message = json.loads(err)
        assert message["kind"] == "input" and "T_support" in message["error"]

    def test_overflow_is_a_numerical_failure(self, capsys, tmp_path):
        # it used to refine up to n = 524288 steps and blame the refinement
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=1e308, C=np.eye(2), T_support=2.0)
        code, payload, err = run(capsys, ["scatter", "--spec", write_spec(tmp_path, spec)])
        assert code == 3 and payload is None
        message = json.loads(err)
        assert message["kind"] == "numerical" and "overflow" in message["error"]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["scatter", "--spec", str(path)])
        assert code == 2
        message = json.loads(err)
        assert "error" in message and "\n" not in err.strip()

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["scatter", "--spec", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in json.loads(err)


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

    def test_nonsymplectic_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["classify", "--sigma", write_matrix(tmp_path, 2.0 * np.eye(2)), "--omega", "1"],
        )
        assert code == 2
        assert "error" in json.loads(err)


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
        assert payload["eigenvalue_pairing_defect"] <= 1e-7

    def test_nonreversible_model_fails(self, capsys, tmp_path):
        C = np.zeros((2, 2))
        C[0, 1] = C[1, 0] = 1.0  # couples the reversal eigenspaces
        spec = ModelSpec(l=1, n_hyp=1, omega=[1.0], eps=0.3, C=C, T_support=2.0)
        code, payload, _ = run(capsys, ["reversible", "--spec", write_spec(tmp_path, spec)])
        assert code == 1
        assert payload["pass"] is False
        assert payload["reversibility"]["passed"] is False


class TestCliPlumbing:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 2
        assert "error" in json.loads(err)

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

    def test_bad_number_list(self, capsys):
        code, _, err = run(capsys, ["majorize", "--a", "1,spam", "--b", "1,1"])
        assert code == 2
        assert "error" in json.loads(err)
