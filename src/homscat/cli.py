"""Command-line driver: each subcommand runs one pipeline and emits a JSON report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import classify, flow, models
from .majorize import majorizes, mirsky_matrix
from .matkit import CenterBlock, _float_array, _integer, _pair_count, inertia, max_abs

_FAILURE_EXIT = 1
_USAGE_EXIT = 2
_NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) with a usage dump; route through the JSON error path instead
    def error(self, message):
        raise ValueError(message)


def _reader(grammar: str, convert, what: str, listed: bool = False):
    # an argparse type: it decides what a number looks like, the library what it may be;
    # Python's int and float alone would also read 1_0 and non-ASCII digits
    pattern = re.compile(grammar, re.ASCII | re.IGNORECASE)

    def number(text: str):
        tokens = [token.strip() for token in (text.split(",") if listed else [text])]
        for k, token in enumerate(tokens, 1):
            if pattern.fullmatch(token) is None:
                cause = f": entry {k} is {'not a number' if token else 'empty'}" if listed else ""
                raise argparse.ArgumentTypeError(f"could not parse '{text}' as {what}{cause}")
        return [convert(token) for token in tokens] if listed else convert(tokens[0])

    return number


def _shown(digits: str) -> str:
    # a long count is named by its first and last ten digits, never echoed whole
    return digits if len(digits) <= 20 else f"'{digits[:10]}...{digits[-10:]}' ({len(digits)} digits)"


def _int(token: str) -> int:
    # int reads at most sys.get_int_max_str_digits() digits, leading zeros included, and
    # that many significant digits (640 at the least) are far beyond the float range
    sign = token[0] if token[0] in "+-" else ""
    digits = token[len(sign) :].lstrip("0") or "0"
    try:
        return int(sign + digits)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_shown(digits)} is an integer beyond the float range") from None


_NUMBER = r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|nan|inf|infinity)"
_count = _reader(r"[+-]?[0-9]+", _int, "an integer")
_number = _reader(_NUMBER, float, "a number")
_number_list = _reader(_NUMBER, float, "a comma-separated list of numbers", listed=True)


def _mat_from_json(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "dim" not in doc or "data" not in doc:
        raise ValueError("matrix document must be an object with 'dim' and 'data'")
    dim = _integer(doc["dim"], "matrix dim")
    if dim < 1:
        raise ValueError(f"matrix dim must be at least 1, got {dim}")
    data = _float_array(doc["data"], "matrix data")
    if data.ndim != 1:
        got = "a single number" if data.ndim == 0 else f"nested lists of shape {data.shape}"
        raise ValueError(f"matrix data must be a flat list of dim^2 = {dim * dim} row-major entries, got {got}")
    if data.size != dim * dim:
        raise ValueError(f"matrix data length {data.size} does not match dim {dim}")
    return data.reshape(dim, dim)


def to_json(value):
    """Encode a report payload: dataclasses become dicts of their fields,
    square matrices {"dim", "data"} documents with row-major entries."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return {"dim": value.shape[0], "data": [float(x) for x in value.ravel()]}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [to_json(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        return value
    return float(value)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from None


def _emit(payload: dict, out_path: str | None) -> None:
    payload = dict(payload, timestamp=datetime.now(timezone.utc).isoformat())
    text = json.dumps(to_json(payload), indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="homscat", description="scattering, signature, and realization pipelines")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    scatter = sub.add_parser("scatter", help="scattering matrix of a model spec", parents=[out])
    scatter.add_argument("--spec", required=True, help="path to a ModelSpec JSON document")

    cls = sub.add_parser("classify", help="Hessian and signature of a scattering matrix", parents=[out])
    cls.add_argument("--sigma", required=True, help="path to a matrix JSON document")
    cls.add_argument("--omega", type=_number_list, required=True, help="comma-separated centre frequencies")

    realize = sub.add_parser("realize", help="realize the signature (m, 2l - m)", parents=[out])
    realize.add_argument("--l", type=_count, required=True)
    realize.add_argument("--m", type=_count, required=True)
    realize.add_argument("--omega", type=_number_list, required=True)
    realize.add_argument("--eps", type=_number, required=True)

    indef = sub.add_parser("indefinite", help="never-definite check over a random ensemble", parents=[out])
    indef.add_argument("--l", type=_count, required=True)
    indef.add_argument("--omega", type=_number_list, required=True)
    indef.add_argument("--trials", type=_count, required=True)
    indef.add_argument("--seed", type=_count, required=True)

    rev = sub.add_parser("reversible", help="reversibility check and (l, l) signature", parents=[out])
    rev.add_argument("--spec", required=True)

    mir = sub.add_parser("mirsky", help="symmetric matrix with prescribed diagonal and spectrum", parents=[out])
    mir.add_argument("--diag", type=_number_list, required=True)
    mir.add_argument("--eigs", type=_number_list, required=True)

    maj = sub.add_parser("majorize", help="majorization witness for two vectors", parents=[out])
    maj.add_argument("--a", type=_number_list, required=True)
    maj.add_argument("--b", type=_number_list, required=True)

    demo = sub.add_parser("demo-integrable", help="eps = 0 model end to end; asserts sigma = I", parents=[out])
    demo.add_argument("--l", type=_count, required=True)
    demo.add_argument("--omega", type=_number_list, default=None, help="defaults to 1, 2, ..., l")

    return parser


def _cmd_scatter(args) -> tuple[dict, bool]:
    spec = models.ModelSpec.from_json_dict(_load_json(args.spec))
    result = flow.scattering_matrix(models.scattering_problem(spec))
    return {"command": "scatter", "spec": spec.to_json_dict(), "tol": flow.DEFAULT_SIGMA_TOL, **vars(result)}, True


def _cmd_classify(args) -> tuple[dict, bool]:
    sigma = _mat_from_json(_load_json(args.sigma))
    H = classify.hessian_from_scattering(sigma, CenterBlock(args.omega).D)
    report = inertia(H)
    return {
        "command": "classify",
        "omega": args.omega,
        "hessian": H,
        "signature": report,
        "degenerate": report.degenerate,
    }, True


def _cmd_realize(args) -> tuple[dict, bool]:
    report = classify.realize_signature(args.l, args.m, args.omega, args.eps)
    return {"command": "realize", "omega": args.omega, **vars(report)}, True


def _cmd_indefinite(args) -> tuple[dict, bool]:
    if args.l < 1:  # named in the library's words; a count beyond the float range misses omega's length, below
        _pair_count(args.l)
    if len(args.omega) != args.l:
        raise ValueError(f"omega has {len(args.omega)} entries but --l is {_shown(str(args.l))}")
    summary = classify.indefiniteness_ensemble(CenterBlock(args.omega).D, args.trials, args.seed)
    ok = summary.definite_positive == 0 and summary.definite_negative == 0
    return {"command": "indefinite", **vars(summary), "pass": ok}, ok


def _cmd_reversible(args) -> tuple[dict, bool]:
    spec = models.ModelSpec.from_json_dict(_load_json(args.spec))
    result = flow.scattering_matrix(models.scattering_problem(spec))
    rev, report = classify.reversible_signature(result.sigma, spec.center)
    payload = {
        "command": "reversible",
        "spec": spec.to_json_dict(),
        "tol": flow.DEFAULT_SIGMA_TOL,
        **vars(result),
        "reversibility": rev,
    }
    if report is not None:
        payload.update(signature=report, degenerate=report.degenerate)
    return {**payload, "pass": rev.passed}, rev.passed


def _cmd_mirsky(args) -> tuple[dict, bool]:
    """Passes when diag_error <= 1e-10 max(1, max|eigs|) and eigenvalue_error <= 1e-8 max(1, max|eigs|),
    the bounds of acceptance criterion 06 scaled with the spectrum; tol is the majorization bound."""
    d, eigs = np.array(args.diag), np.array(args.eigs)
    M = mirsky_matrix(d, eigs)
    w = np.linalg.eigvalsh(M)  # M is exactly symmetric by construction, and LAPACK returns w ascending
    diag_error = max_abs(np.diag(M) - d)
    eigenvalue_error = max_abs(w - np.sort(eigs))
    scale = max(1.0, max_abs(eigs))
    ok = diag_error <= 1e-10 * scale and eigenvalue_error <= 1e-8 * scale
    payload = {
        "command": "mirsky",
        "diag": d,
        "eigs": eigs,
        "matrix": M,
        "diag_error": diag_error,
        "eigenvalue_error": eigenvalue_error,
        "tol": majorizes(d, eigs).tol,
        "pass": ok,
    }
    return payload, ok


def _cmd_majorize(args) -> tuple[dict, bool]:
    return {"command": "majorize", **vars(majorizes(args.a, args.b))}, True


def _cmd_demo_integrable(args) -> tuple[dict, bool]:
    l = _pair_count(args.l)
    models._require_fit(l, models.ModelSpec.T_support)  # before the default omega, whose length is l
    omega = [float(k) for k in range(1, l + 1)] if args.omega is None else args.omega
    spec = models.ModelSpec(l=l, n_hyp=1, omega=omega, eps=0.0)
    result = flow.scattering_matrix(models.scattering_problem(spec))
    deviation = max_abs(result.sigma - np.eye(2 * spec.l))
    ok = deviation <= flow.DEFAULT_SIGMA_TOL
    payload = {
        "command": "demo-integrable",
        "l": spec.l,
        "omega": omega,
        "tol": flow.DEFAULT_SIGMA_TOL,
        "max_deviation_from_identity": deviation,
        "pass": ok,
        **vars(result),
    }
    return payload, ok


_HANDLERS = {
    "scatter": _cmd_scatter,
    "classify": _cmd_classify,
    "realize": _cmd_realize,
    "indefinite": _cmd_indefinite,
    "reversible": _cmd_reversible,
    "mirsky": _cmd_mirsky,
    "majorize": _cmd_majorize,
    "demo-integrable": _cmd_demo_integrable,
}


def _fail(exc: Exception, kind: str, code: int) -> int:
    message = " ".join(str(exc).split())
    sys.stderr.write(json.dumps({"error": message, "kind": kind}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, ok = _HANDLERS[args.command](args)
        _emit(payload, args.out)
    except ValueError as exc:
        return _fail(exc, "input", _USAGE_EXIT)
    except ArithmeticError as exc:
        return _fail(exc, "numerical", _NUMERICAL_EXIT)
    return 0 if ok else _FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
