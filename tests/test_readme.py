"""The README's Claims table is held to the suite: every claim names a
homscat object whose docstring argues it, and checks that exist, either
pytest node ids or CI step names written as `CI: <step name>`."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
HEADER = ["claim", "status", "argued in", "checked by"]
STATUSES = {"proved", "constructed", "census"}
MAX_LINES = 200


def cells(line: str) -> list[str]:
    """The cells of a table row; a pipe escaped as \\| stays in its cell."""
    return [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]


def claims(text: str) -> list[dict]:
    """The rows of the Claims table, which must open the first section of the README."""
    first = (text.split("\n## ") + [""])[1]
    lines = [line for line in first.splitlines() if line.startswith("|")]
    if not (first.startswith("Claims\n") and lines and cells(lines[0]) == HEADER):
        return []
    rows = []
    for line in lines[2:]:
        row = cells(line)
        _, status, argued, checks = (row + [""] * 4)[:4]
        rows.append(
            {
                "width": len(row),
                "status": status,
                "argued": argued.strip("`"),
                "checks": re.findall(r"`([^`]+)`", checks),
            }
        )
    return rows


def node_exists(node_id: str) -> bool:
    """Whether a pytest node id `path::Class::test` or `path::test` names a test in the file."""
    path, *names = node_id.split("::")
    file = ROOT / path
    if not names or not file.is_file():
        return False
    body = ast.parse(file.read_text()).body
    for k, name in enumerate(names):
        test = name.startswith("Test" if k < len(names) - 1 else ("test", "Test"))
        found = [
            node
            for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
        ]
        if not (test and found):
            return False
        body = found[0].body if isinstance(found[0], ast.ClassDef) else []
    return True


def ci_steps() -> set[str]:
    return set(re.findall(r"^\s*- name: (.+?)\s*$", WORKFLOW.read_text(), re.MULTILINE))


def second_harness(text: str) -> list[str]:
    """The workflow lines that run the CLI, an inline python -c program or define a shell
    function: checks belong to the tier-1 suite or to scripts/, not to a second harness."""
    harness = re.compile(r"-m homscat\b|\bpython3?\b.*\s-c\b|^\s*(function\s+[\w-]+|[\w-]+\s*\(\s*\)\s*\{)")
    return [line.strip() for line in text.splitlines() if harness.search(line)]


def check_exists(check: str) -> bool:
    if check.startswith("CI: "):
        return check[len("CI: "):] in ci_steps()
    return node_exists(check)


def docstring(dotted: str) -> str | None:
    """The docstring of a dotted homscat name: a module, or an attribute path within one."""
    parts = dotted.split(".")
    if parts[0] != "homscat":
        return None
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return None
        return target.__doc__
    return None


ROWS = claims(README.read_text())


def row_id(k: int) -> str:
    """Row k's argued-in name, with its row number when an earlier row names the same object."""
    argued = ROWS[k]["argued"]
    return argued if all(row["argued"] != argued for row in ROWS[:k]) else f"{argued}-row{k + 1}"


def test_readme_is_a_short_contract_that_opens_with_its_claims():
    assert len(README.read_text().splitlines()) <= MAX_LINES
    assert ROWS, f"the first section of the README must be a Claims table with the columns {HEADER}"


@pytest.mark.parametrize("row", ROWS, ids=[row_id(k) for k in range(len(ROWS))])
def test_claim(row):
    assert row["width"] == len(HEADER)
    assert row["status"] in STATUSES, row["status"]
    assert (docstring(row["argued"]) or "").strip(), f"{row['argued']} has no docstring"
    assert row["checks"], "a claim needs at least one check"
    missing = [check for check in row["checks"] if not check_exists(check)]
    assert not missing, f"checks not in the suite or the CI file: {missing}"


@pytest.mark.parametrize(
    "check",
    [
        "tests/test_classify.py::TestSameSignCertificat",
        "tests/test_classify.py::TestRotationQuotient::test_hessian_invariant_under_rotation",
        "tests/test_classify.py::random_symmetric",
        "tests/test_classify.py",
        "tests/test_nothing.py::test_criterion_04_never_definite",
        "CI: Never-definite ensemble",
    ],
)
def test_a_bogus_check_fails(check):
    assert not check_exists(check)


@pytest.mark.parametrize("dotted", ["homscat.classify.no_such_function", "numpy.linalg", "homscat.nothing"])
def test_a_bogus_argument_fails(dotted):
    assert not (docstring(dotted) or "").strip()


def test_ci_runs_no_second_harness():
    assert second_harness(WORKFLOW.read_text()) == []


@pytest.mark.parametrize(
    "line",
    ["python -W error::RuntimeWarning -m homscat indefinite --l 6", "python -m homscat.cli majorize --a 1 --b 1",
     "expect() {", "coupled_spec () {", "function check {",
     'OPENBLAS_NUM_THREADS=1 python -W error::RuntimeWarning -c "', "python3 -c 'import homscat'"],
)
def test_a_second_harness_is_found(line):
    assert second_harness(f"run: |\n  export PYTHONPATH=src\n  {line}\n") == [line]
