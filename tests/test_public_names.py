"""Every public name of homscat is read by the package, a bench workload or a
script, except the three that ROADMAP.md names: a name nothing reads is not
part of any pipeline.  A reference is a Name or an Attribute that is loaded;
a definition, an assignment or an import is none."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
READERS = sorted(ROOT.glob("src/homscat/*.py")) + sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("scripts/*.py"))
UNREAD = {"HamiltonianSystem", "homoclinic_orbit", "symplectic_rotation"}


def public_names() -> list[str]:
    tree = ast.parse((ROOT / "src/homscat/__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def references(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


READ = set().union(*(references(path.read_text()) for path in READERS))


@pytest.mark.parametrize("name", public_names())
def test_public_name_is_read_unless_exempt(name):
    # an exempt name that gains a reader fails too, so the exemptions can only shrink
    assert (name in READ) is (name not in UNREAD)


def test_exemptions_are_public_names():
    assert UNREAD <= set(public_names())


def test_imports_and_definitions_are_not_references():
    source = "from homscat import inertia\nimport homscat.flow\ndef max_abs(M):\n    x = M\n"
    assert references(source) == {"M"}
    assert references("homscat.flow.scattering_matrix(p)") == {"homscat", "flow", "scattering_matrix", "p"}
