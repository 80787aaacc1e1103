"""No module of the package reads a private name of another."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cbrs"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """Each `from .mod import _name` and each `mod._name` of a sibling
    module `mod` in `source`, as written."""
    tree = ast.parse(source)
    found, siblings = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"from .{node.module or ''} import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in siblings and _private(node.attr):
                found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_reads_a_private_name_of_another(module):
    assert private_uses((PACKAGE / f"{module}.py").read_text("utf-8")) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .layer1 import ClassReport, _timed_report", ["from .layer1 import _timed_report"]),
        ("from . import journal\njournal._append(p, b'')", ["journal._append"]),
        ("from . import journal as j\nj._TAIL_LIMIT", ["j._TAIL_LIMIT"]),
        ("from . import records\nrecords.encode(x)\nself._dirty", []),
        ("from .records import __doc__", []),
    ],
)
def test_the_walk_finds_private_imports_and_attributes(source, found):
    assert private_uses(source) == found
