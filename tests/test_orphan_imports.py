"""No finfree module keeps a module-level import that it never uses.

Deleting a function can leave the names it imported behind. The scan uses
only the stdlib ast: a name bound by a top-level import must appear as a
Name node somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree) -> dict:
    """{bound name: line} for the imports directly in the module body."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_no_orphan_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = _used(tree)
    orphans = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not orphans, f"{module}: imported but unused {orphans}"


def test_scan_finds_an_orphan():
    tree = ast.parse(
        "import os\nfrom math import comb, lcm\n"
        "def f(n):\n    return comb(n, 2)\n"
    )
    used = _used(tree)
    assert {n for n in _imported(tree) if n not in used} == {"os", "lcm"}
