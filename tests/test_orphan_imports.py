"""No finfree module keeps an import that it never uses.

Deleting a function can leave the names it imported behind. The scan uses
only the stdlib ast. A name bound by an import in the module body must
appear as a Name node somewhere in the module; a name bound by an import
inside a function must appear as a Name node in that function.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of a module or function, not those of functions inside it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _imported(scope) -> dict:
    """{bound name: line} for the imports that bind in this scope."""
    bound = {}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(scope) -> set:
    return {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}


def _orphans(tree) -> set:
    """(name, line) of every import whose name its scope never reads."""
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    found = set()
    for scope in scopes:
        used = _used(scope)
        found |= {(n, line) for n, line in _imported(scope).items() if n not in used}
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_orphan_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    orphans = _orphans(tree)
    assert not orphans, f"{module}: imported but unused {sorted(orphans)}"


def test_scan_finds_an_orphan():
    # comb is read in f, but the import of it inside g binds only in g
    tree = ast.parse(
        "import os\nfrom math import comb, lcm\n"
        "def f(n):\n    return comb(n, 2)\n"
        "def g(x):\n    if x:\n        from math import comb, floor\n"
        "        return floor(x)\n"
    )
    assert _orphans(tree) == {("os", 1), ("lcm", 2), ("comb", 7)}
