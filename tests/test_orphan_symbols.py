"""Every top-level function and class of finfree has a caller in the package.

A definition counts as used when some module of src/finfree other than
__init__.py names it (a Name or an Attribute node) outside the definition's
own body. Re-exports in __init__.py and calls from the tests do not count, so
a name that only the tests reach shows up here and gets deleted or allowed
below with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"

# (module, name) kept with no caller in the package, and why
ALLOWED = {
    ("symgroup", "class_size"): "reference of the character-orthogonality test",
}


def _orphans(sources: dict) -> set:
    """(module, name) of each top-level def or class no other code names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    references = [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    orphans = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(
                name == node.name
                and not (where == module and node.lineno <= line <= node.end_lineno)
                for where, line, name in references
            ):
                orphans.add((module, node.name))
    return orphans


def _package_sources() -> dict:
    return {
        path.stem: path.read_text()
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_no_orphan_symbols():
    orphans = _orphans(_package_sources()) - set(ALLOWED)
    assert not orphans, f"defined but never used in the package: {sorted(orphans)}"


def test_allowed_symbols_exist():
    sources = _package_sources()
    for module, name in ALLOWED:
        tree = ast.parse(sources[module])
        assert name in {getattr(node, "name", None) for node in tree.body}, (module, name)


def test_scan_finds_an_orphan():
    sources = {
        "a": "def used():\n    pass\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "class Unused:\n    pass\n",
        "b": "from .a import used\nimport a\n\n"
             "def main():\n    return used(), a.used\n",
        "c": "from . import b\nb.main()\n",
    }
    assert _orphans(sources) == {("a", "recursive"), ("a", "Unused")}
