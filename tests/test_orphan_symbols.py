"""Every top-level function and class of finfree, and every method, has a
caller in the package.

A top-level definition counts as used when some module of src/finfree other
than __init__.py names it (a Name or an Attribute node) outside the
definition's own body. A non-dunder method counts as used when such a module
holds an attribute reference to its name outside the method's own body: a
reference `C.m`, where C names a package class, counts only for C, and any
other `obj.m` counts for every class that defines m. Re-exports in
__init__.py and calls from the tests do not count, so a name that only the
tests reach shows up here and gets deleted or allowed below with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# (module, name) kept with no caller in the package, and why
ALLOWED = {
    ("symgroup", "class_size"): "reference of the character-orthogonality test",
}


def _unreferenced(module, node, references) -> bool:
    """No reference in `references` lies outside the definition `node`."""
    return not any(
        not (where == module and node.lineno <= line <= node.end_lineno)
        for where, line in references
    )


def _orphans(sources: dict) -> set:
    """(module, name) of each top-level def or class no other code names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    references = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append((module, node.lineno))
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef))
        and _unreferenced(module, node, references.get(node.name, ()))
    }


def _orphan_methods(sources: dict) -> set:
    """(module, "Class.method") of each non-dunder method no other code reaches."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    classes = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    # attribute name -> [(owner class or None, module, line)]
    references = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                value = node.value
                owner = value.id if isinstance(value, ast.Name) and value.id in classes else None
                references.setdefault(node.attr, []).append((owner, module, node.lineno))
    orphans = set()
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, FUNCTIONS) or (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    continue
                reaching = [
                    (where, line)
                    for owner, where, line in references.get(node.name, ())
                    if owner in (None, cls.name)
                ]
                if _unreferenced(module, node, reaching):
                    orphans.add((module, f"{cls.name}.{node.name}"))
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


def test_no_orphan_methods():
    orphans = _orphan_methods(_package_sources())
    assert not orphans, f"methods never used in the package: {sorted(orphans)}"


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


def test_scan_finds_an_orphan_method():
    sources = {
        "a": "class Used:\n"
             "    def load(self):\n        return 1\n\n"
             "    def walk(self, n):\n        return self.walk(n - 1)\n\n"
             "    def __len__(self):\n        return 0\n\n"
             "class Unused:\n"
             "    def load(self):\n        pass\n\n"
             "    def size(self):\n        return 2\n",
        "b": "from .a import Used\n\n"
             "def main(obj):\n    return Used.load, obj.size()\n",
    }
    # Used.load reaches only Used; obj.size reaches every class with a size
    assert _orphan_methods(sources) == {("a", "Used.walk"), ("a", "Unused.load")}
