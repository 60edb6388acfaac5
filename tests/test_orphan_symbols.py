"""Every top-level function and class of finfree, and every method, has a
caller in the package, and every parameter with a default a call that sets it.

A top-level definition counts as used when some module of src/finfree other
than __init__.py names it (a Name or an Attribute node) outside the
definition's own body. A non-dunder method counts as used when such a module
holds an attribute reference to its name outside the method's own body: a
reference `C.m`, where C names a package class, counts only for C, and any
other `obj.m` counts for every class that defines m. Re-exports in
__init__.py and calls from the tests do not count, so a name that only the
tests reach shows up here and gets deleted or allowed below with its reason.

A parameter with a default is a setting, and so is a field with a default
of a dataclass (unless it is init=False). It counts as used when a call in
such a module that names its function (`f(...)` or `obj.f(...)`; a class
name for its __init__, its __new__ or its dataclass fields) passes it, by
keyword or by position, outside the function's or class's own body. A
parameter nothing passes gets deleted, and a guard it overrode keeps its
fixed limit.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# (module, name) kept with no caller in the package, and why
ALLOWED = {
    ("symfunc", "elementary_symmetric"):
        "perfbench traces it by name, and the tests take e_k from it as a reference",
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


# (module, function, parameter) kept with no call in the package that passes
# it by name, and why
ALLOWED_PARAMETERS = {
    ("cli", "main", "argv"): "the tests and perfbench call main(argv) in-process",
    ("montecarlo", "mc_charpoly", "mode"):
        "the only Monte Carlo reference of the tests for boxplus and boxtimes",
}


def _settings(node, method: bool) -> list:
    """(parameter, position) of each parameter of the def `node` that has a
    default. position counts the arguments a call passes before it, without
    a method's self or cls, and is None for a keyword-only parameter."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return [
        (arg.arg, i - method) for i, arg in enumerate(positional) if i >= first
    ] + [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _keyword(call, name):
    """The value a call passes by keyword `name`, or None."""
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def _field_settings(cls) -> list:
    """(field, position) of each field of the dataclass `cls` that has a
    default, for a call to the class; [] if `cls` is no dataclass."""
    if not any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    ):
        return []
    fields = []  # (name, has a default) of each field __init__ takes
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            init = _keyword(value, "init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            value = _keyword(value, "default") or _keyword(value, "default_factory")
        fields.append((node.target.id, value is not None))
    return [(name, i) for i, (name, default) in enumerate(fields) if default]


def _passes(call, parameter, position) -> bool:
    """The call may pass the parameter: by keyword, through **mapping, by
    position, or through *args."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(arg, ast.Starred) for arg in call.args)
    )


def _orphan_parameters(sources: dict) -> set:
    """(module, function, parameter) of each default no other call passes."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = {}  # called name -> [(module, Call)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr
                calls.setdefault(name, []).append((module, node))
    orphans = set()
    for module, tree in trees.items():
        owners = {}  # def -> its class, for methods
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owners.update((node, cls) for node in cls.body if isinstance(node, FUNCTIONS))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names, qualified, settings = [node.name], node.name, _field_settings(node)
            elif isinstance(node, FUNCTIONS):
                cls = owners.get(node)
                names = [node.name]
                if cls and node.name in ("__init__", "__new__"):
                    names.append(cls.name)
                method = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                qualified = f"{cls.name}.{node.name}" if cls else node.name
                settings = _settings(node, method)
            else:
                continue
            reaching = [
                call
                for name in names
                for where, call in calls.get(name, ())
                if not (where == module and node.lineno <= call.lineno <= node.end_lineno)
            ]
            for parameter, position in settings:
                if not any(_passes(call, parameter, position) for call in reaching):
                    orphans.add((module, qualified, parameter))
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


def test_no_orphan_parameters():
    orphans = _orphan_parameters(_package_sources()) - set(ALLOWED_PARAMETERS)
    assert not orphans, f"parameters no call in the package passes: {sorted(orphans)}"


def test_allowed_parameters_exist():
    orphans = _orphan_parameters(_package_sources())
    assert set(ALLOWED_PARAMETERS) <= orphans, set(ALLOWED_PARAMETERS) - orphans


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


def test_scan_finds_an_orphan_parameter():
    defs = (
        "def f(x, by_position=1, by_keyword=2, unset=3, *, only_keyword=4):\n"
        "    return f(x, 0, 0, 0, only_keyword=0)\n\n"
        "class C:\n"
        "    def __init__(self, width=1):\n        pass\n\n"
        "    def m(self, step=1, spare=2):\n        return self.m(step, spare)\n"
    )
    calls = "from .a import C, f\n\ndef main(obj):\n    return {}\n"
    # recursion does not count; C(4) reaches __init__ and obj.m(5) reaches step
    named = calls.format("f(1, 2, by_keyword=3), C(4), obj.m(5)")
    assert _orphan_parameters({"a": defs, "b": named}) == {
        ("a", "f", "unset"), ("a", "f", "only_keyword"), ("a", "C.m", "spare"),
    }
    # *args may pass any positional parameter, and **mapping any parameter
    unpacked = calls.format("f(*obj), f(**obj), C(4), obj.m(5)")
    assert _orphan_parameters({"a": defs, "b": unpacked}) == {("a", "C.m", "spare")}
    # a dataclass field with a default is a setting of its class
    fields = (
        "from dataclasses import dataclass, field\n\n"
        "@dataclass(frozen=True)\n"
        "class R:\n"
        "    x: int\n"
        "    plain: str = field(repr=False)\n"
        "    cached: int = field(default=0, init=False)\n"
        "    seed: int = 1\n"
        "    size: int = field(default=2)\n"
        "    spare: list = field(default_factory=list)\n\n"
        "    def copy(self):\n        return R(self.x, spare=[])\n\n"
        "@dataclass\n"
        "class Unset:\n"
        "    flag: bool = False\n"
    )
    # a call inside the class does not count; R(0, "", 5) passes seed by
    # position, as an init=False field takes none
    called = calls.format('R(0, "", 5, size=3), Unset()')
    assert _orphan_parameters({"a": fields, "b": called}) == {
        ("a", "R", "spare"), ("a", "Unset", "flag"),
    }
