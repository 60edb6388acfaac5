"""The routes to the commutator polynomial, the two routes to the
Weingarten function, and the two routes of each two-route layer share no
package function but the primitives allowed below.

Four routes compute the expected characteristic polynomial of A UBU* - UBU* A:
the closed form (whole, and one coefficient at a time), the convolution,
the brute-force oracle and Haar Monte Carlo. Two compute Wg: the character
expansion and the orthogonality relations. Immanants, the subgroup-sum
constants and Kostka numbers have two routes each. Their agreement is
evidence only while none of them reuses another's result, so the scan walks
the package's ast from each route's entry points. The same walk checks that
both closed entry points and the two factor identities reach the one cross
sum and left and right weights they share.

A function reaches what its body and its default values name; annotations
are not uses. A bare name is resolved through its module: its own top-level
definitions and its relative imports, followed through re-exports, so two
modules that define the same name stay apart. `C.m` for a package class C
reaches the method C.m alone, and `mod.f` for an imported package module
reaches mod.f. Naming a package class reaches its special methods, and any
other `obj.m` reaches the methods named m of every package class the route
names: an instance of a class the route never names cannot be on it, since
the route's inputs are spectra and polynomials.
"""

import ast
from itertools import combinations
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# route -> its entry points
ROUTES = {
    "closed": (("polynomials", "commutator_poly_closed"),
               ("polynomials", "commutator_coefficient")),
    "convolution": (("polynomials", "commutator_poly"),),
    "oracle": (("oracle", "brute_force_expected_ek"),
               ("oracle", "brute_force_coefficients")),
    "monte carlo": (("montecarlo", "mc_charpoly"),),
}

# (module, function) that two routes may share, and why it is a primitive
PRIMITIVES = {
    ("util", "to_fraction"): "coerces one input value to an exact rational",
    ("symfunc", "as_spectrum"): "validates and coerces an input spectrum",
    ("symfunc", "as_spectrum_pair"): "validates two input spectra of one length",
    ("util", "as_tuple"): "refuses an input that is not a list of entries",
    ("util", "clear_denominators"): "puts values on one denominator",
    ("util", "factorials"): "the table 0!, 1!, ..., n!",
    ("util", "_slot_bytes"): "sizes a big-int slot",
    ("util", "_signed_slots"): "reads signed ints back from big-int slots",
    ("util", "_slot_bias"): "the half-range offset that makes big-int slots unsigned",
    ("util", "check_cap"): "refuses a size past its fixed limit",
}

# The parts of the closed form's two factors, E[e_k] = L_k(A) R_k(B) with
# L_k = S_k(A) times the left weight and R_k = S_k(B) times the right one,
# and the functions that must reach them, with the parts each must reach:
# both closed entry points read all three, and each identity restates one
# factor, so the identities row certifies what the closed route runs.
FACTORS = {
    "cross sum": ("symfunc", "cross_pair"),
    "left": ("symfunc", "left_weight"),
    "right": ("symfunc", "right_weight"),
}
FACTOR_USERS = {
    ("polynomials", "commutator_poly_closed"): {"cross sum", "left", "right"},
    ("polynomials", "commutator_coefficient"): {"cross sum", "left", "right"},
    ("oracle", "identity_leftdep"): {"cross sum", "left"},
    ("oracle", "identity_rightdep"): {"cross sum", "right"},
}

WG_ROUTES = {
    "character expansion": (("weingarten", "weingarten"),),
    "orthogonality": (("oracle", "weingarten_gram_inverse"),),
}

WG_PRIMITIVES = {
    ("partitions", "partitions_of"): "lists the cycle types of S_k",
    ("partitions", "Partition.__new__"): "validates a partition",
    ("partitions", "Partition.size"): "the sum of the parts",
    ("util", "check_cap"): "refuses a size past its fixed limit",
    ("util", "to_fraction"): "coerces one value to an exact rational",
    ("weingarten", "ClassFunction.__post_init__"): "validates a class function",
    ("weingarten", "ClassFunction.__call__"): "reads a class function",
}

# Each layer with two routes: (routes, what the pair may share and why)
_SHAPES = {
    ("partitions", "Partition.__new__"): "validates a partition",
    ("partitions", "Partition.size"): "the sum of the parts",
    ("util", "check_cap"): "refuses a size past its fixed limit",
}
TWO_ROUTE_LAYERS = {
    "immanant": (
        {"direct": (("immanants", "immanant_direct"),),
         "goulden-jackson": (("immanants", "immanant_gj"),)},
        {**_SHAPES,
         ("immanants", "_checked"): "the shape and size checks of both routes",
         ("immanants", "_cleared"): "clears the matrix to ints",
         ("immanants", "as_matrix"): "validates and coerces the input matrix",
         ("util", "as_tuple"): "refuses an input that is not a list of entries",
         ("util", "clear_denominators"): "puts values on one denominator",
         ("util", "to_fraction"): "coerces one value to an exact rational"},
    ),
    "subgroup-sum constant": (
        {"closed": (("symgroup", "c_constant"),),
         "brute force": (("symgroup", "c_constant_bruteforce"),)},
        _SHAPES,
    ),
    "kostka": (
        {"strip rule": (("partitions", "_kostka_cached"),),
         "tableaux": (("partitions", "semistandard_tableaux"),)},
        {},
    ),
}


def _annotations(tree) -> set:
    """ids of every node inside an annotation of the tree."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            roots += [arg.annotation for arg in every if arg is not None]
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _graph(sources: dict) -> tuple:
    """(graph, classes). graph maps each top-level function and method (a
    method is named Class.method) to (functions, classes, attributes): the
    functions it names, the package classes it names, and the attribute
    names it reads off any other object. classes maps each package class to
    its methods."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs, classes = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs[module, node.name] = node
            elif isinstance(node, ast.ClassDef):
                classes[module, node.name] = {}
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        key = (module, f"{node.name}.{item.name}")
                        defs[key] = item
                        classes[module, node.name][item.name] = key

    # local name -> (module, name), or (module, None) for a package module
    bindings = {}
    for module, tree in trees.items():
        names = {node.name: (module, node.name) for node in tree.body
                 if isinstance(node, (*FUNCTIONS, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (alias.name, None) if node.module is None else (node.module, alias.name)
                    names[alias.asname or alias.name] = target
        bindings[module] = names

    def resolve(module, name):
        """The definition that name denotes in module, through re-exports."""
        target = bindings[module].get(name)
        while target and target[1] is not None and target not in defs and target not in classes:
            target = bindings.get(target[0], {}).get(target[1])
        return target

    skip = {id_ for tree in trees.values() for id_ in _annotations(tree)}
    graph = {}
    for (module, name), node in defs.items():
        roots = [*node.body, *node.args.defaults, *(v for v in node.args.kw_defaults if v)]
        functions, named, attributes = set(), set(), set()
        for sub in (n for root in roots for n in ast.walk(root) if id(n) not in skip):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                target = resolve(module, sub.id)
                if target in defs:
                    functions.add(target)
                elif target in classes:
                    named.add(target)
            elif isinstance(sub, ast.Attribute):
                owner = (
                    resolve(module, sub.value.id) if isinstance(sub.value, ast.Name) else None
                )
                if owner in classes:
                    if sub.attr in classes[owner]:
                        functions.add(classes[owner][sub.attr])
                elif owner and owner[1] is None:  # a package module
                    target = resolve(owner[0], sub.attr)
                    if target in defs:
                        functions.add(target)
                else:
                    attributes.add(sub.attr)
        graph[module, name] = (functions, named, attributes)
    return graph, classes


def _reach(graph, classes, entries) -> set:
    """The functions and methods a route reaches from its entry points. A
    class it names brings its special methods, and an attribute read off an
    unknown object the methods of that name of every class the route names:
    an instance exists on a route only if the route names its class."""
    reached, named, attributes = set(entries), set(), set()
    todo = list(entries)
    while todo:
        functions, new_classes, new_attributes = graph[todo.pop()]
        found = set(functions)
        for cls in new_classes - named:
            named.add(cls)
            found.update(key for attr, key in classes[cls].items()
                         if attr.startswith("__") or attr in attributes)
        attributes |= new_attributes
        found.update(classes[cls][attr] for cls in named
                     for attr in new_attributes if attr in classes[cls])
        for key in found - reached:
            reached.add(key)
            todo.append(key)
    return reached


def _shared(sources: dict, routes=ROUTES) -> dict:
    """{(module, name): routes} for each function two or more routes reach."""
    graph, classes = _graph(sources)
    reach = {route: _reach(graph, classes, entries) for route, entries in routes.items()}
    shared = {}
    for first, second in combinations(routes, 2):
        for key in reach[first] & reach[second]:
            shared.setdefault(key, set()).update((first, second))
    return shared


def _package_sources() -> dict:
    return {
        path.stem: path.read_text()
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_routes_share_only_primitives():
    shared = _shared(_package_sources())
    found = {key: sorted(routes) for key, routes in shared.items() if key not in PRIMITIVES}
    assert not found, f"functions reached by more than one route: {found}"


def test_every_primitive_is_shared():
    shared = _shared(_package_sources())
    assert set(PRIMITIVES) <= set(shared), set(PRIMITIVES) - set(shared)


def test_weingarten_routes_share_only_primitives():
    assert set(_shared(_package_sources(), WG_ROUTES)) == set(WG_PRIMITIVES)


@pytest.mark.parametrize("layer", sorted(TWO_ROUTE_LAYERS))
def test_two_route_layers_share_only_primitives(layer):
    routes, primitives = TWO_ROUTE_LAYERS[layer]
    assert set(_shared(_package_sources(), routes)) == set(primitives)


def _factors_reached(sources: dict) -> dict:
    """{entry: names of the FACTORS it reaches} for each entry of FACTOR_USERS.
    No other route may reach them: test_routes_share_only_primitives."""
    graph, classes = _graph(sources)
    return {
        entry: {name for name, key in FACTORS.items()
                if key in _reach(graph, classes, (entry,))}
        for entry in FACTOR_USERS
    }


def test_closed_form_and_factor_identities_reach_the_same_factors():
    assert _factors_reached(_package_sources()) == FACTOR_USERS


def test_scan_flags_a_closed_form_that_restates_a_weight():
    sources = {
        "symfunc": "def cross_pair(x, k):\n    return 0\n\n"
                   "def left_weight(f, k):\n    return 2\n\n"
                   "def right_weight(f, k):\n    return 3\n\n"
                   "def left_factor(x, k):\n    return cross_pair(x, k) * left_weight(x, k)\n\n"
                   "def right_factor(x, k):\n    return cross_pair(x, k) * right_weight(x, k)\n",
        "polynomials": "from .symfunc import cross_pair, left_factor, left_weight, right_factor\n\n"
                       "def commutator_coefficient(k, a, b):\n"
                       "    return left_factor(a, k) * right_factor(b, k)\n\n"
                       "def commutator_poly_closed(a, b):\n"
                       "    return cross_pair(a, 2) * left_weight(a, 2) * cross_pair(b, 2) * 3\n",
        "oracle": "from .symfunc import left_factor, right_factor\n\n"
                  "def identity_leftdep(a, k):\n    return 0, left_factor(a, k)\n\n"
                  "def identity_rightdep(b, k):\n    return 0, right_factor(b, k)\n",
    }
    whole = ROUTES["closed"][0]
    assert _factors_reached(sources) == {**FACTOR_USERS, whole: {"cross sum", "left"}}


# A stand-in package: the convolution squares through boxminus, and so
# does a closed form that has lost its independence.
_ROUTE_STUBS = {
    "util": "def to_fraction(v):\n    return v\n",
    "oracle": "def brute_force_expected_ek(a, b, k):\n    return 0\n\n"
              "def brute_force_coefficients(a, b, ks):\n    return 0\n",
    "montecarlo": "def mc_charpoly(a, b, n, seed):\n    return 0\n",
}


def test_scan_flags_a_closed_route_that_convolves():
    sources = {
        **_ROUTE_STUBS,
        "polynomials": "from .util import to_fraction\n\n"
                       "def boxminus(p, q):\n    return to_fraction(p)\n\n"
                       "def commutator_poly(p, q):\n    return boxminus(p, q)\n\n"
                       "def commutator_poly_closed(a, b):\n    return boxminus(a, b)\n\n"
                       "def commutator_coefficient(k, a, b):\n    return 0\n",
    }
    assert _shared(sources) == {
        ("polynomials", "boxminus"): {"closed", "convolution"},
        ("util", "to_fraction"): {"closed", "convolution"},
    }


def test_scan_keeps_same_named_private_functions_apart():
    sources = {
        **_ROUTE_STUBS,
        "immanants": "def _cleared(y):\n    return as_matrix(y)\n\n"
                     "def as_matrix(y):\n    return y\n",
        "polynomials": "def _cleared(p):\n    return p\n\n"
                       "def commutator_poly(p, q):\n    return _cleared(p)\n\n"
                       "def commutator_poly_closed(a, b):\n    return 0\n\n"
                       "def commutator_coefficient(k, a, b):\n    return 0\n",
        "oracle": "from .immanants import _cleared\n\n"
                  "def brute_force_expected_ek(a, b, k):\n    return _cleared(a)\n\n"
                  "def brute_force_coefficients(a, b, ks):\n    return 0\n",
    }
    assert _reach(*_graph(sources), ROUTES["convolution"]) == {
        ("polynomials", "commutator_poly"), ("polynomials", "_cleared"),
    }
    assert _shared(sources) == {}


def test_scan_reads_methods_only_off_classes_the_route_names():
    sources = {
        **_ROUTE_STUBS,
        "partitions": "class Partition(tuple):\n"
                      "    @property\n    def size(self):\n        return sum(self)\n",
        "polynomials": "def commutator_poly(p, q):\n    return 0\n\n"
                       "def commutator_poly_closed(a, b):\n    return 0\n\n"
                       "def commutator_coefficient(k, a, b):\n    return 0\n",
        "oracle": "from .partitions import Partition\n\n"
                  "def brute_force_expected_ek(a, b, k):\n    return Partition(a).size\n\n"
                  "def brute_force_coefficients(a, b, ks):\n    return 0\n",
        # a.size is numpy's here; the route names no package class
        "montecarlo": "def mc_charpoly(a, b, n, seed):\n    return a.size\n",
    }
    graph, classes = _graph(sources)
    assert ("partitions", "Partition.size") in _reach(graph, classes, ROUTES["oracle"])
    assert _reach(graph, classes, ROUTES["monte carlo"]) == set(ROUTES["monte carlo"])
    assert _shared(sources) == {}


def test_scan_flags_an_oracle_that_reads_characters():
    sources = {
        "symgroup": "def character(lam, rho):\n    return 0\n",
        "weingarten": "from .symgroup import character\n\n"
                      "def weingarten(k, d):\n    return character(k, d)\n",
        "oracle": "from .symgroup import character\n\n"
                  "def weingarten_gram_inverse(k, d):\n    return character(k, d)\n",
    }
    assert _shared(sources, WG_ROUTES) == {
        ("symgroup", "character"): {"character expansion", "orthogonality"},
    }
