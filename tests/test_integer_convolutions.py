"""The exact commutator route runs on ints from the spectra to the result.

MonicPoly stores one denominator and integer numerators, so the stages of
commutator_poly never need a rational: a Fraction built there, or a call
to to_fraction, would put the per-stage rationals back. The scan uses only
the stdlib ast and looks for the two names as a Name or an attribute inside
each listed function's own body; the reduced a_k that MonicPoly.a forms for
display, and the spectrum validation in as_spectrum, lie outside them.
The parts of the whole closed form are held to the same rule.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"
FORBIDDEN = {"Fraction", "to_fraction"}
INTEGER_ONLY = {
    "polynomials.py": ("boxplus", "boxminus", "boxtimes", "z_poly", "commutator_poly",
                       "MonicPoly.from_spectrum"),
    # the int pairs that commutator_poly_closed divides once per coefficient
    "symfunc.py": ("scaled_elementary", "cross_terms", "cross_pair", "left_weight",
                   "right_weight"),
    "util.py": ("packed_product", "linear_product"),
}


def _definitions(tree) -> dict:
    """Top-level functions by name, and methods as "Class.method"."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def _rational_uses(func) -> list:
    """Lines of func that name Fraction or to_fraction."""
    return sorted(
        node.lineno
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id in FORBIDDEN
        or isinstance(node, ast.Attribute) and node.attr in FORBIDDEN
    )


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in INTEGER_ONLY.items() for n in names]
)
def test_stage_builds_no_rational(module, name):
    definitions = _definitions(ast.parse((SRC / module).read_text(), filename=module))
    assert name in definitions, f"{module} no longer defines {name}"
    uses = _rational_uses(definitions[name])
    assert not uses, f"{module}:{name} names Fraction or to_fraction on lines {uses}"


def test_scan_flags_a_rational_stage():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "import fractions\n"
        "def boxtimes(p, q):\n"
        "    return [Fraction(u, v) for u, v in zip(p, q)]\n"
        "class MonicPoly:\n"
        "    def from_spectrum(cls, x):\n"
        "        return [fractions.Fraction(v) for v in x] + [util.to_fraction(1)]\n"
        "def boxplus(p, q):\n"
        "    return 'Fraction'\n"
    )
    definitions = _definitions(tree)
    assert _rational_uses(definitions["boxtimes"]) == [4]
    assert _rational_uses(definitions["MonicPoly.from_spectrum"]) == [7, 7]
    assert _rational_uses(definitions["boxplus"]) == []
