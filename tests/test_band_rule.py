"""The Monte Carlo band rule lives in montecarlo.py alone.

Every other finfree module checks a report through McReport.band_misses,
so a change to the band (its width or its floor) is made in one place. The
scan uses only the stdlib ast and looks for the name within_band as a Name,
an attribute or an imported alias; the package re-export in __init__.py is
a string and is not a use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "montecarlo.py")
RULE = "within_band"


def _uses(tree) -> list:
    """Lines of the module that name the band rule."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Name) and node.id == RULE
            or isinstance(node, ast.Attribute) and node.attr == RULE
        ):
            found.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(RULE in (alias.name, alias.asname) for alias in node.names):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_band_rule_only_in_montecarlo(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    uses = _uses(tree)
    assert not uses, f"{module} names {RULE} on lines {uses}; use McReport.band_misses"


def test_scan_finds_every_kind_of_use():
    tree = ast.parse(
        "from .montecarlo import within_band\n"
        "from . import montecarlo\n"
        "ok = montecarlo.within_band(1, 1, 0)\n"
        "names = ('within_band',)\n"
        "def f(report):\n    return within_band\n"
    )
    assert _uses(tree) == [1, 3, 6]
