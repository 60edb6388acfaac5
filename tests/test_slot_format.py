"""Only util knows the big-int slot format of Kronecker substitution.

util packs int lists into slots, multiplies them and reads them back
(packed_product, linear_product); every other module passes and receives
lists of ints. The scan uses only the stdlib ast. No module other than
util.py may name a slot helper or an nbytes variable, with or without
leading underscores: as a Name or an attribute, a definition, an argument,
a keyword or an import. Nor may it pack by other means: it names no
to_bytes or from_bytes and shifts no int (<< or >>).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finfree"
OWNER = "util.py"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != OWNER)
SLOT_NAMES = {"slot_bytes", "slot_bias", "signed_slots", "pack", "nbytes",
              "to_bytes", "from_bytes"}
SHIFTS = {ast.LShift: "<<", ast.RShift: ">>"}


def _names(node):
    """The identifiers a node names, or the shift operator it applies."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.arg, ast.keyword)):
        return [node.arg] if node.arg else []
    if isinstance(node, ast.alias):
        return [node.name.split(".")[-1], node.asname or ""]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SHIFTS:
        return [SHIFTS[type(node.op)]]
    return []


def _slot_uses(tree) -> list:
    """(name, line) of every slot name and shift in the tree."""
    return sorted(
        (name, node.lineno)
        for node in ast.walk(tree)
        for name in _names(node)
        if name.lstrip("_") in SLOT_NAMES or name in SHIFTS.values()
    )


@pytest.mark.parametrize("module", MODULES)
def test_only_util_knows_the_slot_format(module):
    uses = _slot_uses(ast.parse((SRC / module).read_text(), filename=module))
    assert not uses, f"{module} names the slot format: {uses}"


def test_scan_flags_slot_names():
    tree = ast.parse(
        "from .util import _signed_slots as read, packed_product\n"
        "from . import util\n"
        "def _pack(coeffs, nbytes):\n"
        "    return util.slot_bias(nbytes, len(coeffs))\n"
        "def square(f):\n"
        "    return read(packed_product(f, f, 3), nbytes=2, n=3)\n"
        "def pack_width(packed):\n"
        "    return packed\n"
        "def square_by_hand(f, w):\n"
        "    packed = sum(c << (w * i) for i, c in enumerate(f))\n"
        "    packed >>= w\n"
        "    return int.from_bytes(packed.to_bytes(9, 'little'), 'little')\n"
    )
    assert _slot_uses(tree) == [
        ("<<", 10), (">>", 11), ("_pack", 3), ("_signed_slots", 1), ("from_bytes", 12),
        ("nbytes", 3), ("nbytes", 4), ("nbytes", 6), ("slot_bias", 4), ("to_bytes", 12),
    ]
