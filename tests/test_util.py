import ast
import importlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from finfree import util
from finfree.util import (
    DEGREE_CAP,
    DIMENSION_CAP,
    IMMANANT_CAP,
    MC_WORK_CAP,
    MOMENT_CAP,
    PARTITION_CAP,
    POWER_TABLE_CAP,
    SET_PARTITION_CAP,
    SUBSET_SUM_CAP,
    CapExceededError,
    check_cap,
    factorials,
    to_fraction,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finfree"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_to_fraction():
    assert to_fraction(3) == Fraction(3)
    assert to_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert to_fraction("7/3") == Fraction(7, 3)
    assert to_fraction("-2") == Fraction(-2)
    with pytest.raises(TypeError):
        to_fraction(0.5)
    for flag in (True, False):
        with pytest.raises(TypeError):
            to_fraction(flag)
    with pytest.raises(ValueError):
        to_fraction("1/0")
    with pytest.raises(ValueError):
        to_fraction("x")


def test_to_fraction_bounds_exponent_strings():
    # Fraction forms 10^|e| without Python's int/str digit limit, so a
    # decimal string whose numerator or denominator would pass that limit
    # is refused before it is converted
    limit = sys.get_int_max_str_digits()
    for text in ("1e5000", "1e-5000", f"1e{limit}", f"1e-{limit}", "0e10000000"):
        with pytest.raises(ValueError, match=f"past Python's {limit}-digit limit"):
            to_fraction(text)
    assert to_fraction(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert to_fraction(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert to_fraction("1e3") == 1000
    assert to_fraction("2.5e-3") == Fraction(1, 400)
    assert to_fraction("7/3") == Fraction(7, 3)


def _general_to_fraction(text: str):
    """to_fraction(text) as it read every string before the ASCII p/q fast
    path: the digit-limit check of a decimal string, then Fraction(text)."""
    match, limit = util._DECIMAL.fullmatch(text), sys.get_int_max_str_digits()
    if match and limit:
        whole, frac, exp = (part.replace("_", "") for part in match.groups(""))
        shift = int(exp or 0) - len(frac)
        digits = max(len(whole + frac) + max(shift, 0), 1 + max(-shift, 0))
        if digits > limit:
            raise ValueError(f"refusing a decimal string with {digits} digits in its "
                             f"numerator or denominator, past Python's {limit}-digit limit")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _outcome(func, text):
    try:
        value = func(text)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), value


def test_to_fraction_fast_path_matches_general_path():
    limit = sys.get_int_max_str_digits()
    texts = ["7/3", "-2", "+5", "007/010", "-0/5", "1/0", "3/-4", "-7/4", "0",
             " 3/4", "3/ 4", "1_000/3", "\uff13/\uff14", "\u0663", "2.5e-3", "1.", "x",
             "1" * (limit + 1), "-" + "1" * limit, "1" * (limit + 1) + "/3",
             "1" * limit, "3/" + "1" * (limit + 1)]
    outcomes = {text: _outcome(to_fraction, text) for text in texts}
    for text, seen in outcomes.items():
        assert seen == _outcome(_general_to_fraction, text), text
    # the refusals include both kinds of message and the zero denominator
    assert outcomes["1/0"] == (ValueError, "zero denominator in '1/0'")
    assert outcomes["3/-4"][0] is ValueError
    assert "digit limit" in outcomes["1" * (limit + 1)][1]
    assert "limit" in outcomes["1" * (limit + 1) + "/3"][1]
    assert outcomes["\uff13/\uff14"] == (Fraction, Fraction(3, 4))
    # with no digit limit, any plain string takes the fast path
    long_text = "-" + "7" * (limit + 5) + "/" + "3" * (limit + 5)
    sys.set_int_max_str_digits(0)
    try:
        assert _outcome(to_fraction, long_text) == _outcome(_general_to_fraction, long_text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_check_cap():
    check_cap(5, 5, "thing")
    with pytest.raises(CapExceededError) as excinfo:
        check_cap(6, 5, "thing")
    assert "thing" in str(excinfo.value)
    assert isinstance(excinfo.value, ValueError)


def test_factorials():
    assert factorials(0) == (1,)
    assert factorials(5) == (1, 1, 2, 6, 24, 120)


class _Forbidden:
    """Stands in for an enumerating name that a refused call must not reach."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} reached before the cap check")

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} reached before the cap check")


_EYE10 = tuple(tuple(int(i == j) for j in range(10)) for i in range(10))


def _json_file(name, payload):
    # written to the working directory, which the test sets to its tmp_path
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return name


# Every guard, called one past its fixed limit: (module, call, limit, names
# the call must not reach, each in the module or as "other_module.name").
# A guard that takes a list of entries refuses it before it converts one;
# every spectrum is converted by symfunc.as_spectrum, so the rows of
# functions that take one forbid symfunc's to_fraction.
FIXED_CAPS = {
    "partitions_of": ("partitions", lambda m: m.partitions_of(11), PARTITION_CAP, ()),
    "kostka": ("partitions", lambda m: m.kostka((11,), (11,)),
               PARTITION_CAP, ("_kostka_cached",)),
    "character": ("symgroup", lambda m: m.character((11,), (11,)),
                  PARTITION_CAP, ("_character_rec",)),
    "inverse_kostka": ("symgroup", lambda m: m.inverse_kostka((11,), (11,)),
                       PARTITION_CAP, ("_inverse_kostka_matrix",)),
    "weingarten": ("weingarten", lambda m: m.weingarten(11, 11),
                   PARTITION_CAP, ("character",)),
    "as_matrix": ("immanants", lambda m: m.as_matrix([["1/2"] * 10] * 10),
                  IMMANANT_CAP, ("to_fraction",)),
    "immanant_direct": ("immanants", lambda m: m.immanant_direct((10,), _EYE10),
                        IMMANANT_CAP, ("_class_sums",)),
    "immanant_gj": ("immanants", lambda m: m.immanant_gj((10,), _EYE10),
                    IMMANANT_CAP, ("_principal_elementaries",)),
    "brute_force_expected_ek": (
        "oracle", lambda m: m.brute_force_expected_ek((1,) * 8, (1,) * 8, 2),
        DIMENSION_CAP, ("_derangement_classes",)),
    "brute_force_coefficients": (
        "oracle", lambda m: m.brute_force_coefficients((1,) * 8, (1,) * 8, range(9)),
        DIMENSION_CAP, ("clear_denominators", "_derangement_classes")),
    "integrate_moment": (
        "weingarten",
        lambda m: m.integrate_moment((1,) * 7, (1,) * 7, (1,) * 7, (1,) * 7, 7),
        MOMENT_CAP, ("weingarten", "itertools")),
    "e_to_m": ("symfunc", lambda m: m.e_to_m((11,)),
               PARTITION_CAP, ("kostka_rows",)),
    "m_to_e": ("symfunc", lambda m: m.m_to_e((11,)),
               PARTITION_CAP, ("partitions_of", "inverse_kostka")),
    "weingarten_gram_inverse": ("oracle", lambda m: m.weingarten_gram_inverse(11, 11),
                                PARTITION_CAP, ("partitions_of", "bareiss_det")),
    # one value of POWER_TABLE_CAP + 1 bits, to the first power
    "eval_monomial_powers": ("symfunc", lambda m: m.eval_monomial((1,), (2**POWER_TABLE_CAP,)),
                             POWER_TABLE_CAP, ("distinct_permutations", "itertools")),
    "check_mc_caps": ("util", lambda m: m.check_mc_caps(1, MC_WORK_CAP + 1), MC_WORK_CAP, ()),
    "check_subset_sum": ("util", lambda m: m.check_subset_sum(SUBSET_SUM_CAP + 1, 1, 1, "sum"),
                         SUBSET_SUM_CAP, ()),
    "mc_entry_moments": ("montecarlo", lambda m: m.mc_entry_moments(1, MC_WORK_CAP + 1, 1),
                         MC_WORK_CAP, ("_chunk_rng", "haar_batch")),
    "set_partitions": ("partitions", lambda m: m.set_partitions(9),
                       SET_PARTITION_CAP, ()),
    "set_partitions_of_type": ("partitions", lambda m: m.set_partitions_of_type((5, 4)),
                               SET_PARTITION_CAP, ("set_partition_type",)),
    "c_constant_bruteforce": (
        "symgroup", lambda m: m.c_constant_bruteforce((9,), (9,), tuple(range(9))),
        SET_PARTITION_CAP, ("_subgroup_cycle_types", "character")),
    "z_poly": ("polynomials", lambda m: m.z_poly(DEGREE_CAP + 1),
               DEGREE_CAP, ("factorials",)),
    "MonicPoly": ("polynomials", lambda m: m.MonicPoly((1,) + (0,) * (DEGREE_CAP + 1)),
                  DEGREE_CAP, ("to_fraction", "factorials", "clear_denominators")),
    "commutator_poly_closed": (
        "polynomials",
        lambda m: m.commutator_poly_closed((1,) * (DEGREE_CAP + 1), (1,) * (DEGREE_CAP + 1)),
        DEGREE_CAP, ("cross_terms", "factorials", "symfunc.to_fraction")),
    "commutator_coefficient": (
        "polynomials",
        lambda m: m.commutator_coefficient(2, (1,) * (DEGREE_CAP + 1), (1,) * (DEGREE_CAP + 1)),
        DEGREE_CAP, ("left_factor", "right_factor", "symfunc.to_fraction")),
    "from_spectrum": (
        "polynomials", lambda m: m.MonicPoly.from_spectrum((1,) * (DEGREE_CAP + 1)),
        DEGREE_CAP, ("scaled_elementary", "factorials", "symfunc.to_fraction")),
    "cross_sum": ("symfunc", lambda m: m.cross_sum((1,) * (DEGREE_CAP + 1), 2),
                  DEGREE_CAP, ("cross_terms", "factorials", "to_fraction")),
    "as_spectrum": ("symfunc", lambda m: m.as_spectrum(["1/2"] * (DEGREE_CAP + 1)),
                    DEGREE_CAP, ("to_fraction",)),
    "elementary_symmetric": ("symfunc", lambda m: m.elementary_symmetric((1,) * (DEGREE_CAP + 1)),
                             DEGREE_CAP, ("scaled_elementary", "to_fraction")),
    "imm_delta_minus": (
        "immanants", lambda m: m.imm_delta_minus((DEGREE_CAP + 1,), (1,) * (DEGREE_CAP + 1)),
        DEGREE_CAP, ("cross_sum", "symfunc.to_fraction")),
    "spectrum_file": (
        "cli",
        lambda m: m._load(_json_file("s.json", ["1/2"] * (DEGREE_CAP + 1)),
                          m.as_spectrum, "a spectrum"),
        DEGREE_CAP, ("symfunc.to_fraction",)),
    "split_chains": ("partitions", lambda m: m.split_chains(3, 1, 11),
                     PARTITION_CAP, ("itertools",)),
    "split_chain_type_count": ("partitions", lambda m: m.split_chain_type_count(11, 5, 2),
                               PARTITION_CAP, ("chain_multiplicity",)),
}


def _forbid(monkeypatch, module_name, forbidden):
    """finfree.module_name, with each forbidden name, in it or given as
    "other_module.name", replaced by a _Forbidden."""
    module = importlib.import_module(f"finfree.{module_name}")
    for name in forbidden:
        owner, _, attr = name.rpartition(".")
        target = importlib.import_module(f"finfree.{owner}") if owner else module
        monkeypatch.setattr(target, attr, _Forbidden(name))
    return module


@pytest.mark.parametrize("name", sorted(FIXED_CAPS))
def test_fixed_cap_refuses_one_past_its_limit(monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    module_name, call, limit, forbidden = FIXED_CAPS[name]
    module = _forbid(monkeypatch, module_name, forbidden)
    with pytest.raises(CapExceededError, match=f" {limit + 1} exceeds cap {limit}$"):
        call(module)


# The subset sums refused by check_subset_sum, each called at the fewest
# terms past SUBSET_SUM_CAP that its C(d, l) subsets times its terms per
# subset reach (the counts skip values, so none lands on SUBSET_SUM_CAP + 1):
# (module, call, terms it reports, names the call must not reach).
SUBSET_SUMS = {
    "eval_monomial": ("symfunc", lambda m: m.eval_monomial((1, 1, 1), range(148)),
                      529396, ("distinct_permutations", "_cleared_powers", "itertools")),
    "eval_monomial_orderings": (
        "symfunc", lambda m: m.eval_monomial((3, 2, 1), range(82)),
        531360, ("distinct_permutations", "_cleared_powers", "itertools")),
    "eval_quasisym": ("symfunc", lambda m: m.eval_quasisym((1, 0, 2), range(148)),
                      529396, ("_cleared_powers", "itertools")),
    "identity_leftdep": ("oracle", lambda m: m.identity_leftdep(range(592), 2),
                         524808, ("clear_denominators", "linear_product", "itertools")),
    "identity_rightdep": ("oracle", lambda m: m.identity_rightdep(range(24), 8),
                          735471, ("c_constant", "symfunc._cleared_powers", "symfunc.itertools")),
    # its q = 0 sum, C(20, 8) terms, is under the cap: refused before it is taken
    "identity_rightdep_second_monomial": (
        "oracle", lambda m: m.identity_rightdep(range(20), 8),
        542640, ("c_constant", "eval_monomial", "symfunc._cleared_powers", "symfunc.itertools")),
}


@pytest.mark.parametrize("name", sorted(SUBSET_SUMS))
def test_subset_sums_refuse_past_the_term_cap(monkeypatch, name):
    module_name, call, terms, forbidden = SUBSET_SUMS[name]
    assert terms > SUBSET_SUM_CAP
    module = _forbid(monkeypatch, module_name, forbidden)
    with pytest.raises(CapExceededError, match=f" terms {terms} exceeds cap {SUBSET_SUM_CAP}$"):
        call(module)


# Private helpers that call check_cap, and the row whose call reaches them.
HELPER_ROWS = {
    "_cleared_powers": "eval_monomial_powers",
    "_check_degree": "MonicPoly",
}


def _guards(sources: dict) -> dict:
    """{function: source of each limit it passes check_cap}, over the
    top-level functions and methods (as Class.method) of the sources."""
    found = {}
    for text in sources.values():
        tree = ast.parse(text)
        defs = [(node.name, node) for node in tree.body if isinstance(node, FUNCTIONS)]
        defs += [
            (f"{cls.name}.{node.name}", node)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, FUNCTIONS)
        ]
        for name, node in defs:
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "check_cap"
                ):
                    found.setdefault(name, set()).add(ast.unparse(call.args[1]))
    return found


def _package_guards() -> dict:
    return _guards({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))})


def test_every_guard_checks_a_fixed_limit_and_has_a_row():
    guards = _package_guards()
    constants = {name for name in vars(util) if name.endswith("_CAP")}
    unfixed = {(name, limit) for name, limits in guards.items() for limit in limits
               if limit not in constants}
    assert not unfixed, f"guards whose limit is not a util constant: {sorted(unfixed)}"
    missing = sorted(name for name in guards if HELPER_ROWS.get(name, name) not in FIXED_CAPS)
    assert not missing, f"guards with no FIXED_CAPS row: {missing}"
    for name, limits in guards.items():
        limit = FIXED_CAPS[HELPER_ROWS.get(name, name)][2]
        assert limit in {getattr(util, constant) for constant in limits}, name


def test_helper_rows_name_private_guards():
    guards = _package_guards()
    for helper, row in HELPER_ROWS.items():
        assert helper.startswith("_") and helper in guards and row in FIXED_CAPS, helper


def _caps_table_names(readme: str) -> set:
    """The `*_CAP` names in the table rows of the README's Caps section."""
    section = readme.split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    rows = (line for line in section.splitlines() if line.startswith("|"))
    return {name for row in rows for name in re.findall(r"`([A-Z_]+_CAP)`", row)}


def test_readme_caps_table_names_every_cap():
    constants = {name for name in vars(util) if name.endswith("_CAP")}
    assert _caps_table_names((ROOT / "README.md").read_text()) == constants


def test_caps_table_scan_reads_only_table_rows():
    readme = ("# finfree\n\n## Caps\n\nText naming `A_CAP`.\n\n| op | limit |\n| --- | --- |\n"
              "| `f` | 3 (`B_CAP`), 4 (`C_CAP`) |\n\n## Next\n\n| `g` | `D_CAP` |\n")
    assert _caps_table_names(readme) == {"B_CAP", "C_CAP"}


def test_guard_scan_finds_every_check():
    source = (
        "from .util import X_CAP, check_cap\n\n"
        "def fixed(k):\n    check_cap(k, X_CAP, 'k')\n\n"
        "def raised(k, cap=3):\n"
        "    def inner():\n        check_cap(k, cap, 'k')\n    return inner()\n\n"
        "def unguarded(k):\n    return k\n\n"
        "class C:\n    def m(self, n):\n        check_cap(n * n, X_CAP, 'n')\n"
    )
    assert _guards({"a": source}) == {"fixed": {"X_CAP"}, "raised": {"cap"}, "C.m": {"X_CAP"}}
