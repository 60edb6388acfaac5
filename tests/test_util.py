import importlib
from fractions import Fraction

import pytest

from finfree.util import (
    DEGREE_CAP,
    GRAM_ORDER_CAP,
    MC_WORK_CAP,
    MOMENT_CAP,
    PARTITION_CAP,
    SET_PARTITION_CAP,
    CapExceededError,
    check_cap,
    factorials,
    to_fraction,
)


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


# Every guard that takes no cap argument, called one past its limit:
# (module, call, limit, names of the module the call must not reach).
FIXED_CAPS = {
    "integrate_moment": (
        "weingarten",
        lambda m: m.integrate_moment((1,) * 7, (1,) * 7, (1,) * 7, (1,) * 7, 7),
        MOMENT_CAP, ("weingarten", "itertools")),
    "e_to_m": ("symfunc", lambda m: m.e_to_m((11,)),
               PARTITION_CAP, ("kostka_rows",)),
    "m_to_e": ("symfunc", lambda m: m.m_to_e((11,)),
               PARTITION_CAP, ("partitions_of", "inverse_kostka")),
    "weingarten_gram_inverse": (
        "oracle", lambda m: m.weingarten_gram_inverse(GRAM_ORDER_CAP + 1, GRAM_ORDER_CAP + 1),
        GRAM_ORDER_CAP, ("partitions_of", "itertools")),
    "mc_entry_moments": ("montecarlo", lambda m: m.mc_entry_moments(1, MC_WORK_CAP + 1, 1),
                         MC_WORK_CAP, ("haar_batch",)),
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
                  DEGREE_CAP, ("factorials", "clear_denominators")),
    "from_spectrum": (
        "polynomials", lambda m: m.MonicPoly.from_spectrum((1,) * (DEGREE_CAP + 1)),
        DEGREE_CAP, ("scaled_elementary", "factorials")),
    "split_chains": ("partitions", lambda m: m.split_chains(3, 1, 11),
                     PARTITION_CAP, ("itertools",)),
    "split_chain_type_count": ("partitions", lambda m: m.split_chain_type_count(11, 5, 2),
                               PARTITION_CAP, ("chain_multiplicity",)),
}


@pytest.mark.parametrize("name", sorted(FIXED_CAPS))
def test_fixed_cap_refuses_one_past_its_limit(monkeypatch, name):
    module_name, call, limit, forbidden = FIXED_CAPS[name]
    module = importlib.import_module(f"finfree.{module_name}")
    for attr in forbidden:
        monkeypatch.setattr(module, attr, _Forbidden(attr))
    with pytest.raises(CapExceededError, match=f" {limit + 1} exceeds cap {limit}$"):
        call(module)
