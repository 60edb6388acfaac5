from fractions import Fraction

import pytest

from finfree.util import (
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
