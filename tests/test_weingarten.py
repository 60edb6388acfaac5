from fractions import Fraction

import pytest

from finfree.cli import _corrupted_weingarten
from finfree.oracle import gram_identity_residual, weingarten_gram_inverse
from finfree.partitions import Partition
from finfree.weingarten import ClassFunction, integrate_moment, weingarten


# ---------------------------------------------------------------- Wg tables

@pytest.mark.parametrize("d", range(1, 7))
def test_wg_order_one(d):
    assert weingarten(1, d)((1,)) == Fraction(1, d)


@pytest.mark.parametrize("d", range(2, 7))
def test_wg_order_two(d):
    wg = weingarten(2, d)
    assert wg((1, 1)) == Fraction(1, d * d - 1)
    assert wg((2,)) == Fraction(-1, d * (d * d - 1))


@pytest.mark.parametrize("d", range(3, 7))
def test_wg_order_three(d):
    wg = weingarten(3, d)
    denom = d * (d * d - 1) * (d * d - 4)
    assert wg((1, 1, 1)) == Fraction(d * d - 2, denom)
    assert wg((2, 1)) == Fraction(-1, denom // d)
    assert wg((3,)) == Fraction(2, denom)


def test_wg_rejects_bad_arguments():
    with pytest.raises(ValueError):
        weingarten(0, 3)
    with pytest.raises(ValueError):
        weingarten(2, 0)


# ------------------------------------------------------------- Wg oracles

@pytest.mark.parametrize("k", range(1, 11))
def test_gram_inverse_matches_character_expansion(k):
    # every k <= d <= 8, and every k <= 10 at d = 10 and 12
    for d in [*range(k, 9), 10, 12]:
        assert weingarten_gram_inverse(k, d) == weingarten(k, d), d


@pytest.mark.parametrize("k,d", [(2, 1), (3, 2), (4, 3)])
def test_gram_system_singular_below_dimension(k, d):
    with pytest.raises(ValueError):
        weingarten_gram_inverse(k, d)


@pytest.mark.parametrize("k", range(1, 5))
def test_gram_identity_residual_vanishes(k):
    for d in range(k, 6):
        assert gram_identity_residual(k, d) == 0


def test_gram_identity_residual_detects_corruption():
    assert gram_identity_residual(2, 3, wg_fn=_corrupted_weingarten) > 0


# ------------------------------------------------------------ entry moments

@pytest.mark.parametrize("d", range(1, 7))
def test_moment_abs_u11_squared(d):
    assert integrate_moment((1,), (1,), (1,), (1,), d) == Fraction(1, d)


@pytest.mark.parametrize("d", range(1, 7))
def test_moment_abs_u11_fourth(d):
    got = integrate_moment((1, 1), (1, 1), (1, 1), (1, 1), d)
    assert got == Fraction(2, d * (d + 1))


@pytest.mark.parametrize("d", range(2, 7))
def test_moment_two_diagonal_entries(d):
    got = integrate_moment((1, 2), (1, 2), (1, 2), (1, 2), d)
    assert got == Fraction(1, d * d - 1)


@pytest.mark.parametrize("d", range(2, 7))
def test_moment_mixed_columns(d):
    got = integrate_moment((1, 1), (1, 2), (1, 1), (1, 2), d)
    assert got == Fraction(1, d * (d + 1))


@pytest.mark.parametrize("d", range(2, 7))
def test_moment_off_diagonal_swap(d):
    # E[u11 u22 conj(u12) conj(u21)] pairs rows with the identity and
    # columns with the transposition, so only Wg((2)) survives
    got = integrate_moment((1, 2), (1, 2), (1, 2), (2, 1), d)
    assert got == Fraction(-1, d * (d * d - 1))


@pytest.mark.parametrize("d", range(1, 6))
def test_moment_row_normalization(d):
    # sum_j E[ |u1j|^2 |u11|^2 ] = E|u11|^2 since rows are unit vectors
    total = sum(
        integrate_moment((1, 1), (1, j), (1, 1), (1, j), d)
        for j in range(1, d + 1)
    )
    assert total == Fraction(1, d)


def test_moment_unbalanced_orders_vanish():
    assert integrate_moment((1,), (1,), (), (), 3) == 0
    assert integrate_moment((1, 1), (1, 2), (1,), (1,), 3) == 0


def test_moment_no_matching_permutation():
    # rows cannot be matched: i uses row 1 twice, i2 uses rows 1 and 2
    assert integrate_moment((1, 1), (1, 2), (1, 2), (1, 2), 3) == 0


def test_moment_empty_product_is_one():
    assert integrate_moment((), (), (), (), 4) == 1


def test_moment_index_validation():
    with pytest.raises(ValueError):
        integrate_moment((1,), (4,), (1,), (1,), 3)
    with pytest.raises(ValueError):
        integrate_moment((0,), (1,), (1,), (1,), 3)
    with pytest.raises(ValueError):
        integrate_moment((1, 2), (1,), (1,), (1,), 3)


# ------------------------------------------------------------ ClassFunction

def test_classfunction_requires_full_coverage():
    with pytest.raises(ValueError):
        ClassFunction(2, {Partition((2,)): Fraction(1)})
    with pytest.raises(ValueError):
        ClassFunction(2, {Partition((2,)): 1, Partition((1, 1)): 1, Partition((3,)): 1})


def test_classfunction_json_roundtrip():
    wg = weingarten(3, 4)
    payload = wg.to_json_dict(d=4)
    assert payload["d"] == 4 and payload["k"] == 3
    rebuilt = {Partition(e["cycle_type"]): Fraction(e["rational"]) for e in payload["values"]}
    assert ClassFunction(payload["k"], rebuilt) == wg
    # cycle types come out in decreasing lex order
    types = [tuple(entry["cycle_type"]) for entry in payload["values"]]
    assert types == [(3,), (2, 1), (1, 1, 1)]


def test_classfunction_call():
    wg = weingarten(2, 5)
    assert wg([2]) == wg((2,))
    with pytest.raises(KeyError):
        wg((3,))
