import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

from finfree.partitions import Partition, kostka, partitions_of
from finfree.symgroup import (
    c_constant,
    c_constant_bruteforce,
    character,
    character_table,
    character_table_json,
    compose,
    cycle_type,
    dim_irrep,
    inverse_kostka,
    inverse_perm,
    perm_of_cycle_type,
    perm_sign,
    young_subgroup_elements,
)


def perm_st(k):
    return st.permutations(tuple(range(k)))


# ------------------------------------------------------------- permutations

def test_perm_helpers():
    p = (1, 2, 0)  # the 3-cycle 1 -> 2 -> 3 -> 1 on 0-based points
    q = (1, 0, 2)
    assert compose(p, q) == (2, 1, 0)
    assert compose(q, p) == (0, 2, 1)
    assert inverse_perm(p) == (2, 0, 1)
    assert compose(p, inverse_perm(p)) == tuple(range(3))


def test_cycle_type_and_representative():
    assert cycle_type((1, 0, 2, 3)) == (2, 1, 1)
    assert cycle_type(tuple(range(4))) == (1, 1, 1, 1)
    for k in range(7):
        for rho in partitions_of(k):
            assert cycle_type(perm_of_cycle_type(rho)) == rho


@given(perm_st(5))
def test_sign_via_transposition_count(p):
    p = tuple(p)
    inversions = sum(
        1 for i, j in itertools.combinations(range(5), 2) if p[i] > p[j]
    )
    assert perm_sign(p) == (-1) ** inversions


@given(perm_st(5), perm_st(5))
def test_sign_multiplicative(p, q):
    p, q = tuple(p), tuple(q)
    assert perm_sign(compose(p, q)) == perm_sign(p) * perm_sign(q)


@lru_cache(maxsize=None)
def class_sizes(k) -> Counter:
    """{rho: number of permutations of S_k with cycle type rho}, counted."""
    return Counter(cycle_type(p) for p in itertools.permutations(range(k)))


@pytest.mark.parametrize("k", range(1, 8))
def test_class_sizes_sum_to_group_order(k):
    assert sorted(class_sizes(k)) == sorted(partitions_of(k))
    assert sum(class_sizes(k).values()) == factorial(k)


def test_class_size_direct_count():
    # k!/z_rho, with z_rho = prod_i i^(m_i) m_i! for m_i parts equal to i
    for rho in partitions_of(5):
        z = prod(rho) * prod(factorial(m) for m in rho.multiplicities().values())
        assert class_sizes(5)[rho] == factorial(5) // z


# --------------------------------------------------------------- characters

S3_TABLE = {
    ((3,), (1, 1, 1)): 1, ((3,), (2, 1)): 1, ((3,), (3,)): 1,
    ((2, 1), (1, 1, 1)): 2, ((2, 1), (2, 1)): 0, ((2, 1), (3,)): -1,
    ((1, 1, 1), (1, 1, 1)): 1, ((1, 1, 1), (2, 1)): -1, ((1, 1, 1), (3,)): 1,
}

S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


def test_character_table_s3():
    for (lam, rho), want in S3_TABLE.items():
        assert character(lam, rho) == want


def test_character_table_s4():
    for lam, row in S4_TABLE.items():
        for rho, want in row.items():
            assert character(lam, rho) == want


def test_character_table_shapes():
    table = character_table(4)
    assert set(table) == {(lam, rho) for lam in S4_TABLE for rho in S4_TABLE[lam]}
    for lam, row in S4_TABLE.items():
        for rho, want in row.items():
            assert table[(Partition(lam), Partition(rho))] == want
    js = character_table_json(3)
    assert js["2,1|3"] == -1
    assert js["3|1,1,1"] == 1


def test_character_errors():
    with pytest.raises(ValueError):
        character((2, 1), (2,))


@pytest.mark.parametrize("k", range(1, 8))
def test_character_row_orthogonality(k):
    parts = partitions_of(k)
    for lam in parts:
        for mu in parts:
            total = sum(
                class_sizes(k)[rho] * character(lam, rho) * character(mu, rho)
                for rho in parts
            )
            assert total == (factorial(k) if lam == mu else 0)


@pytest.mark.parametrize("k", range(1, 8))
def test_character_transpose_is_sign_twist(k):
    for lam in partitions_of(k):
        for rho in partitions_of(k):
            sign = perm_sign(perm_of_cycle_type(rho))
            assert character(lam.transpose(), rho) == sign * character(lam, rho)


def _fixed_tabloids(mu, sigma):
    """Ordered set partitions of type mu whose parts sigma preserves setwise."""

    def rec(remaining, sizes):
        if not sizes:
            return 1
        total = 0
        for block in itertools.combinations(remaining, sizes[0]):
            chosen = set(block)
            if {sigma[v] for v in block} != chosen:
                continue
            total += rec([v for v in remaining if v not in chosen], sizes[1:])
        return total

    return rec(list(range(sum(mu))), list(mu))


@pytest.mark.parametrize("k", range(1, 6))
def test_young_rule_against_tabloid_count(k):
    # permutation-module character: xi^mu(sigma) = sum_lam K(lam, mu) chi^lam(sigma)
    for mu in partitions_of(k):
        for rho in partitions_of(k):
            sigma = perm_of_cycle_type(rho)
            want = _fixed_tabloids(mu, sigma)
            got = sum(
                kostka(lam, mu) * character(lam, rho)
                for lam in partitions_of(k)
            )
            assert got == want, (mu, rho)


@pytest.mark.parametrize("k", range(1, 8))
def test_dim_irrep(k):
    for lam in partitions_of(k):
        assert dim_irrep(lam) == character(lam, (1,) * k)
    assert sum(dim_irrep(lam) ** 2 for lam in partitions_of(k)) == factorial(k)


# ----------------------------------------------------------- inverse Kostka

@pytest.mark.parametrize("k", range(9))
def test_inverse_kostka_inverts(k):
    parts = partitions_of(k)
    for lam in parts:
        for nu in parts:
            total = sum(kostka(lam, mu) * inverse_kostka(mu, nu) for mu in parts)
            assert total == (1 if lam == nu else 0)


def test_inverse_kostka_values():
    assert inverse_kostka((2, 1), (2, 1)) == 1
    assert inverse_kostka((2, 1), (1, 1, 1)) == -2
    assert inverse_kostka((3,), (2, 1)) == -1
    assert inverse_kostka((3,), (1, 1, 1)) == 1


# ------------------------------------------------------------ Young subgroups

def test_young_subgroup_elements():
    blocks = ((1, 3), (2,), (4,))
    elems = list(young_subgroup_elements(blocks, 4))
    assert len(elems) == len(set(elems)) == 2
    for p in elems:
        # setwise stabilizer of each block (0-based points)
        assert {p[0], p[2]} == {0, 2}
        assert p[1] == 1 and p[3] == 3
    with pytest.raises(ValueError):
        list(young_subgroup_elements(((1, 2), (2, 3)), 3))


def test_young_subgroup_is_group():
    blocks = ((1, 2), (3, 4, 5))
    elems = set(young_subgroup_elements(blocks, 5))
    assert len(elems) == 12
    for p in elems:
        assert inverse_perm(p) in elems
        for q in elems:
            assert compose(p, q) in elems


# -------------------------------------------------------- subgroup constants

@pytest.mark.parametrize("k", range(1, 6))
def test_c_constant_bruteforce_all_types(k):
    for lam in partitions_of(k):
        for mu in partitions_of(k):
            want = c_constant(lam, mu)
            for rho in partitions_of(k):
                sigma = perm_of_cycle_type(rho)
                got = c_constant_bruteforce(lam, mu, sigma)
                if character(lam, rho) != 0:
                    assert got == want, (lam, mu, rho)
                else:
                    assert got == 0, (lam, mu, rho)


@pytest.mark.parametrize("k", range(1, 5))
def test_c_constant_bruteforce_is_a_class_function(k):
    # each sigma is enumerated on its own, so every member of a class is
    # checked against the representative that the verify suite uses
    for sigma in itertools.permutations(range(k)):
        rep = perm_of_cycle_type(cycle_type(sigma))
        for lam in partitions_of(k):
            for mu in partitions_of(k):
                assert c_constant_bruteforce(lam, mu, sigma) == c_constant_bruteforce(
                    lam, mu, rep
                ), (lam, mu, sigma)


@pytest.mark.parametrize("k", range(1, 6))
def test_c_constant_dominance_vanishing(k):
    from finfree.partitions import dominance_leq

    for lam in partitions_of(k):
        for mu in partitions_of(k):
            if not dominance_leq(mu, lam):
                assert c_constant(lam, mu) == 0


def test_c_constant_two_column_closed_form():
    # for lam = two columns (p of height 2), mu = two columns (q of height 2):
    # p!/(p-q)! * binom(k-p+1, q)
    from finfree.partitions import two_column

    for k in range(1, 7):
        for p in range(0, k // 2 + 1):
            for q in range(0, k // 2 + 1):
                got = c_constant(two_column(k, p), two_column(k, q))
                if q > p:
                    assert got == 0
                else:
                    want = Fraction(
                        factorial(p), factorial(p - q)
                    ) * comb(k - p + 1, q)
                    assert got == want, (k, p, q)
