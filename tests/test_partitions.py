import itertools
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

from finfree.partitions import (
    Partition,
    chain_multiplicity,
    count_set_partitions_of_type,
    distinct_permutations,
    dominance_leq,
    hooks_and_contents,
    kostka,
    kostka_rows,
    partitions_of,
    semistandard_tableaux,
    set_partition_type,
    set_partitions,
    set_partitions_of_type,
    split_chain_count_formula,
    split_chain_type_count,
    split_chains,
    two_column,
    two_row,
)


@st.composite
def partition_st(draw, max_size=8):
    k = draw(st.integers(min_value=0, max_value=max_size))
    opts = partitions_of(k)
    return draw(st.sampled_from(opts))


# ---------------------------------------------------------------- Partition

def test_partition_validation():
    assert Partition((3, 1, 1)) == (3, 1, 1)
    assert Partition(()) == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_basics():
    lam = Partition((4, 2, 1))
    assert lam.size == 7
    assert lam.length == 3
    assert lam.transpose() == (3, 2, 1, 1)
    assert lam.multiplicities() == {4: 1, 2: 1, 1: 1}
    assert Partition((2, 2)).multiplicities() == {2: 2}
    assert lam.pad(5) == (4, 2, 1, 0, 0)
    with pytest.raises(ValueError):
        lam.pad(2)


@given(partition_st())
def test_transpose_involution(lam):
    assert lam.transpose().transpose() == lam
    assert lam.transpose().size == lam.size


def test_partitions_of_counts():
    # p(0..10) = 1 1 2 3 5 7 11 15 22 30 42
    wants = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions_of(k)) for k in range(11)] == wants


def test_partitions_of_order():
    # decreasing lexicographic
    assert partitions_of(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert partitions_of(0) == [()]


def test_two_column_two_row():
    assert two_column(5, 2) == (2, 2, 1)
    assert two_column(4, 0) == (1, 1, 1, 1)
    assert two_column(4, 2) == (2, 2)
    assert two_row(5, 2) == (3, 2)
    assert two_row(5, 0) == (5,)
    assert two_row(0, 0) == ()
    assert two_column(5, 2).transpose() == two_row(5, 2)
    with pytest.raises(ValueError):
        two_column(5, 3)
    with pytest.raises(ValueError):
        two_row(5, 3)


# ---------------------------------------------------------------- dominance

def test_dominance_small():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    assert dominance_leq((2, 1), (2, 1))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1, 1, 1))


@given(partition_st(), partition_st())
def test_dominance_antisymmetric_and_transpose(lam, mu):
    if lam.size != mu.size:
        return
    if dominance_leq(lam, mu) and dominance_leq(mu, lam):
        assert lam == mu
    # transposition reverses the order
    assert dominance_leq(lam, mu) == dominance_leq(mu.transpose(), lam.transpose())


# ------------------------------------------------------------------- kostka

def test_kostka_known_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 1), (2, 1, 1)) == 2
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2
    assert kostka((4,), (2, 2)) == 1
    assert kostka((), ()) == 1
    with pytest.raises(ValueError):
        kostka((2, 1), (2, 2))


@pytest.mark.parametrize("k", range(7))
def test_kostka_triangular(k):
    for lam in partitions_of(k):
        assert kostka(lam, lam) == 1
        for mu in partitions_of(k):
            if not dominance_leq(mu, lam):
                assert kostka(lam, mu) == 0


@pytest.mark.parametrize("k", range(1, 7))
def test_kostka_column_weight_independence(k):
    # K(lam, mu) only sees mu as a multiset of column sums, so any
    # rearrangement used as a raw weight gives the same tableau count.
    for lam in partitions_of(k):
        for mu in partitions_of(k):
            want = kostka(lam, mu)
            for weight in set(itertools.permutations(mu)):
                got = sum(1 for _ in semistandard_tableaux(lam, weight=weight))
                assert got == want


@pytest.mark.parametrize("k", [7, 8, 9])
def test_strip_rule_tables_match_tableau_counts(k):
    # the full table, past the k <= 6 of the verify row: every Kostka number
    # by the strip rule against a count of the tableaux, and each zero count
    # off the table's dominance rows
    parts = partitions_of(k)
    counted = {
        lam: {mu: n for mu in parts if (n := sum(1 for _ in semistandard_tableaux(lam, mu)))}
        for lam in parts
    }
    assert kostka_rows(k) == counted


@pytest.mark.parametrize("k", range(1, 7))
def test_permutation_module_dimension(k):
    # sum_lam K(lam, mu) * dim(lam) = k! / prod(mu_i!), with dim from hooks
    for mu in partitions_of(k):
        total = 0
        for lam in partitions_of(k):
            hooks, _ = hooks_and_contents(lam)
            dim = factorial(k) // prod(hooks)
            total += kostka(lam, mu) * dim
        assert total == factorial(k) // prod(factorial(m) for m in mu)


def tableaux_with_entries_at_most(lam, n):
    """Every SSYT of shape lam with entries in 1..n, one weight at a time:
    the weights are the n-tuples (zeros allowed) that sum to |lam|."""
    size = sum(lam)
    for weight in itertools.product(range(size + 1), repeat=n):
        if sum(weight) == size:
            yield from semistandard_tableaux(lam, weight=weight)


def test_semistandard_tableaux_explicit():
    tabs = sorted(semistandard_tableaux((2, 1), weight=(1, 1, 1)))
    assert tabs == [((1, 2), (3,)), ((1, 3), (2,))]
    tabs = sorted(tableaux_with_entries_at_most((2,), 2))
    assert tabs == [((1, 1),), ((1, 2),), ((2, 2),)]
    # columns strict: shape (1,1) with both entries equal is impossible
    assert list(semistandard_tableaux((1, 1), weight=(2,))) == []


@given(partition_st(max_size=6), st.integers(min_value=1, max_value=4))
def test_semistandard_tableaux_are_valid(lam, n):
    if lam.size == 0:
        return
    for tab in tableaux_with_entries_at_most(lam, n):
        assert tuple(len(row) for row in tab) == tuple(lam)
        for row in tab:
            assert all(a <= b for a, b in zip(row, row[1:]))
            assert all(1 <= v <= n for v in row)
        for r in range(1, len(tab)):
            for c in range(len(tab[r])):
                assert tab[r - 1][c] < tab[r][c]


def test_hooks_and_contents():
    hooks, contents = hooks_and_contents((3, 1))
    assert hooks == (4, 2, 1, 1)
    assert contents == (0, 1, 2, -1)
    assert hooks_and_contents(()) == ((), ())


# ----------------------------------------------------------- set partitions

def _bell(n):
    # Bell triangle: b[0] = 1; next row starts with last of previous
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@pytest.mark.parametrize("k", range(8))
def test_set_partition_counts(k):
    parts = list(set_partitions(k))
    assert len(parts) == _bell(k)
    seen = set()
    for blocks in parts:
        flat = sorted(v for b in blocks for v in b)
        assert flat == list(range(1, k + 1))
        assert blocks not in seen
        seen.add(blocks)


def test_set_partition_type():
    blocks = ((1, 3), (2,), (4, 5, 6))
    assert set_partition_type(blocks) == (3, 2, 1)


@pytest.mark.parametrize("k", range(1, 8))
def test_set_partitions_of_type_count(k):
    for mu in partitions_of(k):
        got = list(set_partitions_of_type(mu))
        assert len(got) == count_set_partitions_of_type(mu)
        for blocks in got:
            assert set_partition_type(blocks) == mu
    assert sum(count_set_partitions_of_type(mu) for mu in partitions_of(k)) == _bell(k)


def test_count_set_partitions_of_type_formula():
    # k! / (prod part! * prod mult!)
    assert count_set_partitions_of_type((2, 2)) == 3
    assert count_set_partitions_of_type((2, 1, 1)) == 6
    assert count_set_partitions_of_type((1, 1, 1)) == 1
    assert count_set_partitions_of_type((3,)) == 1


# -------------------------------------------------------------- permutations

def test_distinct_permutations():
    # in lexicographic order, and without recursion as deep as the entries
    assert distinct_permutations((2, 1, 1)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert distinct_permutations(()) == [()]
    assert distinct_permutations((1,) * 5000) == [(1,) * 5000]
    assert len(distinct_permutations((2,) + (1,) * 999)) == 1000


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=6))
def test_distinct_permutation_count_matches(values):
    got = list(distinct_permutations(tuple(values)))
    assert len(got) == len(set(got))
    assert set(got) == set(itertools.permutations(values))


# -------------------------------------------------------------- split chains

@pytest.mark.parametrize("k,l,m", [(2, 1, 2), (3, 1, 3), (3, 2, 4), (4, 2, 4), (5, 3, 5)])
def test_split_chains_enumeration(k, l, m):
    chains = list(split_chains(k, l, m))
    for i_map in chains:
        assert len(i_map) == k
        assert all(1 <= v <= m for v in i_map)
        head, tail = i_map[: k - l], i_map[k - l :]
        assert list(head) == sorted(set(head))
        assert list(tail) == sorted(set(tail))
    assert len(chains) == len(set(chains)) == comb(m, k - l) * comb(m, l)


def test_chain_multiplicity():
    assert chain_multiplicity((1, 3, 1, 2), 4) == (2, 1, 1, 0)


@pytest.mark.parametrize("k", range(1, 7))
def test_split_chain_type_count_matches_formula(k):
    for l in range(k + 1):
        for q in range(0, k // 2 + 1):
            want = split_chain_count_formula(k, l, q)
            assert split_chain_type_count(k, l, q) == want


def test_split_chain_type_count_rejects_bad_q():
    with pytest.raises(ValueError):
        split_chain_type_count(4, 2, 3)
