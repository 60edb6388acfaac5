import itertools
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from finfree.partitions import Partition, partitions_of, semistandard_tableaux
from finfree.symfunc import (
    as_spectrum,
    as_spectrum_pair,
    cross_sum,
    e_to_m,
    elementary_symmetric,
    eval_monomial,
    eval_quasisym,
    left_factor,
    m_to_e,
    right_factor,
    schur_principal,
)
from finfree.polynomials import commutator_coefficient
from finfree.util import CapExceededError

rational_st = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def spectrum_st(min_size=1, max_size=5):
    return st.lists(rational_st, min_size=min_size, max_size=max_size).map(tuple)


# ------------------------------------------------------------- evaluations

def test_as_spectrum():
    assert as_spectrum([1, "1/2"]) == (Fraction(1), Fraction(1, 2))
    assert as_spectrum(range(3)) == (0, 1, 2)
    with pytest.raises(ValueError):
        as_spectrum([])
    with pytest.raises(TypeError):
        as_spectrum([0.5])


@pytest.mark.parametrize("values", ["12", b"12", {"1": 2}, None, 3], ids=repr)
def test_as_spectrum_refuses_what_is_not_a_list(values):
    # a string or a mapping would be read entry by entry as characters or keys
    with pytest.raises(TypeError, match="^need a list of rationals$"):
        as_spectrum(values)


def test_as_spectrum_pair():
    assert as_spectrum_pair([1], ["1/2"]) == ((1,), (Fraction(1, 2),))
    with pytest.raises(ValueError, match="^spectrum lengths differ: 2 != 3$"):
        as_spectrum_pair([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="^spectrum must be nonempty$"):
        as_spectrum_pair([1], [])


def test_elementary_symmetric_frozen():
    assert elementary_symmetric((1, 2, 3)) == (1, 6, 11, 6)
    assert elementary_symmetric((Fraction(1, 2),)) == (1, Fraction(1, 2))
    assert elementary_symmetric(()) == (1,)  # no values


@given(spectrum_st())
def test_elementary_symmetric_vieta(x):
    # prod (t - x_i) expanded naively matches the e-vector
    e = elementary_symmetric(x)
    d = len(x)
    for k in range(d + 1):
        want = sum(
            (
                Fraction(1) * _prod(x[i] for i in sub)
                for sub in itertools.combinations(range(d), k)
            ),
            Fraction(0),
        )
        assert e[k] == want


def _prod(vals):
    out = Fraction(1)
    for v in vals:
        out *= v
    return out


def test_eval_monomial():
    x = (Fraction(1), Fraction(2), Fraction(3))
    # m_(2,1) = sum_{i != j} x_i^2 x_j
    want = sum(
        Fraction(a) ** 2 * b for a, b in itertools.permutations((1, 2, 3), 2)
    )
    assert eval_monomial((2, 1), x) == want
    assert eval_monomial((1, 1, 1), x) == 6
    assert eval_monomial((2, 2, 1, 1), x) == 0  # too many parts
    assert eval_monomial((), x) == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_monomials_sum_to_power_sum_of_sums(k):
    # sum over all lam of m_lam(x) = h_k(x), checked via a naive h_k
    x = (Fraction(1), Fraction(-2), Fraction(1, 2))
    naive_h = sum(
        (
            _prod(x[i] for i in sub)
            for sub in itertools.combinations_with_replacement(range(len(x)), k)
        ),
        Fraction(0),
    )
    total = sum(
        (eval_monomial(lam, x) for lam in partitions_of(k)), Fraction(0)
    )
    assert total == naive_h


def test_eval_monomial_equals_e_on_columns():
    x = (Fraction(2), Fraction(-1), Fraction(4))
    for k in range(1, 4):
        assert eval_monomial((1,) * k, x) == elementary_symmetric(x)[k]


def test_eval_monomial_at_the_degree_cap():
    # the sum runs over row subsets of size len(lam), not over orderings of
    # an exponent vector padded to the spectrum's length
    x = range(1000)
    assert eval_monomial((1,), x) == 499500
    assert eval_monomial((2,), x) == sum(v * v for v in x)
    assert eval_monomial((1,) * 1000, x) == 0
    assert eval_monomial((1,) * 1000, range(1, 1001)) == factorial(1000)


@pytest.mark.parametrize("function", [eval_monomial, eval_quasisym])
def test_a_power_table_past_its_cap_is_refused_before_it_is_built(function):
    # (3000,) on range(1000) would build 3001000 powers, about 4e10 bits
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=r"^powers 0\.\.3000 of 1000 values: bits "
                                                   r"\d+ exceeds cap 16777216$"):
            function((3000,), range(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_eval_quasisym():
    x = (Fraction(1), Fraction(2), Fraction(3))
    # M_(1,2) = sum_{i<j} x_i x_j^2
    assert eval_quasisym((1, 2), x) == 1 * 4 + 1 * 9 + 2 * 9
    # zero exponents consume slots
    assert eval_quasisym((1, 0), x) == 1 + 1 + 2
    assert eval_quasisym((0, 0, 0), x) == 1
    with pytest.raises(ValueError):
        eval_quasisym((1, 1, 1, 1), x)
    with pytest.raises(ValueError):
        eval_quasisym((1, -1), x)


def _monomial_reference(lam, x):
    """m_lam(x) over Fractions: every distinct exponent vector, term by term."""
    padded = tuple(lam) + (0,) * (len(x) - len(lam))
    return sum(
        (_prod(v**e for v, e in zip(x, expo)) for expo in set(itertools.permutations(padded))),
        Fraction(0),
    )


def _quasisym_reference(comp, x):
    """M_comp(x) over Fractions: every increasing chain, term by term."""
    return sum(
        (_prod(v**e for v, e in zip(chain, comp))
         for chain in itertools.combinations(x, len(comp))),
        Fraction(0),
    )


partition_st = st.lists(st.integers(1, 3), max_size=5).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@given(spectrum_st(), partition_st)
def test_eval_monomial_matches_fraction_sum(x, lam):
    # entries with denominators 1..4, zeros included; too many parts give 0
    want = _monomial_reference(lam, x) if lam.length <= len(x) else 0
    assert eval_monomial(lam, x) == want


@given(st.data())
def test_eval_quasisym_matches_fraction_sum(data):
    # zero exponents and the empty composition included
    x = data.draw(spectrum_st())
    comp = data.draw(st.lists(st.integers(0, 3), max_size=len(x)))
    assert eval_quasisym(comp, x) == _quasisym_reference(comp, x)


@given(spectrum_st(min_size=2, max_size=4))
def test_quasisym_orbit_sums_to_monomial(x):
    from finfree.partitions import distinct_permutations

    lam = Partition((2, 1))
    padded = lam.pad(len(x))
    total = sum(
        (eval_quasisym(comp, x) for comp in distinct_permutations(padded)),
        Fraction(0),
    )
    assert total == eval_monomial(lam, x)


# ------------------------------------------------------------- expansions

def test_e_to_m_frozen():
    got = e_to_m((2, 1))
    # e_2 e_1 = m_(2,1) + 3 m_(1,1,1)
    assert got == {Partition((2, 1)): 1, Partition((1, 1, 1)): 3}
    got = e_to_m((2,))
    assert got == {Partition((1, 1)): 1}


def test_m_to_e_frozen():
    got = m_to_e((2,))
    # m_2 = p_2 = e_1^2 - 2 e_2
    assert got == {Partition((1, 1)): 1, Partition((2,)): -2}


@pytest.mark.parametrize("k", range(1, 7))
def test_transition_roundtrip_by_evaluation(k):
    x = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
    e = elementary_symmetric(x) + (0,) * k  # e_j vanishes for j > len(x)
    for lam in partitions_of(k):
        e_lam = _prod(e[part] for part in lam)
        assert sum(c * eval_monomial(mu, x) for mu, c in e_to_m(lam).items()) == e_lam
        assert sum(
            c * _prod(e[part] for part in mu) for mu, c in m_to_e(lam).items()
        ) == eval_monomial(lam, x)


@pytest.mark.parametrize("k", range(1, 7))
def test_transition_matrices_invert(k):
    parts = partitions_of(k)
    for lam in parts:
        em = e_to_m(lam)
        assert all(type(c) is int and c for c in em.values())
        back = {}
        for mu, c in em.items():
            me = m_to_e(mu)
            assert all(type(c2) is int and c2 for c2 in me.values())
            for nu, c2 in me.items():
                back[nu] = back.get(nu, 0) + c * c2
        back = {nu: c for nu, c in back.items() if c}
        assert back == {lam: 1}


# ------------------------------------------------------------------ schur

@pytest.mark.parametrize(
    "lam,d",
    [((2, 1), 2), ((2, 1), 3), ((3, 1), 3), ((2, 2), 4), ((4,), 2), ((1, 1, 1), 2)],
)
def test_schur_principal_counts_tableaux(lam, d):
    # the tableaux with entries in 1..d, counted over every weight of d
    # entries (zeros allowed) that sums to |lam|
    size = sum(lam)
    weights = [w for w in itertools.product(range(size + 1), repeat=d) if sum(w) == size]
    want = sum(1 for w in weights for _ in semistandard_tableaux(lam, weight=w))
    assert schur_principal(lam, d) == want


def test_schur_principal_frozen():
    assert schur_principal((2, 1), 3) == 8
    assert schur_principal((1, 1), 4) == 6
    assert schur_principal((), 5) == 1


# -------------------------------------------------------------- cross sums

# entries up to 10^6 / 10^6 with mixed denominators, zeros and both signs
wide_st = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(10**6), 10**6).map(Fraction),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)


def _cross_sum_reference(x, k):
    """sum_i (-1)^i (d-i)!(d-k+i)! e_i e_{k-i} over Fractions, from the definition."""
    d = len(x)
    e = elementary_symmetric(x)
    return sum(
        (
            (-1) ** i * factorial(d - i) * factorial(d - k + i) * e[i] * e[k - i]
            for i in range(k + 1)
        ),
        Fraction(0),
    )


@given(st.lists(wide_st, min_size=1, max_size=12).map(tuple))
def test_cross_sum_matches_definition(x):
    d = len(x)
    for k in range(d + 1):
        got = cross_sum(x, k)
        assert got == _cross_sum_reference(x, k), k
        if k % 2:
            assert got == 0
    assert cross_sum(x, 0) == factorial(d) ** 2


def test_cross_sum_frozen_and_bounds():
    # at d = k = 2 the sum is 4 e_2 - e_1^2 = -(x_1 - x_2)^2
    x = (Fraction(1, 2), Fraction(-3))
    assert cross_sum(x, 2) == Fraction(-49, 4)
    for k in (-1, 3):
        with pytest.raises(ValueError):
            cross_sum(x, k)


@pytest.mark.parametrize("function", [cross_sum, left_factor, right_factor])
def test_an_empty_spectrum_is_refused(function):
    # as commutator_coefficient refuses it: d = 0 has no coefficient to give
    with pytest.raises(ValueError, match="^spectrum must be nonempty$"):
        function([], 0)
    with pytest.raises(ValueError, match="^spectrum must be nonempty$"):
        commutator_coefficient(0, [], [])
