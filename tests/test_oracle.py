import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from finfree.cli import _corrupted_weingarten
from finfree.oracle import (
    _derangement_classes,
    alternating_binomial_pair,
    brute_force_coefficients,
    brute_force_expected_ek,
    gen_binom,
    identity_leftdep,
    identity_rightdep,
    rothe_hagen_pair,
    telescoping_pair,
)
from finfree.polynomials import MonicPoly, commutator_coefficient, commutator_poly
from finfree.symfunc import elementary_symmetric
from finfree.symgroup import compose, cycle_type, perm_sign
from finfree.weingarten import integrate_moment

rational_st = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def spectrum_st(d):
    return st.lists(rational_st, min_size=d, max_size=d).map(tuple)


def _expected_ek_literal(spec_a, spec_b, k):
    """E[e_k] of A U B U* - U B U* A, term by term through entry moments.

    Entirely separate route from the package oracle: e_k as a sum of
    principal minors, minors as signed permutation sums, each entry of
    U B U* expanded over its internal summation index, and every monomial
    in entries of U handed to integrate_moment. Nothing is folded.
    """
    d = len(spec_a)
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for subset in itertools.combinations(range(d), k):
        for images in itertools.permutations(range(k)):
            sign = perm_sign(images)
            coeff = Fraction(1)
            for t in range(k):
                coeff *= spec_a[subset[t]] - spec_a[subset[images[t]]]
            if not coeff:
                continue
            rows = tuple(subset[t] + 1 for t in range(k))
            rows2 = tuple(subset[images[t]] + 1 for t in range(k))
            for choice in itertools.product(range(d), repeat=k):
                b_prod = Fraction(1)
                for l in choice:
                    b_prod *= spec_b[l]
                if not b_prod:
                    continue
                cols = tuple(l + 1 for l in choice)
                moment = integrate_moment(rows, cols, rows2, cols, d)
                total += sign * coeff * b_prod * moment
    return total


# ------------------------------------------------------------- brute force

def test_flagship_by_every_route():
    sa = sb = (Fraction(1), Fraction(-1))
    want = Fraction(8, 3)
    assert commutator_coefficient(2, sa, sb) == want
    assert brute_force_expected_ek(sa, sb, 2) == want
    assert _expected_ek_literal(sa, sb, 2) == want


@given(spectrum_st(2), spectrum_st(2))
@settings(max_examples=20, deadline=None)
def test_literal_oracle_d2(sa, sb):
    for k in range(3):
        lit = _expected_ek_literal(sa, sb, k)
        assert lit == brute_force_expected_ek(sa, sb, k)
        assert lit == commutator_coefficient(k, sa, sb)


@given(spectrum_st(3), spectrum_st(3))
@settings(max_examples=6, deadline=None)
def test_literal_oracle_d3(sa, sb):
    for k in range(4):
        lit = _expected_ek_literal(sa, sb, k)
        assert lit == brute_force_expected_ek(sa, sb, k)
        assert lit == commutator_coefficient(k, sa, sb)


def test_brute_force_charpoly_matches_convolution():
    sa, sb = (Fraction(1), Fraction(2), Fraction(4)), (Fraction(0), Fraction(1), Fraction(3))
    p = MonicPoly.from_spectrum(sa)
    q = MonicPoly.from_spectrum(sb)
    conv = commutator_poly(p, q)
    for k in range(4):
        assert brute_force_expected_ek(sa, sb, k) == conv.a[k]


def test_brute_force_validation():
    with pytest.raises(ValueError):
        brute_force_expected_ek((1, 2), (1, 2, 3), 1)
    with pytest.raises(ValueError):
        brute_force_expected_ek((1, 2), (1, 2), 3)
    with pytest.raises(ValueError, match="^spectrum lengths differ: 2 != 3$"):
        brute_force_coefficients((1, 2), (1, 2, 3), [1])
    with pytest.raises(ValueError, match="^need 0 <= k <= 2, got k=3$"):
        brute_force_coefficients((1, 2), (1, 2), [1, 3])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(spectrum_st(d), spectrum_st(d))))
def test_brute_force_coefficients_match_each_coefficient(pair):
    sa, sb = pair
    every, odd = range(len(sa) + 1), range(1, len(sa) + 1, 2)
    for ks in (every, odd):
        assert brute_force_coefficients(sa, sb, ks) == {
            k: brute_force_expected_ek(sa, sb, k) for k in ks}
    bad = {k: brute_force_expected_ek(sa, sb, k, wg_fn=_corrupted_weingarten) for k in every}
    assert brute_force_coefficients(sa, sb, every, wg_fn=_corrupted_weingarten) == bad


@pytest.mark.parametrize("k", range(1, 6))
def test_derangement_class_tables_hold_for_every_member(k):
    # the class sums rest on (ct(sigma tau), ct(tau)) counts being the same
    # for every sigma of a class; the counts cover all of S_k
    rhos, classes = _derangement_classes(k)
    perms = list(itertools.permutations(range(k)))
    members = set()
    for sign, group, counts in classes:
        table = {(rhos[i], rhos[j]): n for i, j, n in counts}
        assert sum(table.values()) == factorial(k)
        for sigma in group:
            assert sign == perm_sign(sigma)
            assert all(sigma[i] != i for i in range(k))
            assert Counter(
                (cycle_type(compose(sigma, tau)), cycle_type(tau)) for tau in perms
            ) == table
            members.add(sigma)
    assert members == {p for p in perms if all(p[i] != i for i in range(k))}


@pytest.mark.parametrize("d", [5, 6])
def test_brute_force_matches_convolution_beyond_d4(d):
    sa = (Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(3, 2), Fraction(2),
          Fraction(-2, 3))[:d]
    sb = (Fraction(1), Fraction(-2, 3), Fraction(1, 3), Fraction(0), Fraction(2),
          Fraction(-1, 4))[:d]
    conv = commutator_poly(MonicPoly.from_spectrum(sa), MonicPoly.from_spectrum(sb))
    for k in range(d + 1):
        assert brute_force_expected_ek(sa, sb, k) == conv.a[k], k


def test_brute_force_detects_corrupted_weingarten():
    # needs a spectrum with nonzero trace: the corrupted class multiplies
    # a power-sum factor that vanishes on trace-free spectra
    sa, sb = (Fraction(1), Fraction(2)), (Fraction(1), Fraction(3))
    good = brute_force_expected_ek(sa, sb, 2)
    bad = brute_force_expected_ek(sa, sb, 2, wg_fn=_corrupted_weingarten)
    assert good != bad


# --------------------------------------------------------- factor identities

@given(spectrum_st(4))
@settings(max_examples=25, deadline=None)
def test_leftdep_raw_equals_closed(spec):
    for k in (0, 2, 4):
        raw, closed = identity_leftdep(spec, k)
        assert raw == closed


@given(spectrum_st(4))
@settings(max_examples=25, deadline=None)
def test_rightdep_raw_equals_closed(spec):
    for k in (0, 2, 4):
        raw, closed = identity_rightdep(spec, k)
        assert raw == closed


@given(spectrum_st(3), spectrum_st(3))
@settings(max_examples=15, deadline=None)
def test_factors_multiply_to_expected_coefficient(sa, sb):
    # the two dependence factors compose the full coefficient
    for k in (0, 2):
        left, _ = identity_leftdep(sa, k)
        right, _ = identity_rightdep(sb, k)
        assert left * right == commutator_coefficient(k, sa, sb)


def _leftdep_closed_reference(spec, k):
    d, h = len(spec), k // 2
    e = elementary_symmetric(spec)
    closed = Fraction(0)
    for i in range(k + 1):
        j = k - i
        closed += (
            (-1) ** i
            * Fraction(
                factorial(d - i) * factorial(d - j),
                factorial(d - k) * factorial(d - h),
            )
            * e[i]
            * e[j]
        )
    return closed * Fraction(factorial(h), factorial(k))


def _rightdep_closed_reference(spec, k):
    d, h = len(spec), k // 2
    e = elementary_symmetric(spec)
    closed = Fraction(0)
    for i in range(k + 1):
        j = k - i
        closed += (-1) ** i * factorial(d - i) * factorial(d - j) * e[i] * e[j]
    return closed * Fraction(factorial(k) * (d + 1 - h), factorial(d + 1) * factorial(d))


@given(st.lists(rational_st, min_size=1, max_size=8).map(tuple))
@settings(max_examples=25, deadline=None)
def test_closed_sides_match_the_fraction_loops(spec):
    for k in range(0, len(spec) + 1, 2):
        assert identity_leftdep(spec, k)[1] == _leftdep_closed_reference(spec, k), k
        assert identity_rightdep(spec, k)[1] == _rightdep_closed_reference(spec, k), k


def test_factor_identities_on_flagship():
    left, left_closed = identity_leftdep((Fraction(1), Fraction(-1)), 2)
    right, right_closed = identity_rightdep((Fraction(1), Fraction(-1)), 2)
    assert left == left_closed == -2
    assert right == right_closed == Fraction(-4, 3)
    assert left * right == Fraction(8, 3)


def test_factor_identities_odd_k():
    left_raw, left_closed = identity_leftdep((Fraction(1), Fraction(2), Fraction(5)), 3)
    assert left_raw == left_closed == 0


@pytest.mark.parametrize("identity", [identity_leftdep, identity_rightdep])
@pytest.mark.parametrize("k", [-1, 4])
def test_factor_identities_refuse_k_outside_0_to_d(identity, k):
    # the closed side's cross_sum refuses k before the raw side runs
    with pytest.raises(ValueError, match=rf"^need 0 <= k <= 3, got k={k}$"):
        identity((Fraction(1), Fraction(2), Fraction(5)), k)


# -------------------------------------------------------- binomial identities

def test_gen_binom():
    assert gen_binom(5, 2) == 10
    assert gen_binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert gen_binom(3, -1) == 0
    assert gen_binom(-2, 2) == 3


@pytest.mark.parametrize("n", range(1, 9))
def test_alternating_binomial_identity(n):
    for y in range(0, 9):
        lhs, rhs = alternating_binomial_pair(n, y)
        assert lhs == rhs, (n, y)


def test_alternating_binomial_rejects_bad_input():
    with pytest.raises(ValueError):
        alternating_binomial_pair(0, 1)
    with pytest.raises(ValueError):
        alternating_binomial_pair(2, -1)


@pytest.mark.parametrize("n", range(1, 9))
def test_rothe_hagen_identity(n):
    for y in [0, 1, 5, 8, Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3)]:
        lhs, rhs = rothe_hagen_pair(n, y)
        assert lhs == rhs, (n, y)


@pytest.mark.parametrize("k", range(1, 9))
def test_telescoping_identity(k):
    for p in range(0, k // 2 + 1):
        for q in range(0, p + 1):
            lhs, rhs = telescoping_pair(k, p, q)
            assert lhs == rhs, (k, p, q)


def test_telescoping_rejects_bad_range():
    with pytest.raises(ValueError):
        telescoping_pair(4, 1, 2)
    with pytest.raises(ValueError):
        telescoping_pair(4, 3, 0)
