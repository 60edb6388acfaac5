import itertools
import random
import sys
from fractions import Fraction
from math import comb, factorial, gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from finfree import polynomials, util, verify
from finfree.polynomials import (
    MonicPoly,
    boxminus,
    boxplus,
    boxtimes,
    commutator_coefficient,
    commutator_poly,
    commutator_poly_closed,
    low_product,
    z_poly,
)
from finfree.oracle import falling
from finfree.symfunc import elementary_symmetric
from finfree.weingarten import weingarten

rational_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def spectrum_st(d):
    return st.lists(rational_st, min_size=d, max_size=d).map(tuple)


# ------------------------------------------------------------------ basics

def test_falling():
    assert falling(5, 2) == 20
    assert falling(5, 0) == 1
    assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling(3, 5) == 0


def test_monicpoly_validation():
    MonicPoly((1, 0, -1))
    with pytest.raises(ValueError):
        MonicPoly((2, 0))
    with pytest.raises(ValueError):
        MonicPoly((1,))


def _evaluate(p, x):
    d = p.degree
    return sum((-1) ** k * p.a[k] * x ** (d - k) for k in range(d + 1))


def test_from_spectrum_and_evaluate():
    p = MonicPoly.from_spectrum((1, 2, 3))
    assert p.a == (1, 6, 11, 6)
    for r in (1, 2, 3):
        assert _evaluate(p, r) == 0
    assert _evaluate(p, 0) == -6
    assert p.pretty() == "x^3 - 6*x^2 + 11*x - 6"
    assert p.a[1] == 6


def test_negate_roots():
    p = MonicPoly.from_spectrum((1, 2))
    assert p.negate_roots() == MonicPoly.from_spectrum((-1, -2))


def test_pretty():
    assert MonicPoly((1, 0, Fraction(8, 3))).pretty() == "x^2 + 8/3"
    assert MonicPoly.from_spectrum((1, 2)).pretty() == "x^2 - 3*x + 2"
    assert MonicPoly((1, 0, 0, 0, 0)).pretty() == "x^4"
    assert z_poly(3).pretty() == "x^3 + 27/8*x"


def test_json_roundtrip():
    p = MonicPoly((1, Fraction(1, 2), -2))
    payload = p.to_json_dict()
    assert payload == {"d": 2, "a": ["1", "1/2", "-2"]}
    assert MonicPoly.from_json_dict(payload) == p
    with pytest.raises(ValueError):
        MonicPoly.from_json_dict({"d": 3, "a": ["1", "0", "0"]})


def test_value_semantics():
    p = MonicPoly((1, Fraction(1, 2), -2))
    same = MonicPoly.from_json_dict({"a": ["1", "2/4", "-2"]})
    assert p == same and not p != same and hash(p) == hash(same)
    assert p is not same
    for other in (
        MonicPoly((1, Fraction(1, 2), -2, 0)),  # same coefficients, one degree more
        MonicPoly((1, Fraction(1, 3), -2)),  # another content
        MonicPoly((1, 1, -4)),  # the same numerators over another denominator
    ):
        assert p != other and not p == other
    assert p != (p.den, p.nums) and p != p.a and p != "MonicPoly(den=4, nums=(4, 1, -4))"
    assert len({p, same, MonicPoly((1, 0))}) == 2
    assert {p: "p"}[same] == "p"
    assert repr(p) == "MonicPoly(den=4, nums=(4, 1, -4))"
    assert repr(z_poly(2)) == "MonicPoly(den=3, nums=(3, 0, 1))"


def test_value_is_immutable():
    p = MonicPoly.from_spectrum((1, -1))
    for name, value in (("den", 1), ("nums", (1, 0, 0)), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.den, p.nums) == (2, (2, 0, -1)) and not hasattr(p, "extra")


def test_coefficients_are_computed_once():
    p = MonicPoly((1, 0, Fraction(8, 3)))
    assert "a" not in vars(p)
    first = p.a
    assert first == (1, 0, Fraction(8, 3)) and p.a is first
    assert p == MonicPoly((1, 0, Fraction(8, 3)))  # a cached `a` is not part of the value


def test_coefficient_strings_are_formed_once():
    p = MonicPoly((1, Fraction(-7, 4), 2))
    assert "a_str" not in vars(p)
    assert p.to_json_dict() == {"d": 2, "a": ["1", "-7/4", "2"]}
    first = p.a_str
    assert p.pretty() == "x^2 + 7/4*x + 2" and p.a_str is first


def test_coefficient_past_digit_limit_is_named():
    # a 1201-digit root: a_2 of the commutator has 4801 digits, more than
    # Python's int/str limit (4300 by default) lets str() print
    p = MonicPoly.from_spectrum(["1" + "0" * 1200, 2, 3, 4])
    result = commutator_poly(p, p)
    refused = (f"^result coefficient a_2 has 4801 digits, past Python's "
               f"{sys.get_int_max_str_digits()}-digit limit for int/str conversion$")
    for render in (result.pretty, result.to_json_dict, result.pretty):
        with pytest.raises(ValueError, match=refused):
            render()


# ------------------------------------------------------------ convolutions

def test_boxplus_frozen():
    p = MonicPoly.from_spectrum((1, -1))
    assert boxplus(p, p).a == (1, 0, -2)


def test_boxplus_identity_element():
    for d in (1, 2, 3, 4):
        x_d = MonicPoly((1,) + (0,) * d)
        p = MonicPoly.from_spectrum(tuple(range(1, d + 1)))
        assert boxplus(p, x_d) == p
        assert boxplus(x_d, p) == p


def test_boxtimes_identity_element():
    for d in (1, 2, 3, 4):
        ones = MonicPoly.from_spectrum((1,) * d)
        p = MonicPoly.from_spectrum(tuple(range(1, d + 1)))
        assert boxtimes(p, ones) == p
        assert boxtimes(ones, p) == p


@given(spectrum_st(3), spectrum_st(3))
def test_boxplus_commutes(sa, sb):
    p, q = MonicPoly.from_spectrum(sa), MonicPoly.from_spectrum(sb)
    assert boxplus(p, q) == boxplus(q, p)
    assert boxtimes(p, q) == boxtimes(q, p)


@given(spectrum_st(3), rational_st)
def test_boxplus_with_scalar_translates_spectrum(spec, c):
    # conjugation-invariance: A + c I has spectrum a_i + c, and the
    # convolution with (x - c)^d must reproduce exactly that
    p = MonicPoly.from_spectrum(spec)
    scalar = MonicPoly.from_spectrum((c,) * 3)
    want = MonicPoly.from_spectrum(tuple(v + c for v in spec))
    assert boxplus(p, scalar) == want


@given(spectrum_st(3), rational_st)
def test_boxtimes_with_scalar_scales_spectrum(spec, c):
    p = MonicPoly.from_spectrum(spec)
    scalar = MonicPoly.from_spectrum((c,) * 3)
    want = MonicPoly.from_spectrum(tuple(v * c for v in spec))
    assert boxtimes(p, scalar) == want


@given(spectrum_st(3), spectrum_st(3))
def test_boxminus_is_boxplus_with_negated_roots(sa, sb):
    p, q = MonicPoly.from_spectrum(sa), MonicPoly.from_spectrum(sb)
    assert boxminus(p, q) == boxplus(p, q.negate_roots())


def test_degree_mismatch():
    p = MonicPoly.from_spectrum((1, 2))
    q = MonicPoly.from_spectrum((1, 2, 3))
    for op in (boxplus, boxminus, boxtimes):
        with pytest.raises(ValueError):
            op(p, q)


# ---------------------------------------------------------------- z_d poly

def test_z_poly_frozen():
    assert z_poly(1).a == (1, 0)
    assert z_poly(2).a == (1, 0, Fraction(2, 3))
    assert z_poly(3).a == (1, 0, Fraction(27, 8), 0)
    assert z_poly(4).a == (1, 0, Fraction(48, 5), 0, Fraction(3, 5))
    with pytest.raises(ValueError):
        z_poly(0)


def test_z_poly_odd_coefficients_vanish():
    for d in range(1, 7):
        z = z_poly(d)
        for k in range(1, d + 1, 2):
            assert z.a[k] == 0


# ------------------------------------------------------------- commutator

def test_commutator_flagship():
    want = MonicPoly((1, 0, Fraction(8, 3)))
    p = MonicPoly.from_spectrum((1, -1))
    assert commutator_poly(p, p) == want
    assert commutator_coefficient(2, (1, -1), (1, -1)) == Fraction(8, 3)
    assert commutator_coefficient(1, (1, -1), (1, -1)) == 0
    assert commutator_coefficient(0, (1, -1), (1, -1)) == 1


@given(spectrum_st(2), spectrum_st(2))
def test_commutator_routes_agree_d2(sa, sb):
    p, q = MonicPoly.from_spectrum(sa), MonicPoly.from_spectrum(sb)
    conv = commutator_poly(p, q)
    for k in range(3):
        assert conv.a[k] == commutator_coefficient(k, sa, sb)


@given(spectrum_st(3), spectrum_st(3))
def test_commutator_routes_agree_d3(sa, sb):
    p, q = MonicPoly.from_spectrum(sa), MonicPoly.from_spectrum(sb)
    conv = commutator_poly(p, q)
    for k in range(4):
        assert conv.a[k] == commutator_coefficient(k, sa, sb)


@given(spectrum_st(3), spectrum_st(3))
def test_commutator_symmetric_in_arguments(sa, sb):
    # swapping the two matrices negates the commutator, whose spectrum is
    # symmetric, so the expected polynomial cannot change
    p, q = MonicPoly.from_spectrum(sa), MonicPoly.from_spectrum(sb)
    assert commutator_poly(p, q) == commutator_poly(q, p)


@given(spectrum_st(3), rational_st)
def test_commutator_translation_invariant(spec, c):
    # shifting A by a scalar leaves A U B U* - U B U* A unchanged
    shifted = tuple(v + c for v in spec)
    base = (1, 0, -2)
    for k in range(4):
        assert commutator_coefficient(k, spec, base) == commutator_coefficient(
            k, shifted, base
        )


def test_commutator_coefficient_bounds():
    with pytest.raises(ValueError):
        commutator_coefficient(3, (1, -1), (1, -1))
    with pytest.raises(ValueError):
        commutator_coefficient(-1, (1, -1), (1, -1))


# ------------------------------------------------- kernels vs definitions
#
# Reference definitions, written out in Fraction arithmetic: the weight sum
# a_k = sum_{i+j=k} (d-i)!(d-j)!/(d!(d-k)!) p_i q_j for the additive and
# subtractive convolutions, the coefficientwise ratio for the multiplicative
# one, and the sum over k-subsets for e_k.

def ref_boxplus(p, q, sign=1):
    d = p.degree
    a = []
    for k in range(d + 1):
        total = Fraction(0)
        for i in range(k + 1):
            j = k - i
            w = Fraction(
                factorial(d - i) * factorial(d - j), factorial(d) * factorial(d - k)
            )
            total += sign**j * w * p.a[i] * q.a[j]
        a.append(total)
    return MonicPoly(tuple(a))


def ref_boxtimes(p, q):
    d = p.degree
    return MonicPoly(tuple(p.a[k] * q.a[k] / comb(d, k) for k in range(d + 1)))


def ref_pretty(p):
    """MonicPoly.pretty as it was written over the signed coefficients."""
    d = p.degree
    pieces = []
    for k in range(d + 1):
        c = (-1) ** k * p.a[k]
        if c == 0:
            continue
        power = d - k
        if power == 0:
            body = str(abs(c))
        else:
            xpow = "x" if power == 1 else f"x^{power}"
            body = xpow if abs(c) == 1 else f"{abs(c)}*{xpow}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def ref_elementary(x):
    return tuple(
        sum((prod(c, start=Fraction(1)) for c in itertools.combinations(x, k)),
            Fraction(0))
        for k in range(len(x) + 1)
    )


big_rational_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(-(10**6), 10**6),
        st.integers(1, 10**6),
    ),
)


@st.composite
def poly_pair_st(draw):
    d = draw(st.integers(1, 12))
    tails = st.lists(big_rational_st, min_size=d, max_size=d)
    return (
        MonicPoly((Fraction(1), *draw(tails))),
        MonicPoly((Fraction(1), *draw(tails))),
    )


@settings(max_examples=150, deadline=None)
@given(poly_pair_st())
def test_convolutions_match_definition(pair):
    p, q = pair
    assert boxplus(p, q) == ref_boxplus(p, q)
    assert boxminus(p, q) == ref_boxplus(p, q, sign=-1)
    assert boxtimes(p, q) == ref_boxtimes(p, q)


@st.composite
def display_poly_st(draw):
    # 0, +-1, other integers and non-integral rationals of either sign, and
    # sometimes a zero constant term
    d = draw(st.integers(1, 10))
    entry = st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
        st.integers(-(10**6), 10**6).map(Fraction),
        big_rational_st,
    )
    tail = draw(st.lists(entry, min_size=d, max_size=d))
    if draw(st.booleans()):
        tail[-1] = Fraction(0)
    return MonicPoly((Fraction(1), *tail))


@settings(max_examples=200, deadline=None)
@given(display_poly_st())
@example(MonicPoly((1, 0)))
@example(MonicPoly((1, 1)))
@example(MonicPoly((1, Fraction(-3, 2))))
@example(MonicPoly((1, -1, Fraction(1, 3), 0)))
def test_pretty_matches_reference(p):
    assert p.pretty() == ref_pretty(p)


@st.composite
def self_poly_st(draw):
    # odd and even d, with zero and all-negative tails drawn on purpose
    d = draw(st.integers(1, 12))
    entry = draw(st.sampled_from([
        big_rational_st,
        big_rational_st.map(lambda v: -abs(v) or Fraction(-1)),
        st.just(Fraction(0)),
    ]))
    return MonicPoly((Fraction(1), *draw(st.lists(entry, min_size=d, max_size=d))))


@settings(max_examples=150, deadline=None)
@given(self_poly_st())
def test_self_boxminus_matches_definition(p):
    want = ref_boxplus(p, p, sign=-1)
    assert boxminus(p, p) == want
    # equal values in a second object take the same path
    assert boxminus(p, MonicPoly(p.a)) == want
    assert all(v == 0 for v in boxminus(p, p).a[1::2])


@settings(max_examples=100, deadline=None)
@given(st.lists(big_rational_st, min_size=1, max_size=12))
# the Kronecker slots of linear_product are sized from prod(1 + |v_i|):
# all zeros, one value at a byte edge, equal-size mixed signs, 400 digits
@example([Fraction(0)] * 5)
@example([Fraction(127)])
@example([Fraction(-126)])
@example([Fraction(255), Fraction(-255), Fraction(255), Fraction(-255)])
@example([Fraction(-(10**6), 7), Fraction(10**6, 7), Fraction(-(10**6), 7)])
@example([Fraction(10**399 + 7), Fraction(-3, 2), Fraction(-(10**399) - 7)])
def test_elementary_symmetric_matches_definition(x):
    assert elementary_symmetric(x) == ref_elementary(x)


def _assert_canonical(p):
    assert p.den > 0 and p.nums[0] == p.den
    assert gcd(p.den, *p.nums) == 1
    for q in (MonicPoly(p.a), MonicPoly.from_json_dict(p.to_json_dict())):
        assert q == p and hash(q) == hash(p)


@settings(max_examples=100, deadline=None)
@given(self_poly_st())
def test_coefficient_form_is_canonical(p):
    _assert_canonical(p)
    for r in (boxminus(p, p), boxplus(p, p), boxtimes(p, p.negate_roots())):
        _assert_canonical(r)


@settings(max_examples=100, deadline=None)
@given(st.lists(big_rational_st, min_size=1, max_size=12))
def test_from_spectrum_is_canonical(x):
    p = MonicPoly.from_spectrum(x)
    _assert_canonical(p)
    q = MonicPoly(elementary_symmetric(x))
    assert q == p and hash(q) == hash(p)


def ref_commutator_coefficient(k, spec_a, spec_b):
    """The closed form with each cross sum as a Fraction loop over e_i e_{k-i}."""
    d = len(spec_a)
    if k == 0:
        return Fraction(1)
    if k % 2:
        return Fraction(0)
    h = k // 2

    def cross(spec):
        e = elementary_symmetric(spec)
        return sum(
            (
                (-1) ** i
                * Fraction(
                    factorial(d - i) * factorial(d - k + i), factorial(d) * factorial(d - k)
                )
                * e[i]
                * e[k - i]
                for i in range(k + 1)
            ),
            Fraction(0),
        )

    factor = Fraction(factorial(d - k) * factorial(h) * (d + 1 - h), factorial(d - h) * (d + 1))
    return cross(spec_a) * cross(spec_b) * factor


@st.composite
def spectrum_pair_st(draw):
    d = draw(st.integers(1, 12))
    spec = st.lists(big_rational_st, min_size=d, max_size=d).map(tuple)
    return draw(spec), draw(spec)


@settings(max_examples=100, deadline=None)
@given(spectrum_pair_st())
def test_commutator_coefficient_matches_definition(pair):
    spec_a, spec_b = pair
    for k in range(len(spec_a) + 1):
        want = ref_commutator_coefficient(k, spec_a, spec_b)
        assert commutator_coefficient(k, spec_a, spec_b) == want, k


def test_commutator_coefficient_matches_definition_d60():
    d = 60
    spec_a = tuple(Fraction((-1) ** i * (i % 9 + 1), (2, 3, 4)[i % 3]) for i in range(d))
    spec_b = tuple(Fraction(i % 7 - 3, 1 + i % 5) for i in range(d))
    for k in range(0, d + 1, 2):
        want = ref_commutator_coefficient(k, spec_a, spec_b)
        assert commutator_coefficient(k, spec_a, spec_b) == want, k


def ref_low_product(f, g, n):
    return [
        sum(f[i] * g[k - i] for i in range(k + 1) if i < len(f) and k - i < len(g))
        for k in range(n)
    ]


@given(
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=14),
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=14),
    st.integers(1, 30),
)
def test_low_product_matches_schoolbook(f, g, n):
    assert low_product(f, g, n) == ref_low_product(f, g, n)


@given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=14), st.integers(0, 30))
def test_low_product_square_matches_schoolbook(f, n):
    assert low_product(f, f, n) == ref_low_product(f, f, n)
    # an equal list in a second object is multiplied, not squared
    assert low_product(f, list(f), n) == ref_low_product(f, f, n)


def test_low_product_at_slot_bound():
    # A bound of 8m-1 bits gets m-byte slots, whose signed digits run from
    # -2^(8m-1) to 2^(8m-1) - 1: a product coefficient of +-(2^(8m-1) - 1)
    # is the largest each slot is sized to hold.
    for m in range(1, 6):
        c = 2 ** (8 * m - 1) - 1
        for f in ([c], [-c], [c, -c, c], [-c, 0, -c], [0, 0, c]):
            for g in ([1], [-1]):
                assert low_product(f, g, 3) == ref_low_product(f, g, 3)
    # squares whose bound length * top^2 just fits in 8m-1 bits, so that
    # they too get m-byte slots
    for m in range(1, 6):
        for length in (1, 2, 3):
            top = isqrt((2 ** (8 * m - 1) - 1) // length)
            for f in ([top] * length, [-top] * length, [top, -top, top][:length]):
                n = 2 * length - 1
                assert low_product(f, f, n) == ref_low_product(f, f, n)
    # extreme entries of every bit length, one sign per factor
    for b in range(1, 40):
        for length in (1, 2, 3, 8):
            top = 2**b - 1
            for f, g in (
                ([top] * length, [top] * length),
                ([-top] * length, [top] * length),
                ([-top] * length, [-top] * length),
                ([top, -top] * length, [-top, top] * length),
                ([-(2**b)] * length, [-(2**b)] * length),
            ):
                n = len(f) + len(g) - 1
                assert low_product(f, g, n) == ref_low_product(f, g, n)
                assert low_product(f, f, n) == ref_low_product(f, f, n)


def test_low_product_zero_factor():
    assert low_product([0, 0], [2**90, -(2**90)], 3) == [0, 0, 0]
    assert low_product([2**90, 5], [0], 2) == [0, 0]


# ---------------------------------------------------------- short products
#
# Past CUTOFF coefficients, low_product splits its operands at ceil(n/2) and
# recurses on the cross terms; below it, one Kronecker product does it all.

CUTOFF = polynomials._SHORT_PRODUCT_MIN


@st.composite
def deep_product_st(draw):
    # lengths drawn apart, so one operand can end before the split point
    operand = st.lists(st.integers(-(2**300), 2**300), min_size=1, max_size=3 * CUTOFF)
    f, g = draw(operand), draw(operand)
    return f, g, draw(st.integers(0, len(f) + len(g) + 1))


@settings(max_examples=300, deadline=None)
@given(deep_product_st())
@example(([7], [1], 3 * CUTOFF))
@example(([1] * (CUTOFF + 1), [-1] * 3, 2 * CUTOFF))
@example(([2**300] * (3 * CUTOFF), [-(2**300)] * (3 * CUTOFF), 6 * CUTOFF + 1))
def test_short_product_matches_schoolbook(product):
    f, g, n = product
    assert low_product(f, g, n) == ref_low_product(f, g, n)
    # a square, through the same list object and through an equal copy
    assert low_product(f, f, n) == ref_low_product(f, f, n)
    assert low_product(f, list(f), n) == ref_low_product(f, f, n)


def test_short_product_at_slot_bound():
    # the extremes of test_low_product_at_slot_bound, at lengths on both
    # sides of the cutoff and past two levels of recursion
    for length in (CUTOFF - 1, CUTOFF, CUTOFF + 1, 2 * CUTOFF + 1, 4 * CUTOFF):
        n = 2 * length - 1
        for m in range(1, 6):
            c = 2 ** (8 * m - 1) - 1
            for f in ([c] * length, [-c] * length, [c, -c] * length, [0] * (length - 1) + [c]):
                f = f[:length]
                for g in ([1], [-1], [0] * (length - 1) + [-1]):
                    assert low_product(f, g, n) == ref_low_product(f, g, n)
            top = isqrt((2 ** (8 * m - 1) - 1) // length)
            for f in ([top] * length, [-top] * length, [top, -top] * length):
                f = f[:length]
                assert low_product(f, f, n) == ref_low_product(f, f, n)
        for b in (1, 7, 8, 9, 63, 64, 65, 300):
            top = 2**b - 1
            for f, g in (
                ([top] * length, [top] * length),
                ([-top] * length, [top] * length),
                ([top, -top] * length, [-top, top] * length),
                ([-(2**b)] * length, [-(2**b)] * length),
            ):
                f, g = f[:length], g[:length]
                assert low_product(f, g, n) == ref_low_product(f, g, n)
                assert low_product(f, f, n) == ref_low_product(f, f, n)


def _seeded_spectrum(d, seed):
    # roots p/q with |p| <= 9 and 1 <= q <= 9
    rng = random.Random(seed)
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d))


def _recorded(monkeypatch, module, name):
    """The argument tuples of every later call of module.<name>."""
    calls = []
    whole = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return whole(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_self_boxminus_takes_no_full_square(monkeypatch):
    # p ⊟ p squares the 76 even and 75 odd numerators at d = 150. A short
    # product never hands a whole operand to one Kronecker product: past
    # the cutoff, every operand it packs holds at most ceil(n/2) coefficients.
    p = MonicPoly.from_spectrum(_seeded_spectrum(150, seed=3))
    want = boxminus(p, p)
    calls = _recorded(monkeypatch, polynomials, "packed_product")
    assert boxminus(p, p) == want
    deep = [(len(f), len(g), n) for f, g, n in calls if n >= CUTOFF]
    assert deep, calls
    assert all(max(lf, lg) <= (n + 1) // 2 for lf, lg, n in deep), deep


# Kronecker products in low_product(f, f, n) at each n: a square reuses its
# first cross term for the second, so at n = 251 it makes 16 products where
# a product of two separate lists makes 31
SQUARE_PRODUCTS = {23: 1, 24: 2, 76: 4, 251: 16}


@pytest.mark.parametrize("n", sorted(SQUARE_PRODUCTS))
def test_square_reuses_its_cross_term(monkeypatch, n):
    rng = random.Random(n)
    f = [rng.randint(-(2**90), 2**90) for _ in range(n)]
    want = low_product(f, list(f), n)
    calls = _recorded(monkeypatch, polynomials, "packed_product")
    assert low_product(f, f, n) == want == ref_low_product(f, f, n)
    assert len(calls) == SQUARE_PRODUCTS[n]


def test_kronecker_square_packs_once(monkeypatch):
    f = [3 * v for v in (5, -7, 2**80, 0, 1)]
    want = util.packed_product(f, list(f), 9)
    packs = _recorded(monkeypatch, util, "_pack")
    assert util.packed_product(f, f, 9) == want == ref_low_product(f, f, 9)
    assert len(packs) == 1


# -------------------------------------------------------- primitive parts
#
# Each Kronecker product divides its operands by their contents, packs the
# primitive parts and multiplies the contents back in.


@st.composite
def content_product_st(draw):
    # operands c f' with a content c of up to 600 bits over small entries
    def operand():
        c = draw(st.integers(-(2**600), 2**600))
        body = draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=2 * CUTOFF))
        return [c * v for v in body]

    f, g = operand(), operand()
    return f, g, draw(st.integers(0, len(f) + len(g) + 1))


@settings(max_examples=300, deadline=None)
@given(content_product_st())
@example(([0] * 5, [3**300, 5], 6))
@example(([0] * (CUTOFF + 3), [2**600] * (CUTOFF + 3), 2 * CUTOFF))
@example(([-(2**600)], [3**200], 1))
@example(([2**600 * 3], [0, 2**599], 4))
@example(([2**600 * v for v in range(-3, CUTOFF - 4)], [-(5**250)] * (CUTOFF - 1), 2 * CUTOFF))
@example(([2**600 * v for v in range(CUTOFF + 1)], [7**200 * (-1) ** v for v in range(CUTOFF + 1)], 2 * CUTOFF + 1))
def test_product_with_content_matches_schoolbook(product):
    f, g, n = product
    assert low_product(f, g, n) == ref_low_product(f, g, n)
    # a square, through the same list object and through an equal copy
    assert low_product(f, f, n) == ref_low_product(f, f, n)
    assert low_product(f, list(f), n) == ref_low_product(f, f, n)


def test_self_boxminus_packs_primitive_parts(monkeypatch):
    # The d = 150 numerators carry a large common factor from the (d-k)!
    # weights. Every list _pack receives inside p ⊟ p has had it divided out.
    p = MonicPoly.from_spectrum(_seeded_spectrum(150, seed=3))
    want = boxminus(p, p)
    packed = _recorded(monkeypatch, util, "_pack")
    assert boxminus(p, p) == want
    assert packed
    contents = [gcd(*coeffs) for coeffs, _ in packed]
    assert all(c == 1 for c in contents), max(contents).bit_length()


@pytest.mark.parametrize("nbytes", range(1, 6))
def test_pack_round_trip_at_slot_extremes(nbytes):
    # _pack holds any |c| < 2^(8 nbytes - 1), the range _signed_slots reads
    top = 2 ** (8 * nbytes - 1) - 1
    for coeffs in ([top], [-top], [0], [top, -top, 0], [-top, top], [0, 0, -top], [top] * 7):
        packed = util._pack(coeffs, nbytes)
        assert packed == sum(c << (8 * nbytes * i) for i, c in enumerate(coeffs))
        assert util._signed_slots(packed, nbytes, len(coeffs)) == coeffs


def test_commutator_routes_agree_every_k_d150():
    d = 150
    spec_a, spec_b = _seeded_spectrum(d, seed=1), _seeded_spectrum(d, seed=2)
    conv = commutator_poly(MonicPoly.from_spectrum(spec_a), MonicPoly.from_spectrum(spec_b))
    for k in range(0, d + 1, 2):
        assert conv.a[k] == commutator_coefficient(k, spec_a, spec_b), k


def test_commutator_routes_agree_d400():
    d = 400
    spec_a, spec_b = _seeded_spectrum(d, seed=4), _seeded_spectrum(d, seed=5)
    conv = commutator_poly(MonicPoly.from_spectrum(spec_a), MonicPoly.from_spectrum(spec_b))
    assert all(conv.a[k] == 0 for k in range(1, d + 1, 2))
    for k in (2, 64, 202, 400):
        assert conv.a[k] == commutator_coefficient(k, spec_a, spec_b), k


def test_boxplus_matches_schoolbook_d200():
    d = 200
    p = MonicPoly.from_spectrum(_seeded_spectrum(d, seed=6))
    q = MonicPoly.from_spectrum(_seeded_spectrum(d, seed=7))
    want = ref_low_product(p.nums, q.nums, d + 1)
    got = boxplus(p, q)
    # c_k = got.nums[k] / got.den against want[k] / (p.den q.den)
    for k in range(d + 1):
        assert got.nums[k] * p.den * q.den == want[k] * got.den, k


def test_decode_edge_cases():
    for d in range(1, 13):
        x_d = MonicPoly((1,) + (0,) * d)
        assert boxplus(x_d, x_d) == x_d
        assert boxminus(x_d, x_d) == x_d
        # every coefficient negative, so every packed product digit borrows
        neg = MonicPoly((1,) + tuple(Fraction(-(10**6) + k, 7**k) for k in range(d)))
        assert boxplus(neg, neg) == ref_boxplus(neg, neg)
        assert boxminus(neg, neg) == ref_boxplus(neg, neg, sign=-1)
        assert boxplus(neg, x_d) == neg


def test_commutator_routes_agree_d150():
    d = 150
    spec_a = tuple(Fraction((-1) ** i * (i % 9 + 1), (2, 3, 4)[i % 3]) for i in range(d))
    spec_b = tuple(Fraction(i % 7 - 3, 1 + i % 5) for i in range(d))
    conv = commutator_poly(
        MonicPoly.from_spectrum(spec_a), MonicPoly.from_spectrum(spec_b)
    )
    assert conv.degree == d
    assert all(conv.a[k] == 0 for k in range(1, d + 1, 2))
    for k in (2, 4, 50, 98, 150):
        assert conv.a[k] == commutator_coefficient(k, spec_a, spec_b)


# ------------------------------------------------ the whole closed form


@pytest.mark.parametrize("d", [150, 400])
def test_whole_closed_form_matches_convolution(d):
    spec_a, spec_b = _seeded_spectrum(d, seed=d), _seeded_spectrum(d, seed=d + 1)
    conv = commutator_poly(MonicPoly.from_spectrum(spec_a), MonicPoly.from_spectrum(spec_b))
    assert commutator_poly_closed(spec_a, spec_b) == conv.a


@settings(max_examples=100, deadline=None)
@given(spectrum_pair_st())
def test_whole_closed_form_matches_each_coefficient(pair):
    spec_a, spec_b = pair
    whole = commutator_poly_closed(spec_a, spec_b)
    assert len(whole) == len(spec_a) + 1
    for k, value in enumerate(whole):
        assert value == commutator_coefficient(k, spec_a, spec_b), k


def test_whole_closed_form_refusals():
    # past DEGREE_CAP: tests/test_util.py's FIXED_CAPS row
    with pytest.raises(ValueError, match="^spectrum must be nonempty$"):
        commutator_poly_closed([], [])
    with pytest.raises(ValueError, match="^spectrum lengths differ: 2 != 3$"):
        commutator_poly_closed([1, 2], [1, 2, 3])


def test_triple_route_forms_the_whole_closed_form_once(monkeypatch):
    # one call per spectrum pair, and no per-k coefficient calls, on the
    # closed route and on the brute force
    whole = _recorded(monkeypatch, verify, "commutator_poly_closed")
    brute = _recorded(monkeypatch, verify, "brute_force_coefficients")
    per_k = [_recorded(monkeypatch, module, "commutator_coefficient")
             for module in (verify, polynomials)]
    per_k.append(_recorded(monkeypatch, verify, "brute_force_expected_ek"))
    spec_a, spec_b = (-2, -1, 0, 1, 2), (-1, 0, 0, 1, 2)
    assert verify._triple_route_failure(spec_a, spec_b, range(6), weingarten) is None
    assert len(whole) == len(brute) == 1
    assert per_k == [[], [], []]
