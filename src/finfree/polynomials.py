"""Monic polynomials and their finite free convolutions.

A degree-d monic polynomial

    sum_k x^(d-k) (-1)^k a_k,    a_0 = 1,

has the unsigned coefficients a_k, the elementary symmetric functions of
its roots; the alternating signs appear only on display. It is stored in
the normalized coefficients c_k = a_k (d-k)!/d! of Marcus, Spielman and
Srivastava, as integers over one denominator: c_k = nums[k]/den, with
den > 0 and gcd(den, *nums) = 1. That form is unique, so equality and
hashing are exact. In it the additive convolution is a plain polynomial
product and the multiplicative one is c_k = c^p_k c^q_k k!, so every
convolution runs on ints. The reduced rationals a_k are formed once, on
demand, for display.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

from .symfunc import (
    as_spectrum,
    as_spectrum_pair,
    cross_pair,
    cross_terms,
    left_factor,
    left_weight,
    right_factor,
    right_weight,
    scaled_elementary,
)
from .util import (
    DEGREE_CAP,
    check_cap,
    clear_denominators,
    factorials,
    packed_product,
    to_fraction,
)


def _check_degree(d: int):
    if d < 1:
        raise ValueError("degree must be at least 1")
    check_cap(d, DEGREE_CAP, "polynomial degree")


def _mss_normalize(scale: int, ints) -> tuple:
    """(den, nums) with c_k = nums[k]/den = a_k (d-k)!/d! for a_k = ints[k]/scale."""
    d = len(ints) - 1
    fact = factorials(d)
    return scale * fact[d], [v * fact[d - k] for k, v in enumerate(ints)]


class MonicPoly:
    """An immutable value: equal, with equal hashes, exactly when den and
    nums are. Only _settle stores them, and only cached_property adds an
    attribute (`a`), through the instance dict."""

    def __init__(self, a):
        """The polynomial with unsigned coefficients a: rationals, a_0 = 1.

        The degree is checked before any coefficient is converted.
        """
        a = tuple(a)
        d = len(a) - 1
        _check_degree(d)
        a = tuple(to_fraction(v) for v in a)
        if a[0] != 1:
            raise ValueError(f"leading coefficient must be 1, got {a[0]}")
        self._settle(*_mss_normalize(*clear_denominators(a)))

    def _settle(self, den: int, nums) -> "MonicPoly":
        """Store c_k = nums[k]/den with the common content divided out."""
        g = gcd(den, *nums)
        if g != 1:
            den, nums = den // g, [v // g for v in nums]
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums))
        return self

    @classmethod
    def _normalized(cls, den: int, nums) -> "MonicPoly":
        """The polynomial with c_k = nums[k]/den (den > 0, nums[0] = den)."""
        return object.__new__(cls)._settle(den, nums)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.den, self.nums) == (other.den, other.nums)

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(den={self.den!r}, nums={self.nums!r})"

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @cached_property
    def a(self) -> tuple:
        """The unsigned coefficients a_k = c_k d!/(d-k)!, as reduced Fractions."""
        d, out, falling = self.degree, [], 1
        for k, v in enumerate(self.nums):
            out.append(Fraction(v * falling, self.den))
            falling *= d - k
        return tuple(out)

    @classmethod
    def from_spectrum(cls, values) -> "MonicPoly":
        """Monic polynomial with the given roots.

        With (L, E) from scaled_elementary, E_k = L^k e_k, the coefficient
        e_k is E_k L^(d-k) over L^d.
        """
        spec = as_spectrum(values)
        d = len(spec)
        scale, e = scaled_elementary(spec)
        ints, power = [0] * (d + 1), 1
        for k in range(d, -1, -1):
            ints[k] = e[k] * power
            power *= scale
        return cls._normalized(*_mss_normalize(ints[0], ints))

    def negate_roots(self) -> "MonicPoly":
        return MonicPoly._normalized(
            self.den, [-v if k % 2 else v for k, v in enumerate(self.nums)]
        )

    def pretty(self) -> str:
        """The displayed polynomial, e.g. "x^3 - 3/2*x + 1".

        Each term's sign and digits come from the numerator and denominator
        of a_k: the term x^(d-k) is negative when exactly one of "a_k < 0"
        and "k odd" holds. a_0 = 1, so the leading term is always x^d.
        """
        d = self.degree
        pieces = ["x" if d == 1 else f"x^{d}"]
        for k, v in enumerate(self.a[1:], start=1):
            num, den = v.numerator, v.denominator
            if not num:
                continue
            digits = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            power = d - k
            if power:
                xpow = "x" if power == 1 else f"x^{power}"
                body = xpow if digits == "1" else f"{digits}*{xpow}"
            else:
                body = digits
            pieces.append(f"- {body}" if (num < 0) != (k % 2 == 1) else f"+ {body}")
        return " ".join(pieces)

    def to_json_dict(self) -> dict:
        return {"d": self.degree, "a": [str(v) for v in self.a]}

    @classmethod
    def from_json_dict(cls, payload) -> "MonicPoly":
        if not isinstance(payload, dict) or not isinstance(payload.get("a"), list):
            raise TypeError('need a JSON object whose "a" is a list of coefficients')
        poly = cls(payload["a"])
        degree = payload.get("d", poly.degree)
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise TypeError(f"'d' must be an int, got {degree!r}")
        if degree != poly.degree:
            raise ValueError(f"declared degree {degree} != coefficient count {poly.degree}")
        return poly


def _common_degree(p: MonicPoly, q: MonicPoly) -> int:
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return p.degree


# Products of fewer than this many coefficients are taken whole. Measured
# on a 2-vCPU x86 host, CPython 3.11: commutator_poly on seeded spectra like
# exact_conv's, each op timed at every cutoff and with whole products, in
# random order; median time ratio against whole products over 300 ops (20 at
# d = 400), both with primitive-part Kronecker products. Past the cutoff a
# d = 60 square (31 coefficients) splits once at 24, a d = 150 one (76)
# twice. A second set on other spectra moved no entry by more than 0.04.
#
#   cutoff   d = 20   d = 60   d = 150   d = 400
#      8      1.53     1.08     0.63      0.46
#     12      1.00     1.09     0.59      0.45
#     16      1.01     0.93     0.59      0.46
#     24      1.00     0.93     0.57      0.45
#     32      1.01     0.99     0.57      0.45
#     40      1.00     0.99     0.60      0.45
_SHORT_PRODUCT_MIN = 24


def low_product(f, g, n: int) -> list:
    """The first n coefficients of the product of two integer polynomials.

    A short product (Mulders 2000) computes only those n. With m = ceil(n/2)
    and f = f_lo + x^m f_hi, likewise g,

        f g mod x^n = f_lo g_lo + x^m (f_lo g_hi + f_hi g_lo mod x^(n-m)),

    since 2m >= n drops f_hi g_hi. f_lo g_lo is one util.packed_product of
    m-coefficient operands, and the cross terms recurse; for a square (the
    same list as f and g) the low halves are one list and the second cross
    term is the first. Each packed_product is sized for its own piece, so
    small high-order coefficients pack narrow.
    Below _SHORT_PRODUCT_MIN coefficients the product is taken whole.
    """
    if n < 1 or not (f and g):
        return [0] * n
    if n < _SHORT_PRODUCT_MIN:
        return packed_product(f, g, n)
    m = (n + 1) // 2
    k = n - m
    f_lo = f[:m]
    g_lo = f_lo if g is f else g[:m]
    out = packed_product(f_lo, g_lo, n)
    left = low_product(f_lo[:k], g[m:n], k)
    right = left if g is f else low_product(f[m:n], g_lo[:k], k)
    out[m:] = [u + v + w for u, v, w in zip(out[m:], left, right)]
    return out


def boxplus(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Additive convolution: expected polynomial of A + UBU*.

    In the normalized coefficients the convolution is the plain polynomial
    product (Marcus-Spielman-Srivastava): the numerators are multiplied
    once over the product of the denominators.
    """
    d = _common_degree(p, q)
    return MonicPoly._normalized(p.den * q.den, low_product(p.nums, q.nums, d + 1))


def boxminus(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Subtractive convolution: expected polynomial of A - UBU*.

    For q == p this is f(x) f(-x) with f = sum nums_i x^i, over den^2.
    Writing f = E(x^2) + x O(x^2) gives E(x^2)^2 - x^2 O(x^2)^2: two squares
    of half the length, and every odd coefficient exactly 0 (A - UAU* has
    the law of its negative). Otherwise it is boxplus with the roots of q
    negated.
    """
    if p != q:
        return boxplus(p, q.negate_roots())
    half = p.degree // 2
    even, odd = p.nums[0::2], p.nums[1::2]
    e = low_product(even, even, half + 1)
    o = [0] + low_product(odd, odd, half)
    nums = [0] * (p.degree + 1)
    nums[0::2] = [u - v for u, v in zip(e, o)]
    return MonicPoly._normalized(p.den * p.den, nums)


def boxtimes(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Multiplicative convolution: expected polynomial of A UBU*.

    a_k = p_k q_k / C(d, k), which in the normalized coefficients is
    c_k = c^p_k c^q_k k!.
    """
    d = _common_degree(p, q)
    return MonicPoly._normalized(
        p.den * q.den, [u * v * f for u, v, f in zip(p.nums, q.nums, factorials(d))]
    )


def z_poly(d: int) -> MonicPoly:
    """The degree-d commutator kernel polynomial (even coefficients only).

    a_2m = C(d, 2m) (d)_m m!/(2m)! (d+1-m)/(d+1), with (d)_m = d!/(d-m)!
    the falling factorial; normalized, c_2m = (d)_m m! (d+1-m) over
    (2m)!^2 (d+1), put on the common denominator (2h)!^2 (d+1), h = d // 2.
    """
    _check_degree(d)
    fact = factorials(d)
    top = fact[2 * (d // 2)]
    nums = [0] * (d + 1)
    for m in range(d // 2 + 1):
        nums[2 * m] = (
            fact[d] // fact[d - m] * fact[m] * (d + 1 - m) * (top // fact[2 * m]) ** 2
        )
    return MonicPoly._normalized((d + 1) * top * top, nums)


def commutator_poly(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Expected polynomial of the commutator AUBU* - UBU*A, by convolution."""
    d = _common_degree(p, q)
    return boxtimes(boxtimes(boxminus(p, p), boxminus(q, q)), z_poly(d))


def commutator_coefficient(k: int, spec_a, spec_b) -> Fraction:
    """Coefficient-level form of the expected commutator polynomial.

    spec_a and spec_b are the spectra (root tuples) of the two matrices;
    returns the unsigned coefficient E[e_k] of the commutator as the
    product L_k(A) R_k(B) of symfunc.left_factor and symfunc.right_factor:
    1 at k = 0 and 0 at odd k.
    """
    spec_a, spec_b = as_spectrum_pair(spec_a, spec_b)
    return left_factor(spec_a, k) * right_factor(spec_b, k)


def commutator_poly_closed(spec_a, spec_b) -> tuple:
    """The unsigned coefficients a_0..a_d of the expected commutator
    polynomial, all at once, by the closed form of commutator_coefficient.

    Each spectrum's cross_terms are formed once. At even k, a_k is
    S_k(A) S_k(B) times the left and right weights, formed on ints from the
    same (num, den) pairs the two factors read and divided once; odd a_k
    are 0.
    """
    spec_a, spec_b = as_spectrum_pair(spec_a, spec_b)
    d = len(spec_a)
    terms_a, terms_b = cross_terms(spec_a), cross_terms(spec_b)
    fact = factorials(d)
    out = [Fraction(0)] * (d + 1)
    for k in range(0, d + 1, 2):
        num_a, den_a = cross_pair(terms_a, k)
        num_b, den_b = cross_pair(terms_b, k)
        num_l, den_l = left_weight(fact, k)
        num_r, den_r = right_weight(fact, k)
        out[k] = Fraction(num_a * num_b * num_l * num_r, den_a * den_b * den_l * den_r)
    return tuple(out)
