"""Monic polynomials and their finite free convolutions.

A degree-d monic polynomial is stored by its unsigned coefficient vector
(a_0, ..., a_d) with a_0 = 1, standing for

    sum_k x^(d-k) (-1)^k a_k,

so a_k is the k-th elementary symmetric function of the roots and the
alternating signs appear only on display and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .symfunc import as_spectrum, cross_sum, elementary_symmetric
from .util import clear_denominators, factorials, to_fraction


@dataclass(frozen=True)
class MonicPoly:
    a: tuple

    def __post_init__(self):
        a = tuple(to_fraction(v) for v in self.a)
        if len(a) < 2:
            raise ValueError("degree must be at least 1")
        if a[0] != 1:
            raise ValueError(f"leading coefficient must be 1, got {a[0]}")
        object.__setattr__(self, "a", a)

    @property
    def degree(self) -> int:
        return len(self.a) - 1

    @classmethod
    def from_spectrum(cls, values) -> "MonicPoly":
        """Monic polynomial with the given roots."""
        return cls(elementary_symmetric(as_spectrum(values)))

    def negate_roots(self) -> "MonicPoly":
        return MonicPoly(tuple(-v if k % 2 else v for k, v in enumerate(self.a)))

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
        if not isinstance(payload["a"], list):
            raise TypeError(f"'a' must be a list, got {payload['a']!r}")
        poly = cls(tuple(to_fraction(v) for v in payload["a"]))
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


def _pack(coeffs, nbytes: int) -> int:
    """sum_i c_i 2^(8 nbytes i) for signed ints c_i with |c_i| < 2^(8 nbytes)."""
    pos = b"".join(max(c, 0).to_bytes(nbytes, "little") for c in coeffs)
    neg = b"".join(max(-c, 0).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def low_product(f, g, n: int) -> list:
    """The first n coefficients of the product of two integer polynomials.

    Kronecker substitution: both coefficient lists are packed into one big
    int each, in slots wide enough for any product coefficient, so a single
    big-int product does the whole convolution. The slot width is a whole
    number of bytes, and the signed digits are read back in one pass by
    biasing every slot by half its range, which leaves no borrows to carry.
    Passing the same list as f and g squares it.
    """
    if n < 1:
        return []
    bound = min(n, len(f), len(g)) * max(1, *map(abs, f)) * max(1, *map(abs, g))
    nbytes = (bound.bit_length() + 1 + 7) // 8
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    width = 8 * nbytes * n
    if g is f:
        # one operand, so the big-int product takes its squaring path
        packed = _pack(f, nbytes)
        packed *= packed
    else:
        packed = _pack(f, nbytes) * _pack(g, nbytes)
    raw = ((packed + bias) & ((1 << width) - 1)).to_bytes(nbytes * n, "little")
    return [
        int.from_bytes(raw[i : i + nbytes], "little") - half
        for i in range(0, nbytes * n, nbytes)
    ]


def _cleared(poly: MonicPoly, fact: list) -> tuple:
    """(D, [P_0, ..., P_d]) with P_i = a_i D (d-i)! and D the lcm of the
    denominators: the normalized coefficients a_i (d-i)!/d! times D d!."""
    d = poly.degree
    den, ints = clear_denominators(poly.a)
    return den, [v * fact[d - i] for i, v in enumerate(ints)]


def boxplus(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Additive convolution: expected polynomial of A + UBU*.

    In the normalized coefficients a_k (d-k)!/d! the convolution is the
    plain polynomial product (Marcus-Spielman-Srivastava). Both inputs are
    cleared to integers P_i = a_i D (d-i)!, with D the lcm of their
    denominators, multiplied once, and each output is one ratio
    R_k / (D_p D_q d! (d-k)!).
    """
    d = _common_degree(p, q)
    fact = factorials(d)
    dp, pa = _cleared(p, fact)
    dq, qa = _cleared(q, fact)
    r = low_product(pa, qa, d + 1)
    scale = dp * dq * fact[d]
    return MonicPoly(tuple(Fraction(r[k], scale * fact[d - k]) for k in range(d + 1)))


def boxminus(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Subtractive convolution: expected polynomial of A - UBU*.

    For q == p this is f(x) f(-x) with f = sum P_i x^i in the cleared basis
    of boxplus. Writing f = E(x^2) + x O(x^2) gives E(x^2)^2 - x^2 O(x^2)^2:
    two squares of half the length, and every odd coefficient exactly 0
    (A - UAU* has the law of its negative). Otherwise it is boxplus with
    the roots of q negated.
    """
    if p != q:
        return boxplus(p, q.negate_roots())
    d = p.degree
    fact = factorials(d)
    den, pa = _cleared(p, fact)
    half = d // 2
    even, odd = pa[0::2], pa[1::2]
    e = low_product(even, even, half + 1)
    o = [0] + low_product(odd, odd, half)
    scale = den * den * fact[d]
    a = [Fraction(0)] * (d + 1)
    for m in range(half + 1):
        a[2 * m] = Fraction(e[m] - o[m], scale * fact[d - 2 * m])
    return MonicPoly(tuple(a))


def boxtimes(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Multiplicative convolution: expected polynomial of A UBU*.

    a_k = p_k q_k / C(d, k), formed from the numerators and denominators as
    one integer ratio.
    """
    d = _common_degree(p, q)
    return MonicPoly(tuple(
        Fraction(u.numerator * v.numerator, u.denominator * v.denominator * comb(d, k))
        for k, (u, v) in enumerate(zip(p.a, q.a))
    ))


def z_poly(d: int) -> MonicPoly:
    """The degree-d commutator kernel polynomial (even coefficients only).

    a_2m = C(d, 2m) (d)_m m!/(2m)! (d+1-m)/(d+1), with (d)_m = d!/(d-m)!
    the falling factorial, taken as one integer ratio.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    fact = factorials(d)
    a = [Fraction(0)] * (d + 1)
    a[0] = Fraction(1)
    for m in range(1, d // 2 + 1):
        a[2 * m] = Fraction(
            comb(d, 2 * m) * fact[d] * fact[m] * (d + 1 - m),
            fact[d - m] * fact[2 * m] * (d + 1),
        )
    return MonicPoly(tuple(a))


def commutator_poly(p: MonicPoly, q: MonicPoly) -> MonicPoly:
    """Expected polynomial of the commutator AUBU* - UBU*A, by convolution."""
    d = _common_degree(p, q)
    return boxtimes(boxtimes(boxminus(p, p), boxminus(q, q)), z_poly(d))


def commutator_coefficient(k: int, spec_a, spec_b) -> Fraction:
    """Coefficient-level form of the expected commutator polynomial.

    spec_a and spec_b are the spectra (root tuples) of the two matrices;
    returns the unsigned coefficient E[e_k] of the commutator. For even
    k = 2h it is S_k(a) S_k(b) h! (d+1-h) / (d!^2 (d-k)! (d-h)! (d+1)),
    with S_k the cross sum of symfunc.cross_sum.
    """
    spec_a, spec_b = as_spectrum(spec_a), as_spectrum(spec_b)
    d = len(spec_a)
    if len(spec_b) != d:
        raise ValueError(f"spectrum lengths differ: {d} != {len(spec_b)}")
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    if k == 0:
        return Fraction(1)
    if k % 2:
        return Fraction(0)
    h = k // 2
    fact = factorials(d)
    return (
        cross_sum(spec_a, k)
        * cross_sum(spec_b, k)
        * Fraction(
            fact[h] * (d + 1 - h),
            fact[d] ** 2 * fact[d - k] * fact[d - h] * (d + 1),
        )
    )
