"""Symmetric function values and basis transitions in exact arithmetic.

Values are always taken at a finite spectrum (a tuple of rationals); the
monomial/elementary transition matrices are assembled from Kostka numbers
and their inverses rather than hard-coded tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

from .partitions import (
    Partition,
    distinct_permutations,
    partitions_of,
    kostka_rows,
    hooks_and_contents,
)
from .symgroup import dim_irrep, inverse_kostka
from .util import (
    DEGREE_CAP,
    PARTITION_CAP,
    POWER_TABLE_CAP,
    as_tuple,
    check_cap,
    check_subset_sum,
    clear_denominators,
    factorials,
    linear_product,
    to_fraction,
)


def _spectrum_entries(values) -> tuple:
    """The values as a tuple of Fractions, possibly empty; a string, a mapping
    or a length past DEGREE_CAP is refused before any entry is converted."""
    values = as_tuple(values, "a list of rationals")
    check_cap(len(values), DEGREE_CAP, "polynomial degree")
    return tuple(to_fraction(v) for v in values)


def as_spectrum(values) -> tuple:
    """The values as a nonempty tuple of Fractions: the one intake of every
    function that takes a spectrum, capped before any entry is converted."""
    spec = _spectrum_entries(values)
    if not spec:
        raise ValueError("spectrum must be nonempty")
    return spec


def as_spectrum_pair(spec_a, spec_b) -> tuple:
    """Both spectra through as_spectrum, refused unless their lengths agree."""
    spec_a, spec_b = as_spectrum(spec_a), as_spectrum(spec_b)
    if len(spec_a) != len(spec_b):
        raise ValueError(f"spectrum lengths differ: {len(spec_a)} != {len(spec_b)}")
    return spec_a, spec_b


def scaled_elementary(x) -> tuple:
    """(L, E) with L the lcm of the denominators and E_k = L^k e_k(x) in ints:
    the coefficients of prod (1 + L x_i t), from util.linear_product."""
    scale, ints = clear_denominators(x)
    return scale, linear_product(ints)


def cross_terms(x) -> tuple:
    """(L, F) with F_i = (d-i)! E_i in ints, E_i = L^i e_i(x) from
    scaled_elementary: the terms the cross sums S_k of x are formed from."""
    x = as_spectrum(x)
    d = len(x)
    fact = factorials(d)
    scale, e = scaled_elementary(x)
    return scale, [fact[d - i] * v for i, v in enumerate(e)]


def cross_pair(terms, k: int) -> tuple:
    """S_k as (num, den) from the cross_terms (L, F) of x: num is
    sum_i (-1)^i F_i F_{k-i} and den is L^k, at even k. The terms i and
    k-i are equal, so each pair is formed once."""
    scale, f = terms
    h = k // 2
    total = 0
    for i in range(h):
        term = f[i] * f[k - i]
        total += -term if i % 2 else term
    middle = f[h] * f[h]
    return 2 * total + (-middle if h % 2 else middle), scale**k


def cross_sum(x, k: int) -> Fraction:
    """S_k = sum_i (-1)^i (d-i)!(d-k+i)! e_i(x) e_{k-i}(x), with d = len(x).

    With the normalized coefficients c_i = e_i (d-i)!/d! of Marcus,
    Spielman and Srivastava, S_k is (d!)^2 times the x^k coefficient of
    c(x) c(-x): zero for odd k, and (d!)^2 at k = 0, both returned before
    any e_i is formed. Otherwise it is cross_pair on the integers
    (d-i)! L^i e_i, divided by L^k once.
    """
    x = as_spectrum(x)
    d = len(x)
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    if k % 2:
        return Fraction(0)
    if k == 0:
        return Fraction(factorials(d)[d] ** 2)
    return Fraction(*cross_pair(cross_terms(x), k))


def left_weight(fact, k: int) -> tuple:
    """(num, den) = (h!, k! (d-k)! (d-h)!), h = k // 2, from the table
    fact = factorials(d): L_k(x) = S_k(x) num/den."""
    d, h = len(fact) - 1, k // 2
    return fact[h], fact[k] * fact[d - k] * fact[d - h]


def right_weight(fact, k: int) -> tuple:
    """(num, den) = (k! (d+1-h), (d+1)! d!), h = k // 2, from the table
    fact = factorials(d): R_k(x) = S_k(x) num/den."""
    d, h = len(fact) - 1, k // 2
    return fact[k] * (d + 1 - h), (d + 1) * fact[d] ** 2


def left_factor(x, k: int) -> Fraction:
    """L_k(x) = S_k(x) h! / (k! (d-k)! (d-h)!), h = k // 2: the A factor of
    E[e_k] = L_k(A) R_k(B), 1 at k = 0 and 0 at odd k. The subset-sum
    identity of oracle.identity_leftdep restates it."""
    return cross_sum(x, k) * Fraction(*left_weight(factorials(len(x)), k))


def right_factor(x, k: int) -> Fraction:
    """R_k(x) = S_k(x) k! (d+1-h) / ((d+1)! d!), h = k // 2: the B factor,
    1 at k = 0 and 0 at odd k. The character expansion of
    oracle.identity_rightdep restates it."""
    return cross_sum(x, k) * Fraction(*right_weight(factorials(len(x)), k))


def elementary_symmetric(x) -> tuple:
    """e_0..e_d of the values, from scaled_elementary; (1,) for no values."""
    scale, e = scaled_elementary(_spectrum_entries(x))
    return tuple(Fraction(v, scale**k) for k, v in enumerate(e))


def _cleared_powers(x, top: int) -> tuple:
    """(L, P): L clears the denominators of x, P[i][e] = (L x_i)^e for e <= top.

    A table past POWER_TABLE_CAP bits is refused before it is built; each
    power v^e counts e bits per bit of v, and at least e."""
    scale, ints = clear_denominators(x)
    bits = top * (top + 1) // 2 * sum(max(v.bit_length(), 1) for v in ints)
    check_cap(bits, POWER_TABLE_CAP, f"powers 0..{top} of {len(ints)} values: bits")
    return scale, [[v**e for e in range(top + 1)] for v in ints]


def check_monomial_sum(lam: Partition, d: int):
    """Refuse eval_monomial of lam at d values past SUBSET_SUM_CAP terms:
    C(d, len(lam)) row subsets times the distinct orderings of lam's parts."""
    orderings = factorial(lam.length) // prod(map(factorial, lam.multiplicities().values()))
    check_subset_sum(d, lam.length, orderings, f"monomial sum of {lam}")


def eval_monomial(lam, x) -> Fraction:
    """Sum of all distinct monomials with exponent multiset lam.

    Each monomial puts the distinct orderings of lam's parts on one row
    subset of size len(lam), so the sum runs over those subsets and
    orderings, on the spectrum cleared to ints, and is divided by L^|lam|.
    Sums of more than SUBSET_SUM_CAP terms are refused before either is
    listed.
    """
    lam = Partition(lam)
    x = as_spectrum(x)
    if lam.length > len(x):
        return Fraction(0)
    check_monomial_sum(lam, len(x))
    scale, powers = _cleared_powers(x, lam[0] if lam else 0)
    orders = distinct_permutations(lam)
    total = sum(prod([row[e] for row, e in zip(rows, expo)])
                for rows in itertools.combinations(powers, lam.length) for expo in orders)
    return Fraction(total, scale**lam.size)


def eval_quasisym(comp, x) -> Fraction:
    """Quasisymmetric monomial: ordered exponents on an increasing index chain.

    comp may contain zeros; a zero exponent still occupies an index slot.
    The sum runs on the spectrum cleared to ints and is divided by L^|comp|;
    sums of more than SUBSET_SUM_CAP terms are refused before it starts.
    """
    comp = tuple(int(c) for c in comp)
    if any(c < 0 for c in comp):
        raise ValueError(f"exponents must be nonnegative, got {comp}")
    x = as_spectrum(x)
    if len(comp) > len(x):
        raise ValueError(f"composition length {len(comp)} exceeds {len(x)} values")
    check_subset_sum(len(x), len(comp), 1, f"quasisymmetric sum of {comp}")
    scale, powers = _cleared_powers(x, max(comp, default=0))
    total = 0
    for chain in itertools.combinations(powers, len(comp)):
        term = 1
        for row, e in zip(chain, comp):
            if e:
                term *= row[e]
        total += term
    return Fraction(total, scale ** sum(comp))


def e_to_m(lam) -> dict:
    """e_lam in the monomial basis: {mu: nonzero int coefficient of m_mu}.

    The coefficient is sum_nu K_nu,lam K_nu',mu, read from kostka_rows.
    """
    lam = Partition(lam)
    k = lam.size
    check_cap(k, PARTITION_CAP, "transition degree")
    rows = kostka_rows(k)
    totals = dict.fromkeys(rows, 0)
    for nu, row in rows.items():
        outer = row.get(lam)
        if outer:
            for mu, inner in rows[nu.transpose()].items():
                totals[mu] += outer * inner
    return {mu: total for mu, total in totals.items() if total}


def m_to_e(lam) -> dict:
    """m_lam in the elementary basis: {mu: nonzero int coefficient of e_mu}.

    The coefficient is sum_nu K^-1_lam,nu' K^-1_mu,nu, over the nu whose
    first factor is nonzero.
    """
    lam = Partition(lam)
    k = lam.size
    check_cap(k, PARTITION_CAP, "transition degree")
    parts = partitions_of(k)
    outer = [(nu, x) for nu in parts if (x := inverse_kostka(lam, nu.transpose()))]
    coeffs = {}
    for mu in parts:
        total = sum(x * inverse_kostka(mu, nu) for nu, x in outer)
        if total:
            coeffs[mu] = total
    return coeffs


def schur_principal(lam, d: int) -> Fraction:
    """Schur function at d ones, by the hook content formula."""
    lam = Partition(lam)
    if d < 0:
        raise ValueError("d must be nonnegative")
    _, contents = hooks_and_contents(lam)
    num = dim_irrep(lam) * prod((Fraction(d + c) for c in contents), start=Fraction(1))
    return num / factorial(lam.size)
