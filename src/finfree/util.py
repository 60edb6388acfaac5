"""Shared plumbing: size caps, exact-rational coercion, denominator
clearing, factorials, integer determinants, and the two big-int products
by Kronecker substitution."""

import re
import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod

# Limits of the size guards. Partition and tableau searches grow
# super-polynomially and set partitions grow like Bell numbers; the exact
# commutator costs about ten times more per doubling of the degree. Every
# guard checks one of these fixed limits, and no caller can raise it.
PARTITION_CAP = 10
SET_PARTITION_CAP = 8
MOMENT_CAP = 6
DIMENSION_CAP = 7
IMMANANT_CAP = 9
DEGREE_CAP = 1000  # polynomial degree and spectrum length

MC_CHUNK_SIZE = 4096  # Haar samples per Monte Carlo chunk
# A Monte Carlo run costs about 1.4e-8 s of one core per unit of n*d^3 at
# d >= 16, more per unit at small d, and its arrays peak at about 11 bytes
# per entry of min(n, MC_CHUNK_SIZE)*d^2 at d = 32 (15 at d = 16, 24 at
# d = 8) however many chunks it draws (27 at d = 32 for mc_conjugation_mean,
# whose values are d^2 per sample; measurements in CHANGES.md). So an
# accepted run takes at most about 35 s at any d, and at most about 110 MiB
# of arrays (d <= 32).
MC_WORK_CAP = 2**28
MC_CHUNK_ENTRIES_CAP = 2**22
# Terms of an enumerated subset sum: C(d, l) subsets times the terms each
# adds. Process time per term at the largest d under 2^20 terms, on spectra
# of p/q entries (|p| <= 9, q <= 4) and one CPU of a 2-vCPU x86 host, one
# run each: eval_monomial 0.59-0.70 us for l <= 4 parts, 0.85 us at l = 6,
# 0.96 us at l = 10 and 1.22 us at l = 14; eval_quasisym 0.40-0.82 us;
# identity_leftdep, k + 1 terms per subset, 1.49 us at k = 2 and 0.81-0.97
# us at k = 4 to 14. identity_rightdep sums k/2 + 1 monomials and took up to
# 1.64 s. A cap of 2^19 keeps every accepted sum under about 0.8 s and
# accepts the C(1000, 2) pairs of a spectrum at the degree cap.
SUBSET_SUM_CAP = 2**19
# Bits of the table of powers (L x_i)^e, e <= top, that eval_monomial and
# eval_quasisym read: top(top+1)/2 times the summed bit lengths of the L x_i
# (at least 1 each), a bound on the table's digits that also counts its
# entries. Building one, on one CPU of a 2-vCPU x86 host (process time, peak
# RSS rise, one run each; "int" entries are 1..999, "p/q" as above):
#
#   d     top   entries  bits     time      RSS
#   1000   30   int      2^22.0   0.007 s    1.6 MiB
#   1000   60   int      2^24.0   0.021 s    4.4 MiB
#   1000   60   p/q      2^23.2   0.020 s    3.4 MiB
#   1000  100   int      2^25.4   0.050 s    8.9 MiB
#   1000  200   int      2^27.3   0.167 s   29.5 MiB
#   1000  300   int      2^28.5   0.367 s   60.9 MiB
#    100 1000   int      2^28.1   0.283 s   37.1 MiB
#     10 3000   int      2^27.0   0.121 s   13.0 MiB
#
# The package's own sums take top <= 2; top 10 at d = 1000 is 2^19 bits. A cap
# of 2^24 keeps an accepted table under about 5 MiB and 0.03 s.
POWER_TABLE_CAP = 2**24
# A decimal string as Fraction reads it: digits, fraction part, exponent.
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?\d[\d_]*))?\s*")


class CapExceededError(ValueError):
    """Raised when a size is past the fixed limit of its guard."""


def check_cap(value, cap, what):
    if value > cap:
        raise CapExceededError(f"{what} {value} exceeds cap {cap}")


def check_mc_caps(d: int, n: int):
    """Refuse a Monte Carlo run of n samples at dimension d below its floors
    (n >= 2, so every band has a standard error, and d >= 1), or past its
    limits: memory first (one chunk's entries), then time (n*d^3)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 1:
        raise ValueError("need d >= 1")
    check_cap(min(n, MC_CHUNK_SIZE) * d * d, MC_CHUNK_ENTRIES_CAP,
              f"Monte Carlo chunk at n={n}, d={d}: min(n, {MC_CHUNK_SIZE})*d^2")
    check_cap(n * d**3, MC_WORK_CAP, f"Monte Carlo work at n={n}, d={d}: n*d^3")


def check_subset_sum(d: int, size: int, per_subset: int, what: str):
    """Refuse a sum over the C(d, size) subsets of d values, per_subset terms
    each, past SUBSET_SUM_CAP terms, before any subset is enumerated."""
    check_cap(comb(d, size) * per_subset, SUBSET_SUM_CAP,
              f"{what}: C({d}, {size})*{per_subset} terms")


def as_tuple(values, what: str) -> tuple:
    """values as a tuple. A string, a mapping or a non-iterable is refused
    with TypeError(f"need {what}"): iterating it would not give its entries."""
    if isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable):
        raise TypeError(f"need {what}")
    return tuple(values)


def to_fraction(value):
    """Coerce an int, Fraction, or 'p/q' or decimal string (such as '2.5e-3')
    to Fraction.

    Floats are refused, and so are booleans, which Python counts as ints.
    Fraction forms 10^|e| for an exponent e without Python's int/str digit
    limit, so a decimal string D 10^(e-s) (digits D, s of them after the
    point) whose numerator or denominator would pass that limit is refused.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"refusing {value!r}: exact rationals only")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match, limit = _DECIMAL.fullmatch(value), sys.get_int_max_str_digits()
        if match and limit:
            whole, frac, exp = (part.replace("_", "") for part in match.groups(""))
            shift = int(exp or 0) - len(frac)
            digits = max(len(whole + frac) + max(shift, 0), 1 + max(-shift, 0))
            if digits > limit:
                raise ValueError(f"refusing a decimal string with {digits} digits in its "
                                 f"numerator or denominator, past Python's {limit}-digit limit")
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {value!r}") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def clear_denominators(values) -> tuple:
    """(L, ints): L the lcm of the denominators and ints[i] = L * values[i].

    values is a sequence of Fractions or ints. A homogeneous polynomial of
    degree n in the values is the same polynomial in the ints over L^n.
    """
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


@lru_cache(maxsize=None)
def factorials(n: int) -> tuple:
    """The table (0!, 1!, ..., n!)."""
    table = [1]
    for m in range(1, n + 1):
        table.append(table[-1] * m)
    return tuple(table)


def bareiss_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination (Bareiss).

    Every division is exact. A zero pivot is swapped with a row below it.
    """
    a = [list(row) for row in rows]
    m = len(a)
    sign, prev = 1, 1
    for k in range(m - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, m) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[-1][-1] if m else 1


# Kronecker substitution. A list of signed ints c_i is one big int
# sum_i c_i 2^(8 nbytes i), each c_i in a slot of nbytes bytes with
# |c_i| < 2^(8 nbytes - 1). Adding half a slot's range, 2^(8 nbytes - 1),
# to every c_i makes it an unsigned digit, so biased slots hold no borrows:
# one to_bytes pass packs a list, one from_bytes pass reads it back, and
# subtracting the summed half-ranges (_slot_bias) takes the bias out.
# polynomials and symfunc pass and receive lists of ints; only this module
# knows the slots.


def _slot_bytes(bound: int) -> int:
    """Bytes per slot that hold any signed int of absolute value at most bound."""
    return (bound.bit_length() + 1 + 7) // 8


def _slot_bias(nbytes: int, n: int) -> int:
    """Half the range of each of n slots: sum_{i < n} 2^(8 nbytes - 1) 2^(8 nbytes i)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def _pack(coeffs, nbytes: int) -> int:
    """sum_i c_i 2^(8 nbytes i) for signed ints c_i that fit their slots."""
    half = _slot_bias(nbytes, 1)
    raw = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _slot_bias(nbytes, len(coeffs))


def _signed_slots(packed: int, nbytes: int, n: int) -> list:
    """The n low slots of packed as signed ints; higher slots are dropped."""
    half = _slot_bias(nbytes, 1)
    bias = _slot_bias(nbytes, n)
    width = 8 * nbytes * n
    raw = ((packed + bias) & ((1 << width) - 1)).to_bytes(nbytes * n, "little")
    return [
        int.from_bytes(raw[i : i + nbytes], "little") - half
        for i in range(0, nbytes * n, nbytes)
    ]


def packed_product(f, g, n: int) -> list:
    """The first n coefficients of the product of the int lists f and g, by
    one big-int product.

    Each operand is divided by its content (the gcd of its coefficients)
    and its primitive part is packed, in slots wide enough for any
    coefficient of the primitive parts' product; the coefficients read back
    are multiplied by the two contents. The normalized MSS numerators share
    large factorial factors, so this keeps the slots narrow. When g is the
    same list as f, its content and packed int are f's, and the product of
    one int with itself takes the big-int squaring path.
    """
    cf = gcd(*f)
    cg = cf if g is f else gcd(*g)
    if not (cf and cg):
        return [0] * n
    bound = min(n, len(f), len(g)) * max(map(abs, f)) * max(map(abs, g)) // (cf * cg)
    nbytes = _slot_bytes(bound)
    packed = _pack(f if cf == 1 else [v // cf for v in f], nbytes)
    other = packed if g is f else _pack(g if cg == 1 else [v // cg for v in g], nbytes)
    out = _signed_slots(packed * other, nbytes, n)
    content = cf * cg
    return out if content == 1 else [v * content for v in out]


def linear_product(values) -> list:
    """The coefficients of prod (1 + v t) over the ints v, lowest first.

    The product is evaluated at t = 2^(8 nbytes) by shift-and-add on one
    big int. Every |coefficient| is at most prod (1 + |v|), which sizes the
    slots.
    """
    nbytes = _slot_bytes(prod(1 + abs(v) for v in values))
    shift = 8 * nbytes
    packed = 1
    for v in values:
        packed += (packed * v) << shift
    return _signed_slots(packed, nbytes, len(values) + 1)
