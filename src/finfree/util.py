"""Shared plumbing: enumeration caps, exact-rational coercion, denominator
clearing, factorials."""

from fractions import Fraction
from functools import lru_cache
from math import lcm

# Limits of the enumeration guards. Partition and tableau searches grow
# super-polynomially and set partitions grow like Bell numbers. A guard whose
# function takes a `cap` argument (one the CLI's --cap-k or --cap-n reaches)
# defaults to PARTITION_CAP or IMMANANT_CAP; every other guard is fixed.
PARTITION_CAP = 10
SET_PARTITION_CAP = 8
MOMENT_CAP = 6
DIMENSION_CAP = 7
IMMANANT_CAP = 9

MC_CHUNK_SIZE = 4096  # Haar samples per Monte Carlo chunk, unless a caller picks another


class CapExceededError(ValueError):
    """Raised when an enumeration would exceed its configured cap."""


def check_cap(value, cap, what):
    if value > cap:
        raise CapExceededError(f"{what} {value} exceeds cap {cap}")


def to_fraction(value):
    """Coerce an int, Fraction, or 'p/q' string to Fraction.

    Floats are refused, and so are booleans, which Python counts as ints.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"refusing {value!r}: exact rationals only")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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
