"""Haar-unitary Weingarten functions and exact matrix-entry moments."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import Partition, partitions_of
from .symgroup import character, cycle_type, dim_irrep, inverse_perm, compose
from .symfunc import schur_principal
from .util import MOMENT_CAP, PARTITION_CAP, check_cap, to_fraction


@dataclass(frozen=True)
class ClassFunction:
    """A function on cycle types of S_k, with exact rational values."""

    k: int
    values: dict

    def __post_init__(self):
        clean = {}
        for rho, val in self.values.items():
            rho = Partition(rho)
            if rho.size != self.k:
                raise ValueError(f"cycle type {rho} has size != {self.k}")
            clean[rho] = to_fraction(val)
        if set(clean) != set(partitions_of(self.k)):
            raise ValueError("values must cover every cycle type exactly once")
        object.__setattr__(self, "values", clean)

    def __call__(self, rho) -> Fraction:
        return self.values[tuple(rho)]

    __hash__ = None

    def to_json_dict(self, d: int) -> dict:
        values = [
            {"cycle_type": list(rho), "rational": str(v)}
            for rho, v in sorted(self.values.items(), reverse=True)
        ]
        return {"k": self.k, "d": d, "values": values}


@lru_cache(maxsize=None)
def weingarten(k: int, d: int) -> ClassFunction:
    """Weingarten function of S_k for d x d unitaries.

    Character expansion restricted to shapes with at most d rows; for
    d >= k that is the full sum and the genuine Haar moment weight.
    """
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    check_cap(k, PARTITION_CAP, "Weingarten order")
    shapes = [
        (lam, Fraction(dim_irrep(lam) ** 2) / schur_principal(lam, d))
        for lam in partitions_of(k)
        if lam.length <= d
    ]
    values = {}
    for rho in partitions_of(k):
        total = sum((w * character(lam, rho) for lam, w in shapes), Fraction(0))
        values[rho] = total / factorial(k) ** 2
    return ClassFunction(k, values)


def integrate_moment(i, j, i2, j2, d: int) -> Fraction:
    """Exact Haar moment E[ u_{i1 j1} ... u_{ik jk} conj(u_{i'1 j'1}) ... ].

    Indices are 1-based rows i, columns j for the plain factors and i2, j2
    for the conjugated ones. Sums Wg(pi^-1 sigma) over all index-matching
    permutation pairs.
    """
    i, j, i2, j2 = tuple(i), tuple(j), tuple(i2), tuple(j2)
    if len(i) != len(j) or len(i2) != len(j2):
        raise ValueError("row and column index lists must have equal length")
    for idx in (*i, *j, *i2, *j2):
        if not 1 <= idx <= d:
            raise ValueError(f"index {idx} out of range 1..{d}")
    k = len(i)
    if k != len(i2):
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    check_cap(k, MOMENT_CAP, "moment order")
    wg = weingarten(k, d)
    perms = list(itertools.permutations(range(k)))
    pis = [p for p in perms if all(i[t] == i2[p[t]] for t in range(k))]
    sigmas = [s for s in perms if all(j[t] == j2[s[t]] for t in range(k))]
    total = Fraction(0)
    for p in pis:
        p_inv = inverse_perm(p)
        for s in sigmas:
            total += wg(cycle_type(compose(p_inv, s)))
    return total
