"""Symmetric group: permutations, irreducible characters, inverse Kostka numbers."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .partitions import (
    Partition,
    kostka,
    kostka_rows,
    partitions_of,
    set_partitions_of_type,
    count_set_partitions_of_type,
    hooks_and_contents,
)
from .util import PARTITION_CAP, SET_PARTITION_CAP, check_cap

# Permutations are 0-indexed image tuples: p[i] is where i goes.


def compose(p, q) -> tuple:
    """p after q: (p . q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def inverse_perm(p) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_of_cycle_type(rho) -> tuple:
    """Representative permutation with the given cycle type: consecutive cycles."""
    rho = Partition(rho)
    images = list(range(rho.size))
    start = 0
    for length in rho:
        for offset in range(length):
            images[start + offset] = start + (offset + 1) % length
        start += length
    return tuple(images)


def cycle_type(p) -> Partition:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = p[cur]
            n += 1
        lengths.append(n)
    return Partition._trusted(sorted(lengths, reverse=True))


def perm_sign(p) -> int:
    return -1 if (len(p) - len(cycle_type(p))) % 2 else 1


@lru_cache(maxsize=None)
def _character_rec(lam: tuple, rho: tuple) -> int:
    # Border-strip recursion on the first-row strip length, done on beta
    # sets (strictly decreasing shifted parts) so strip removal is a single
    # element move. Caching is safe: the function is pure.
    if not rho:
        return 1
    strip = rho[0]
    rest = rho[1:]
    m = len(lam)
    beta = tuple(lam[i] + (m - 1 - i) for i in range(m))
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(v - (m - 1 - j) for j, v in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        total += (-1) ** height * _character_rec(new_lam, rest)
    return total


def character(lam, rho) -> int:
    """Irreducible character of the symmetric group at a cycle type."""
    lam, rho = Partition(lam), Partition(rho)
    if lam.size != rho.size:
        raise ValueError(f"sizes differ: |{lam}| != |{rho}|")
    check_cap(lam.size, PARTITION_CAP, "character degree")
    return _character_rec(tuple(lam), tuple(rho))


def dim_irrep(lam) -> int:
    """Dimension by the hook length formula."""
    lam = Partition(lam)
    hooks, _ = hooks_and_contents(lam)
    return factorial(lam.size) // prod(hooks)


def character_table(k: int) -> dict:
    """{(lam, rho): chi^lam(rho)} over all partitions of k."""
    parts = partitions_of(k)
    return {(lam, rho): character(lam, rho) for lam in parts for rho in parts}


def character_table_json(k: int) -> dict:
    """Character table keyed by 'lam|rho' comma strings, for serialization."""
    table = character_table(k)
    return {
        ",".join(map(str, lam)) + "|" + ",".join(map(str, rho)): value
        for (lam, rho), value in table.items()
    }


@lru_cache(maxsize=None)
def _inverse_kostka_matrix(k: int) -> dict:
    # The Kostka matrix is unitriangular in decreasing lex order (which
    # refines dominance), so its inverse is integral and computable by
    # back substitution.
    rows = kostka_rows(k)
    parts = list(rows)
    n = len(parts)
    K = [[rows[lam].get(mu, 0) for mu in parts] for lam in parts]
    X = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for width in range(1, n):
        for i in range(n - width):
            j = i + width
            X[i][j] = -sum(K[i][t] * X[t][j] for t in range(i + 1, j + 1))
    return {(parts[i], parts[j]): X[i][j] for i in range(n) for j in range(n)}


def inverse_kostka(lam, mu) -> int:
    """Entry of the inverse of the Kostka matrix."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError(f"sizes differ: |{lam}| != |{mu}|")
    check_cap(lam.size, PARTITION_CAP, "inverse Kostka size")
    return _inverse_kostka_matrix(lam.size)[(lam, mu)]


def young_subgroup_elements(blocks, k: int):
    """Permutations of {0..k-1} preserving each block of 1-based points."""
    flat = sorted(v for b in blocks for v in b)
    if flat != list(range(1, k + 1)):
        raise ValueError(f"blocks must partition 1..{k}, got {blocks}")
    blocks0 = [tuple(v - 1 for v in b) for b in blocks]
    for arrangement in itertools.product(
        *(itertools.permutations(b) for b in blocks0)
    ):
        images = list(range(k))
        for orig, img in zip(blocks0, arrangement):
            for src, dst in zip(orig, img):
                images[src] = dst
        yield tuple(images)


def c_constant(lam, mu) -> Fraction:
    """Scalar by which the sum of all Young subgroups of shape mu acts on
    the irreducible module lam: (#subgroups * |subgroup| * kostka) / dim."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError(f"sizes differ: |{lam}| != |{mu}|")
    num = (
        count_set_partitions_of_type(mu)
        * prod(factorial(part) for part in mu)
        * kostka(lam, mu)
    )
    return Fraction(num, dim_irrep(lam))


# (mu, sigma) count tables kept; the cconst suite asks for 88 of them.
@lru_cache(maxsize=256)
def _subgroup_cycle_types(mu: Partition, sigma: tuple) -> tuple:
    """((rho, n), ...): over the tau of every Young subgroup of shape mu,
    n of them give sigma . tau the cycle type rho. Shared by every lam."""
    return tuple(Counter(
        cycle_type(compose(sigma, tau))
        for blocks in set_partitions_of_type(mu)
        for tau in young_subgroup_elements(blocks, len(sigma))
    ).items())


def c_constant_bruteforce(lam, mu, sigma) -> Fraction:
    """Character-level check of c_constant at one permutation.

    Sums chi^lam(sigma . tau) over tau in every Young subgroup of shape mu,
    as sum_rho n_rho chi^lam(rho) over the cycle types rho of sigma . tau.
    Returns the ratio against chi^lam(sigma) when that is nonzero, else the
    raw sum (which must then vanish for the scalar statement to hold).
    """
    lam, mu = Partition(lam), Partition(mu)
    k = lam.size
    if mu.size != k or len(sigma) != k:
        raise ValueError("lam, mu, sigma must share one size")
    check_cap(k, SET_PARTITION_CAP, "brute-force subgroup sum size")
    total = sum(
        n * character(lam, rho) for rho, n in _subgroup_cycle_types(mu, tuple(sigma))
    )
    chi = character(lam, cycle_type(sigma))
    if chi:
        return Fraction(total, chi)
    return Fraction(total)
