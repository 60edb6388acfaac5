"""Integer partitions, set partitions, tableaux, and split chains."""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb, factorial

from .util import PARTITION_CAP, SET_PARTITION_CAP, check_cap


class Partition(tuple):
    """Weakly decreasing tuple of positive integers (empty allowed)."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(int(v) for v in parts)
        for i, v in enumerate(parts):
            if v < 1:
                raise ValueError(f"parts must be positive integers, got {parts}")
            if i and parts[i - 1] < v:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts) -> "Partition":
        """A Partition from parts the caller has already made positive ints
        in weakly decreasing order, without checking them again."""
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def transpose(self) -> "Partition":
        """Conjugate shape: column lengths of the diagram."""
        if not self:
            return Partition()
        return Partition(sum(1 for v in self if v > i) for i in range(self[0]))

    def multiplicities(self) -> Counter:
        return Counter(self)

    def pad(self, length: int) -> tuple:
        """Parts extended by zeros to the given length (plain tuple)."""
        if length < len(self):
            raise ValueError(f"cannot pad {self} to length {length}")
        return tuple(self) + (0,) * (length - len(self))


def partitions_of(k: int) -> list[Partition]:
    """All partitions of k, in decreasing lexicographic order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_cap(k, PARTITION_CAP, "partition size")
    out: list[Partition] = []

    def descend(remaining, largest, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(k, k, ())
    return out


def two_column(k: int, p: int) -> Partition:
    """The shape with p rows of 2 and k-2p rows of 1."""
    if not 0 <= 2 * p <= k:
        raise ValueError(f"need 0 <= 2p <= k, got k={k}, p={p}")
    return Partition((2,) * p + (1,) * (k - 2 * p))


def two_row(k: int, p: int) -> Partition:
    """The shape (k-p, p); transpose of two_column(k, p)."""
    if not 0 <= 2 * p <= k:
        raise ValueError(f"need 0 <= 2p <= k, got k={k}, p={p}")
    return Partition((k - p, p)) if p else Partition((k,) if k else ())


def dominance_leq(mu, lam) -> bool:
    """True iff mu is dominated by lam (prefix sums of mu never exceed lam's)."""
    mu, lam = Partition(mu), Partition(lam)
    if mu.size != lam.size:
        raise ValueError(f"sizes differ: |{mu}| != |{lam}|")
    width = max(len(mu), len(lam), 1)
    mu_pad, lam_pad = mu.pad(width), lam.pad(width)
    acc_mu = acc_lam = 0
    for a, b in zip(mu_pad, lam_pad):
        acc_mu += a
        acc_lam += b
        if acc_mu > acc_lam:
            return False
    return True


def distinct_permutations(entries):
    """All distinct orderings of a multiset, each once, in lexicographic order:
    each is the next permutation of the one before (Narayana), without recursion."""
    perm = sorted(entries)
    out = [tuple(perm)]
    while True:
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = perm[:i:-1]
        out.append(tuple(perm))


def set_partitions(k: int) -> list[tuple]:
    """All set partitions of {1..k}; blocks sorted, ordered by their minima."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_cap(k, SET_PARTITION_CAP, "set partition ground-set size")
    out: list[tuple] = []
    blocks: list[list[int]] = []

    def extend(i):
        if i > k:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            extend(i + 1)
            b.pop()
        blocks.append([i])
        extend(i + 1)
        blocks.pop()

    extend(1)
    return out


def set_partition_type(blocks) -> Partition:
    """Cycle-type-style shape: block sizes in decreasing order."""
    return Partition(sorted((len(b) for b in blocks), reverse=True))


def set_partitions_of_type(mu) -> list[tuple]:
    mu = Partition(mu)
    return [p for p in set_partitions(mu.size) if set_partition_type(p) == mu]


def count_set_partitions_of_type(mu) -> int:
    """k! / (prod of part factorials * prod of multiplicity factorials)."""
    mu = Partition(mu)
    n = factorial(mu.size)
    for part in mu:
        n //= factorial(part)
    for mult in mu.multiplicities().values():
        n //= factorial(mult)
    return n


def semistandard_tableaux(shape, weight):
    """SSYT of the given shape and weight, as tuples of row tuples.

    The entry t appears weight[t-1] times. Rows weakly increase, columns
    strictly increase.
    """
    shape = Partition(shape)
    remaining = [int(w) for w in weight]
    if any(w < 0 for w in remaining):
        raise ValueError("weight entries must be nonnegative")
    if sum(remaining) != shape.size:
        return
    if not shape:
        yield ()
        return

    rows = [[0] * r for r in shape]
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]

    def fill(idx):
        if idx == len(cells):
            yield tuple(tuple(r) for r in rows)
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            rows[i][j] = v
            yield from fill(idx + 1)
            remaining[v - 1] += 1

    yield from fill(0)


def _strip_removals(lam: tuple, size: int):
    """The nu inside lam whose skew shape lam/nu is a horizontal strip of
    `size` cells: lam_1 >= nu_1 >= lam_2 >= nu_2 >= ..., trailing zeros cut."""
    target = sum(lam) - size
    rows = (range(low, top + 1) for top, low in zip(lam, lam[1:] + (0,)))
    for nu in itertools.product(*rows):
        if sum(nu) == target:
            yield nu[: len(nu) - nu.count(0)]


@lru_cache(maxsize=None)
def _kostka_cached(lam: tuple, mu: tuple) -> int:
    """K_{lam,mu} by the horizontal-strip rule (Macdonald, Symmetric Functions
    and Hall Polynomials, I.5): the cells holding the largest entry of an
    SSYT form a horizontal strip of mu_last cells, so K_{lam,mu} is the sum
    of K_{nu, mu minus its last part} over the nu that strip leaves. Every
    sub-shape is memoized here."""
    if len(lam) > len(mu):
        return 0
    if not mu:
        return 1
    return sum(_kostka_cached(nu, mu[:-1]) for nu in _strip_removals(lam, mu[-1]))


@lru_cache(maxsize=None)
def kostka_rows(k: int) -> dict:
    """{lam: {mu: K_lam,mu}} over the partitions of k, in partitions_of order.

    Row lam holds the mu that lam dominates; every other Kostka number is 0.
    """
    parts = partitions_of(k)
    return {
        lam: {mu: _kostka_cached(lam, mu) for mu in parts if dominance_leq(mu, lam)}
        for lam in parts
    }


def kostka(lam, mu) -> int:
    """Number of SSYT of shape lam and weight mu."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError(f"sizes differ: |{lam}| != |{mu}|")
    check_cap(lam.size, PARTITION_CAP, "tableau size")
    return _kostka_cached(tuple(lam), tuple(mu))


def hooks_and_contents(lam):
    """Hook lengths and contents per cell, row-major, as two tuples."""
    lam = Partition(lam)
    lam_t = lam.transpose()
    hooks, contents = [], []
    for i, row in enumerate(lam):
        for j in range(row):
            hooks.append((row - j) + (lam_t[j] - i) - 1)
            contents.append(j - i)
    return tuple(hooks), tuple(contents)


def split_chains(k: int, l: int, m: int) -> list[tuple]:
    """Maps [k] -> [m] increasing on 1..k-l and on k-l+1..k, as value tuples."""
    if not 0 <= l <= k:
        raise ValueError(f"need 0 <= l <= k, got k={k}, l={l}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    check_cap(m, PARTITION_CAP, "split-chain codomain")
    heads = list(itertools.combinations(range(1, m + 1), k - l))
    tails = list(itertools.combinations(range(1, m + 1), l))
    return [h + t for h in heads for t in tails]


def chain_multiplicity(i_map, m: int) -> tuple:
    """Preimage sizes |i^{-1}(j)| for j = 1..m, a weak composition."""
    counts = [0] * m
    for v in i_map:
        counts[v - 1] += 1
    return tuple(counts)


def split_chain_type_count(k: int, l: int, q: int) -> int:
    """Split chains [k] -> [k] hitting q values twice and k-2q values once."""
    if not 0 <= 2 * q <= k:
        raise ValueError(f"need 0 <= 2q <= k, got k={k}, q={q}")
    target = Partition((2,) * q + (1,) * (k - 2 * q))
    total = 0
    for i_map in split_chains(k, l, k):
        counts = chain_multiplicity(i_map, k)
        shape = Partition(sorted((c for c in counts if c), reverse=True))
        if shape == target:
            total += 1
    return total


def split_chain_count_formula(k: int, l: int, q: int) -> int:
    """binom(k,l) binom(k-l,q) binom(l,q), the closed split-chain count."""
    return comb(k, l) * comb(k - l, q) * comb(l, q)
