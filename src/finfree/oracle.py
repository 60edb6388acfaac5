"""Independent exact oracles for the convolution and Weingarten layers.

The brute force reuses nothing of the closed-form commutator coefficient:
the expected characteristic polynomial is recomputed from first principles
(minor expansion plus entrywise Haar moments), and the Weingarten function
is re-derived from the orthogonality relations of the unitary group, with
no character, so agreement with the fast layer is meaningful evidence. The
factor identities check the closed form's own two factors.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .partitions import partitions_of, two_column
from .symfunc import (
    as_spectrum,
    as_spectrum_pair,
    check_monomial_sum,
    eval_monomial,
    left_factor,
    right_factor,
    schur_principal,
)
from .symgroup import (
    c_constant,
    compose,
    cycle_type,
    dim_irrep,
    inverse_perm,
    perm_sign,
)
from .weingarten import ClassFunction, weingarten
from .util import (
    DIMENSION_CAP,
    PARTITION_CAP,
    bareiss_det,
    check_cap,
    check_subset_sum,
    clear_denominators,
    linear_product,
    to_fraction,
)


@lru_cache(maxsize=None)
def _derangement_classes(k: int) -> tuple:
    """(rhos, classes): rhos = partitions_of(k), and one (sign, members,
    counts) per cycle type of a derangement sigma of S_k.

    members holds the images of every sigma of the type. counts holds
    (i, j, n): n permutations tau have ct(sigma . tau) = rhos[i] and
    ct(tau) = rhos[j]. The counts are taken at one member; conjugating sigma
    and tau by one permutation keeps both cycle types, so every member has
    the same table.
    """
    rhos = partitions_of(k)
    index = {rho: i for i, rho in enumerate(rhos)}
    type_of = {p: index[cycle_type(p)] for p in itertools.permutations(range(k))}
    members = {}
    for p, t in type_of.items():
        if all(p[i] != i for i in range(k)):
            members.setdefault(t, []).append(p)
    classes = []
    for group in members.values():
        sigma = group[0]
        counts = Counter((type_of[compose(sigma, tau)], t) for tau, t in type_of.items())
        classes.append((
            perm_sign(sigma),
            tuple(group),
            tuple((i, j, n) for (i, j), n in counts.items()),
        ))
    return rhos, tuple(classes)


def brute_force_expected_ek(spec_a, spec_b, k: int, wg_fn=weingarten) -> Fraction:
    """E[e_k] of A U B U* - U B U* A by minor expansion and Haar moments.

    Expands e_k into principal k x k minors, each minor into permutations
    sigma, and each product of conjugated-matrix entries into a sum over
    tau of Wg(sigma . tau) times prod b_{p(i)} over the maps p: S -> [d]
    fixed by tau; those maps fold into a product of power sums over tau's
    cycles. The tau sum depends only on the cycle type of sigma, so the
    signed minor terms prod_i (a_i - a_sigma(i)) are summed per class, and
    each class sum meets its tau sum once. Both spectra are cleared to
    ints, and so is the Weingarten table, which is injectable so that a
    corrupted table must break the agreement with the closed forms.
    """
    return brute_force_coefficients(spec_a, spec_b, (k,), wg_fn)[k]


def brute_force_coefficients(spec_a, spec_b, ks, wg_fn=weingarten) -> dict:
    """{k: E[e_k]} for each k of ks, by brute_force_expected_ek's expansion,
    with both spectra converted and cleared, and B's power sums formed, once."""
    spec_a, spec_b = as_spectrum_pair(spec_a, spec_b)
    d = len(spec_a)
    ks = tuple(ks)
    for k in ks:
        if not 0 <= k <= d:
            raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    check_cap(d, DIMENSION_CAP, "brute-force dimension")
    a_scale, a = clear_denominators(spec_a)
    b_scale, b = clear_denominators(spec_b)
    pb = [sum(v**j for v in b) for j in range(1, max(ks, default=0) + 1)]
    return {k: _brute_force(a_scale * b_scale, a, pb, k, wg_fn) for k in ks}


def _brute_force(scale: int, a, pb, k: int, wg_fn) -> Fraction:
    """brute_force_expected_ek at k from A cleared to ints a, the power sums
    pb of B cleared to ints, and the product scale of the two clearings."""
    if k == 0:
        return Fraction(1)
    rhos, classes = _derangement_classes(k)
    wg = wg_fn(k, len(a))
    wg_scale, wg_ints = clear_denominators([wg(rho) for rho in rhos])
    pb_by_type = [prod(pb[c - 1] for c in rho) for rho in rhos]
    class_sums = [0] * len(classes)
    for sub in itertools.combinations(a, k):
        for c, (_, members, _) in enumerate(classes):
            acc = 0
            for sigma in members:
                term = 1
                for i, s in enumerate(sigma):
                    term *= sub[i] - sub[s]
                    if not term:
                        break
                acc += term
            class_sums[c] += acc
    total = sum(
        sign * class_sum * sum(n * wg_ints[i] * pb_by_type[j] for i, j, n in counts)
        for class_sum, (sign, _, counts) in zip(class_sums, classes)
        if class_sum
    )
    return Fraction(total, wg_scale * scale**k)


def weingarten_gram_inverse(k: int, d: int) -> ClassFunction:
    """Weingarten function from the orthogonality relations of U U* = I.

    Collins and Matsumoto (ALEA 14, 2017): with n in a cycle of length r of
    sigma in S_n, d Wg(sigma) + sum_{i<n} Wg((i n) sigma) is Wg_{n-1}(sigma
    without n) if r = 1, else 0. On cycle types, (i n) splits that cycle into
    (j, r-j), or merges it with another cycle of length s, in s ways. Taking
    r the last part of each cycle type gives one integer system per order
    n = 1..k, solved by Cramer's rule; it reads no character and is
    invertible for d >= k.
    """
    if d < k:
        raise ValueError(f"need d >= k for an invertible system, got d={d} < k={k}")
    check_cap(k, PARTITION_CAP, "Weingarten oracle order")
    wg = {(): Fraction(1)}
    for n in range(1, k + 1):
        classes = partitions_of(n)
        mat = []
        for i, (*rest, r) in enumerate(classes):
            moves = [(rest + [j, r - j], 1) for j in range(1, r)]
            moves += [(rest[:t] + rest[t + 1:] + [r + s], s) for t, s in enumerate(rest)]
            row = [0] * len(classes)
            row[i] = d
            for parts, weight in moves:
                row[classes.index(tuple(sorted(parts, reverse=True)))] += weight
            mat.append(row)
        scale, rhs = clear_denominators([wg[mu[:-1]] if mu[-1] == 1 else 0 for mu in classes])
        det = bareiss_det(mat)
        if not det:
            raise ValueError("singular system")
        wg = {
            mu: Fraction(bareiss_det([row[:j] + [b] + row[j + 1:] for row, b in zip(mat, rhs)]),
                         det * scale)
            for j, mu in enumerate(classes)
        }
    return ClassFunction(k, wg)


def gram_identity_residual(k: int, d: int, wg_fn=weingarten) -> Fraction:
    """Max deviation of sum_sigma Wg(pi^-1 sigma) d^cycles(sigma^-1 tau) from
    the identity matrix, over all pairs of cycle-type representatives."""
    wg = wg_fn(k, d)
    perms = list(itertools.permutations(range(k)))
    reps = {}
    for p in perms:
        reps.setdefault(cycle_type(p), p)
    worst = Fraction(0)
    for pi in reps.values():
        pi_inv = inverse_perm(pi)
        for tau in reps.values():
            acc = Fraction(0)
            for sigma in perms:
                w = wg(cycle_type(compose(pi_inv, sigma)))
                cycles = len(cycle_type(compose(inverse_perm(sigma), tau)))
                acc += w * Fraction(d) ** cycles
            target = Fraction(1) if pi == tau else Fraction(0)
            worst = max(worst, abs(acc - target))
    return worst


def identity_leftdep(spec_a, k: int) -> tuple:
    """Both sides of the subset-sum identity for the A-dependent factor.

    Raw side: sum_l (-1)^l / binom(k,l) sum_{|S|=k} e_{k-l}(A_S) e_l(A_S),
    on A cleared to ints L A: each subset's L^j e_j are the coefficients of
    util.linear_product, so every product is over L^k, divided out once.
    The k + 1 products of each subset count against SUBSET_SUM_CAP.
    Closed side: symfunc.left_factor, the factor the closed commutator
    coefficient multiplies.
    """
    spec_a = as_spectrum(spec_a)
    closed = left_factor(spec_a, k)  # refuses k outside 0..d
    check_subset_sum(len(spec_a), k, k + 1, f"subset-sum identity at k={k}")
    scale, ints = clear_denominators(spec_a)
    subset_acc = [0] * (k + 1)
    for subset in itertools.combinations(ints, k):
        e = linear_product(subset)
        for l in range(k + 1):
            subset_acc[l] += e[k - l] * e[l]
    raw = sum(
        (Fraction((-1) ** l * acc, comb(k, l)) for l, acc in enumerate(subset_acc)),
        Fraction(0),
    )
    return raw / scale**k, closed


def identity_rightdep(spec_b, k: int) -> tuple:
    """Both sides of the character-expansion identity for the B factor.

    Raw side: (1/k!) sum_p (-1)^p dim(2_k^p)^2 / s_{2_k^p}(1^d)
    sum_q C(2_k^p, 2_k^q) q! (k-2q)! m_{2_k^q}(B). Closed side:
    symfunc.right_factor, the factor the closed commutator coefficient
    multiplies.
    """
    spec_b = as_spectrum(spec_b)
    d = len(spec_b)
    closed = right_factor(spec_b, k)  # refuses k outside 0..d
    shapes = [two_column(k, q) for q in range(k // 2 + 1)]
    for lam in shapes:  # every monomial sum is refused before the first is taken
        check_monomial_sum(lam, d)
    monomials = [eval_monomial(lam, spec_b) for lam in shapes]
    raw = Fraction(0)
    for p in range(k // 2 + 1):
        lam = two_column(k, p)
        inner = Fraction(0)
        for q in range(p + 1):
            inner += (
                c_constant(lam, two_column(k, q))
                * factorial(q)
                * factorial(k - 2 * q)
                * monomials[q]
            )
        raw += (
            (-1) ** p
            * Fraction(dim_irrep(lam) ** 2)
            / schur_principal(lam, d)
            * inner
        )
    raw /= factorial(k)
    return raw, closed


def falling(n, j: int) -> Fraction:
    """Falling factorial n (n-1) ... (n-j+1)."""
    n = to_fraction(n)
    out = Fraction(1)
    for t in range(j):
        out *= n - t
    return out


def gen_binom(a, m: int) -> Fraction:
    """Generalized binomial coefficient: falling(a, m) / m! for integer m."""
    if m < 0:
        return Fraction(0)
    return falling(a, m) / factorial(m)


def alternating_binomial_pair(n: int, y: int) -> tuple:
    """Both sides of sum_s (-1)^s binom(2n,s)/binom(2n+2y, s+y) =
    binom(2n,n) / (binom(y+n,n) binom(2y+2n, y+n)), for integer y >= 0."""
    if n < 1 or y < 0:
        raise ValueError("need n >= 1 and y >= 0")
    lhs = sum(
        (
            Fraction((-1) ** s * comb(2 * n, s), comb(2 * n + 2 * y, s + y))
            for s in range(2 * n + 1)
        ),
        Fraction(0),
    )
    rhs = Fraction(comb(2 * n, n), comb(y + n, n) * comb(2 * y + 2 * n, y + n))
    return lhs, rhs


def rothe_hagen_pair(n: int, y) -> tuple:
    """Both sides of sum_s n/(n+s) binom(n+s,s) binom(y-s,n-s) = binom(n+y,n).

    y may be any rational; the binomials in y are generalized ones.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    y = to_fraction(y)
    lhs = sum(
        (
            Fraction(n, n + s) * comb(n + s, s) * gen_binom(y - s, n - s)
            for s in range(n + 1)
        ),
        Fraction(0),
    )
    return lhs, gen_binom(y + n, n)


def two_column_kostka(k: int, p: int, q: int) -> Fraction:
    """K(2_k^p, 2_k^q) = (k-2q)!(k-2p+1)/((p-q)!(k-p-q+1)!), for q <= p, the
    Kostka number of the shapes two_column(k, p) and two_column(k, q)."""
    return Fraction(
        factorial(k - 2 * q) * (k - 2 * p + 1),
        factorial(p - q) * factorial(k - p - q + 1),
    )


def telescoping_pair(k: int, p: int, q: int) -> tuple:
    """Both sides of sum_{q<=r<=p} K(2_k^r, 2_k^q) = binom(k-2q, p-q), the
    telescoping sum of two-column Kostka numbers (two_column_kostka)."""
    if not 0 <= q <= p <= k // 2:
        raise ValueError(f"need 0 <= q <= p <= k/2, got k={k}, p={p}, q={q}")
    lhs = sum((two_column_kostka(k, r, q) for r in range(q, p + 1)), Fraction(0))
    return lhs, Fraction(comb(k - 2 * q, p - q))
