"""Independent exact oracles for the convolution and Weingarten layers.

Nothing here reuses the closed-form commutator coefficients: the expected
characteristic polynomial is recomputed from first principles (minor
expansion plus entrywise Haar moments), and the Weingarten function is
re-derived by inverting its defining Gram system, so agreement with the
fast layer is meaningful evidence.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .partitions import partitions_of, two_column
from .polynomials import falling
from .symfunc import (
    as_spectrum,
    cross_sum,
    elementary_symmetric,
    eval_monomial,
    power_sums,
    schur_principal,
)
from .symgroup import (
    c_constant,
    compose,
    cycle_type,
    dim_irrep,
    identity_perm,
    inverse_perm,
    perm_sign,
)
from .weingarten import ClassFunction, weingarten
from .util import DIMENSION_CAP, PARTITION_CAP, check_cap, to_fraction


def _prod(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


@lru_cache(maxsize=None)
def _sym_ingredients(k: int):
    # For each derangement sigma: (images, sign). For each tau: (images,
    # orbit lengths of tau). Shared across subsets since everything is
    # relabeled to 0..k-1.
    perms = list(itertools.permutations(range(k)))
    derangements = [
        (p, perm_sign(p)) for p in perms if all(p[i] != i for i in range(k))
    ]
    taus = [(p, tuple(cycle_type(p))) for p in perms]
    return derangements, taus


def brute_force_expected_ek(spec_a, spec_b, k: int, wg_fn=weingarten,
                            cap: int = DIMENSION_CAP) -> Fraction:
    """E[e_k] of A U B U* - U B U* A by minor expansion and Haar moments.

    Expands e_k into principal k x k minors, each minor into permutations,
    and each product of conjugated-matrix entries into a Weingarten sum.
    Maps p: S -> [d] are folded analytically: summing prod b_{p(i)} over the
    maps fixed by tau gives a product of power sums over tau's cycles.
    The Weingarten table itself is injectable so a corrupted table must
    break the agreement with the closed forms.
    """
    spec_a, spec_b = as_spectrum(spec_a), as_spectrum(spec_b)
    d = len(spec_a)
    if len(spec_b) != d:
        raise ValueError(f"spectrum lengths differ: {d} != {len(spec_b)}")
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    check_cap(d, cap, "brute-force dimension")
    if k == 0:
        return Fraction(1)
    wg = wg_fn(k, d)
    pb = power_sums(spec_b, k)
    derangements, taus = _sym_ingredients(k)
    tau_weights = [
        (p, _prod(pb[c - 1] for c in ctype)) for p, ctype in taus
    ]
    total = Fraction(0)
    for subset in itertools.combinations(range(d), k):
        a_sub = [spec_a[i] for i in subset]
        for sigma, sign in derangements:
            diff = Fraction(1)
            for i in range(k):
                diff *= a_sub[i] - a_sub[sigma[i]]
                if not diff:
                    break
            if not diff:
                continue
            wg_acc = Fraction(0)
            for tau, weight in tau_weights:
                wg_acc += wg(cycle_type(compose(sigma, tau))) * weight
            total += sign * diff * wg_acc
    return total


def weingarten_gram_inverse(k: int, d: int, cap: int = PARTITION_CAP) -> ClassFunction:
    """Weingarten function recovered from its defining Gram system.

    Solves sum_sigma Wg(sigma) d^{cycles(sigma^-1 tau)} = [tau == id] for
    the class function Wg, by exact rational elimination on the class-summed
    system. Requires d >= k so the Gram matrix is invertible.
    """
    if d < k:
        raise ValueError(f"need d >= k for an invertible system, got d={d} < k={k}")
    check_cap(k, cap, "Gram system order")
    classes = partitions_of(k, cap)
    perms = list(itertools.permutations(range(k)))
    by_class = {rho: [] for rho in classes}
    for p in perms:
        by_class[cycle_type(p)].append(p)
    n = len(classes)
    # Row tau-class, column sigma-class; entry sums d^cycles over the
    # sigma class at one representative tau.
    mat = []
    rhs = []
    ident = identity_perm(k)
    for tau_class in classes:
        tau = by_class[tau_class][0]
        row = []
        for sigma_class in classes:
            acc = Fraction(0)
            for sigma in by_class[sigma_class]:
                cycles = len(cycle_type(compose(inverse_perm(sigma), tau)))
                acc += Fraction(d) ** cycles
            row.append(acc)
        mat.append(row)
        rhs.append(Fraction(1) if tau == ident else Fraction(0))
    solution = _solve_exact(mat, rhs)
    return ClassFunction(k, dict(zip(classes, solution)))


def _solve_exact(mat, rhs):
    """Gaussian elimination over Fractions with partial pivoting by nonzero."""
    n = len(mat)
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


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

    Raw side: sum_l (-1)^l / binom(k,l) sum_{|S|=k} e_{k-l}(A_S) e_l(A_S).
    Closed side: S_k(A) (k/2)! / (k! (d-k)! (d-k/2)!) for even k, zero for
    odd k, with S_k the cross sum of symfunc.cross_sum.
    """
    spec_a = as_spectrum(spec_a)
    d = len(spec_a)
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    raw = Fraction(0)
    for l in range(k + 1):
        subset_acc = Fraction(0)
        for subset in itertools.combinations(spec_a, k):
            e = elementary_symmetric(subset) if k else (Fraction(1),)
            subset_acc += e[k - l] * e[l]
        raw += Fraction((-1) ** l, comb(k, l)) * subset_acc
    if k % 2:
        return raw, Fraction(0)
    h = k // 2
    closed = cross_sum(spec_a, k) * Fraction(
        factorial(h), factorial(k) * factorial(d - k) * factorial(d - h)
    )
    return raw, closed


def identity_rightdep(spec_b, k: int) -> tuple:
    """Both sides of the character-expansion identity for the B factor.

    Raw side: (1/k!) sum_p (-1)^p dim(2_k^p)^2 / s_{2_k^p}(1^d)
    sum_q C(2_k^p, 2_k^q) q! (k-2q)! m_{2_k^q}(B). Closed side:
    S_k(B) k! (d+1-k/2) / ((d+1)! d!) for even k, zero for odd k.
    """
    spec_b = as_spectrum(spec_b)
    d = len(spec_b)
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    raw = Fraction(0)
    for p in range(k // 2 + 1):
        lam = two_column(k, p)
        inner = Fraction(0)
        for q in range(p + 1):
            mu = two_column(k, q)
            inner += (
                c_constant(lam, mu)
                * factorial(q)
                * factorial(k - 2 * q)
                * eval_monomial(mu, spec_b)
            )
        raw += (
            (-1) ** p
            * Fraction(dim_irrep(lam) ** 2)
            / schur_principal(lam, d)
            * inner
        )
    raw /= factorial(k)
    if k % 2:
        return raw, Fraction(0)
    h = k // 2
    closed = cross_sum(spec_b, k) * Fraction(
        factorial(k) * (d + 1 - h), factorial(d + 1) * factorial(d)
    )
    return raw, closed


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


def telescoping_pair(k: int, p: int, q: int) -> tuple:
    """Both sides of sum_{q<=r<=p} (k-2q)!(k-2r+1)/((r-q)!(k-r-q+1)!) =
    binom(k-2q, p-q), the telescoping sum of two-column Kostka numbers."""
    if not 0 <= q <= p <= k // 2:
        raise ValueError(f"need 0 <= q <= p <= k/2, got k={k}, p={p}, q={q}")
    lhs = sum(
        (
            Fraction(
                factorial(k - 2 * q) * (k - 2 * r + 1),
                factorial(r - q) * factorial(k - r - q + 1),
            )
            for r in range(q, p + 1)
        ),
        Fraction(0),
    )
    return lhs, Fraction(comb(k - 2 * q, p - q))
