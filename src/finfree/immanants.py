"""Immanants, eigenvalue-difference matrices, and multilinear extraction.

Both immanant routes clear the input once to the integer matrix Y' = L Y, L
the lcm of the entry denominators, and run on Python ints. The immanant is
homogeneous of degree n in the entries, so the value is Imm(Y') / L^n.

The direct route sums prod_i Y'[i][sigma(i)] over the symmetric group by
cycle type in one pass, then pairs those class sums with the characters. The
Goulden-Jackson route evaluates Schur functions of diag(z) Y at all 0/1
choices of z and reads off the coefficient of z_1...z_n by
inclusion-exclusion, which is valid because that Schur value is jointly
homogeneous of degree n in z. At the support S of z, e_j(diag(z) Y) is the sum
of the j x j principal minors of Y_S, read from the characteristic polynomial
of Y'_S (Berkowitz, division-free); the Schur value is the dual Jacobi-Trudi
determinant of those e_j (Bareiss, fraction-free). The routes share only the
denominator clearing: the direct route uses no determinant, the
Goulden-Jackson route no character.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .partitions import Partition
from .symfunc import as_spectrum, cross_sum
from .symgroup import character, cycle_type
from .util import IMMANANT_CAP, as_tuple, bareiss_det, check_cap, clear_denominators, to_fraction

# Integer matrices whose class sums or principal elementaries are kept. The
# verify suite asks for every shape of one matrix before it moves on.
_CACHED_MATRICES = 32
_MATRIX = "a list of rows, each a list of rationals"


def as_matrix(rows) -> tuple:
    """Validate a square matrix of exact rationals, as a tuple of row tuples.

    Past the immanant cap or not square, a matrix is refused before any entry is converted.
    """
    rows = as_tuple(rows, _MATRIX)
    n = len(rows)
    check_cap(n, IMMANANT_CAP, "immanant size")
    rows = [as_tuple(row, _MATRIX) for row in rows]
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and nonempty")
    return tuple(tuple(to_fraction(v) for v in row) for row in rows)


def _cleared(y) -> tuple:
    """(Y', L): L the lcm of the entry denominators and Y' = L Y in ints."""
    y = as_matrix(y)
    n = len(y)
    scale, flat = clear_denominators([v for row in y for v in row])
    mat = tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))
    return mat, scale


def delta_minus(x) -> tuple:
    """The matrix (x_i - x_j)_{ij}; rank at most 2, zero diagonal."""
    x = as_spectrum(x)
    return tuple(tuple(xi - xj for xj in x) for xi in x)


def _checked(lam, y) -> tuple:
    """(lam, Y', L) after the size and shape checks of both routes."""
    mat, scale = _cleared(y)
    n = len(mat)
    lam = Partition(lam)
    if lam.size != n:
        raise ValueError(f"shape size {lam.size} != matrix size {n}")
    return lam, mat, scale


@lru_cache(maxsize=_CACHED_MATRICES)
def _class_sums(mat: tuple) -> tuple:
    """((rho, T(rho)), ...): prod_i mat[i][sigma(i)] summed over sigma of type rho."""
    sums = {}
    for perm in itertools.permutations(range(len(mat))):
        term = 1
        for row, col in zip(mat, perm):
            term *= row[col]
            if not term:
                break
        if term:
            rho = cycle_type(perm)
            sums[rho] = sums.get(rho, 0) + term
    return tuple(sums.items())


def immanant_direct(lam, y) -> Fraction:
    """Immanant as sum_rho chi^lam(rho) T(rho) over the class sums of S_n."""
    lam, mat, scale = _checked(lam, y)
    total = sum(character(lam, rho) * t for rho, t in _class_sums(mat))
    return Fraction(total, scale ** len(mat))


def imm_delta_minus(lam, x) -> Fraction:
    """Closed form for the immanant of (x_i - x_j) at a two-row shape.

    It is (-1)^lam_2 times the cross sum S_k(x) of symfunc.cross_sum, with
    k = d = len(x). Shapes with more than two rows give zero (the matrix has
    rank <= 2).
    """
    lam = Partition(lam)
    x = as_spectrum(x)
    k = lam.size
    if len(x) != k:
        raise ValueError(f"shape size {k} != spectrum length {len(x)}")
    if lam.length > 2:
        return Fraction(0)
    lam2 = lam[1] if lam.length > 1 else 0
    return (-1) ** lam2 * cross_sum(x, k)


def _berkowitz_step(mat, idx: tuple, r: int, poly: list) -> list:
    """det(x I - mat[S+r]) from poly = det(x I - mat[S]), S = idx.

    Coefficients run from x^m down. Berkowitz's division-free step: the new
    polynomial is the lower-triangular Toeplitz matrix with first column
    (1, -a, -R C, -R A C, ..., -R A^(m-1) C) applied to the old one, where
    A = mat[S], a = mat[r][r], R is row r and C is column r restricted to S.
    """
    row = [mat[r][i] for i in idx]
    col = [mat[i][r] for i in idx]
    toeplitz = [1, -mat[r][r]]
    for _ in idx:
        toeplitz.append(-sum(a * b for a, b in zip(row, col)))
        col = [sum(mat[i][j] * c for j, c in zip(idx, col)) for i in idx]
    m = len(idx)
    return [
        sum(toeplitz[i - j] * poly[j] for j in range(min(i, m) + 1))
        for i in range(m + 2)
    ]


@lru_cache(maxsize=_CACHED_MATRICES)
def _principal_elementaries(mat: tuple) -> tuple:
    """((|S|, e_0..e_n of mat[S]), ...) for every support S of [n].

    e_j of mat[S] is the sum of its j x j principal minors, zero for j > |S|.
    Each S extends S minus its largest index by one Berkowitz step.
    """
    n = len(mat)
    out = []

    def extend(idx, poly):
        e = [(-1) ** j * c for j, c in enumerate(poly)]
        out.append((len(idx), tuple(e + [0] * (n + 1 - len(e)))))
        for r in range(idx[-1] + 1 if idx else 0, n):
            extend(idx + (r,), _berkowitz_step(mat, idx, r, poly))

    extend((), [1])
    return tuple(out)


def schur_from_elementary(lam, e) -> int:
    """Dual Jacobi-Trudi determinant det(e_{lam'_i - i + j}) of integer e_0, e_1, ..."""
    lam_t = Partition(lam).transpose()
    m = len(lam_t)
    return bareiss_det(
        [
            [e[idx] if 0 <= idx < len(e) else 0 for idx in (lam_t[i] - i + j for j in range(m))]
            for i in range(m)
        ]
    )


def immanant_gj(lam, y) -> Fraction:
    """Immanant as the multilinear part of a Schur function of diag(z) . y.

    Sums (-1)^(n-|S|) s_lam(Y'_S) over the 2^n supports S of z in {0,1}^n.
    """
    lam, mat, scale = _checked(lam, y)
    n = len(mat)
    total = sum(
        (-1) ** (n - size) * schur_from_elementary(lam, e)
        for size, e in _principal_elementaries(mat)
    )
    return Fraction(total, scale**n)

