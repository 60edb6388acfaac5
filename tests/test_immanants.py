import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from finfree.immanants import (
    _class_sums,
    _cleared,
    _principal_elementaries,
    as_matrix,
    delta_minus,
    imm_delta_minus,
    immanant_direct,
    immanant_gj,
)
from finfree.partitions import Partition, partitions_of
from finfree.symfunc import elementary_symmetric
from finfree.symgroup import character, cycle_type, perm_sign
from finfree.util import bareiss_det

rational_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# entries up to 10^6 / 10^6 with mixed denominators, and plenty of zeros
wide_st = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(10**6), 10**6).map(Fraction),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)


def matrix_st(n):
    return st.lists(
        st.lists(rational_st, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: tuple(tuple(v for v in r) for r in rows))


@st.composite
def wide_matrix_st(draw, max_n=5):
    """Square rational matrices n <= max_n, some with zero rows."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(wide_st, min_size=n, max_size=n), min_size=n, max_size=n))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return tuple(
        tuple(Fraction(0) if i in zero_rows else v for v in row)
        for i, row in enumerate(rows)
    )


def _det(y):
    # cofactor-free reference determinant by permutation expansion
    n = len(y)
    total = Fraction(0)
    for p in itertools.permutations(range(n)):
        term = Fraction(perm_sign(p))
        for i in range(n):
            term *= y[i][p[i]]
        total += term
    return total


def _perm(y):
    n = len(y)
    total = Fraction(0)
    for p in itertools.permutations(range(n)):
        term = Fraction(1)
        for i in range(n):
            term *= y[i][p[i]]
        total += term
    return total


# ---------------------------------------------------- reference definitions
#
# The Fraction routes the integer kernels replaced: the character sum over
# every permutation, and the 2^n extraction with e_j read off traces of
# powers by Newton's identities and the Jacobi-Trudi determinant expanded
# over permutations.

def _immanant_reference(lam, y):
    n = len(y)
    total = Fraction(0)
    for p in itertools.permutations(range(n)):
        term = Fraction(1)
        for i in range(n):
            term *= y[i][p[i]]
        total += character(lam, cycle_type(p)) * term
    return total


def _imm_delta_minus_reference(lam, x):
    """The two-row closed form as a Fraction loop over e_{k-l} e_l."""
    lam = Partition(lam)
    k = len(x)
    if lam.length > 2:
        return Fraction(0)
    lam2 = lam[1] if lam.length > 1 else 0
    e = elementary_symmetric(x)
    total = Fraction(0)
    for l in range(k + 1):
        total += (-1) ** l * factorial(k - l) * factorial(l) * e[k - l] * e[l]
    return (-1) ** lam2 * total


def _char_poly_reference(y):
    """e_0..e_n of y by Newton's identities on the traces of its powers."""
    n = len(y)
    powers, cur = [], y
    for _ in range(n):
        powers.append(sum((cur[i][i] for i in range(n)), Fraction(0)))
        cur = tuple(
            tuple(sum((cur[i][t] * y[t][j] for t in range(n)), Fraction(0)) for j in range(n))
            for i in range(n)
        )
    e = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        e[j] = sum((-1) ** (i - 1) * e[j - i] * powers[i - 1] for i in range(1, j + 1)) / j
    return e


def _schur_reference(lam, e):
    lam_t = Partition(lam).transpose()
    m = len(lam_t)
    return _det(
        tuple(
            tuple(
                e[lam_t[i] - i + j] if 0 <= lam_t[i] - i + j < len(e) else Fraction(0)
                for j in range(m)
            )
            for i in range(m)
        )
    )


def _gj_reference(lam, y):
    n = len(y)
    total = Fraction(0)
    for keep in itertools.product((0, 1), repeat=n):
        e = _char_poly_reference(tuple(tuple(z * v for v in row) for z, row in zip(keep, y)))
        total += (-1) ** (n - sum(keep)) * _schur_reference(lam, e)
    return total


# ----------------------------------------------------------------- plumbing

def test_as_matrix_validation():
    as_matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        as_matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        as_matrix([])
    with pytest.raises(TypeError):
        as_matrix([[0.5]])


def test_delta_matrices():
    x = (Fraction(1), Fraction(3))
    assert delta_minus(x) == ((0, -2), (2, 0))


# ---------------------------------------------------------------- immanants

@given(matrix_st(3))
@settings(max_examples=40)
def test_immanant_extreme_shapes(y):
    assert immanant_direct((1, 1, 1), y) == _det(y)
    assert immanant_direct((3,), y) == _perm(y)


def test_immanant_middle_shape_frozen():
    # Imm^(2,1) of the all-ones 3x3 matrix: chi(id)*6 = 12, the 0/-1 classes
    # contribute 0 and -2 * ... -> known value 0 + direct arithmetic
    ones = tuple(tuple(Fraction(1) for _ in range(3)) for _ in range(3))
    # chi^(2,1): id -> 2 (1 term), transpositions -> 0, 3-cycles -> -1 (2 terms)
    assert immanant_direct((2, 1), ones) == 2 * 1 + 0 * 3 - 1 * 2


def test_immanant_shape_size_mismatch():
    y = as_matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        immanant_direct((3,), y)


@given(matrix_st(3))
@settings(max_examples=25)
def test_immanant_gj_matches_direct_n3(y):
    for lam in partitions_of(3):
        assert immanant_gj(lam, y) == immanant_direct(lam, y)


@given(matrix_st(4))
@settings(max_examples=10)
def test_immanant_gj_matches_direct_n4(y):
    for lam in partitions_of(4):
        assert immanant_gj(lam, y) == immanant_direct(lam, y)


def test_both_routes_accept_the_cap():
    # n = 9 is the shared cap; the identity has immanant chi^lam(id)
    y = tuple(tuple(int(i == j) for j in range(9)) for i in range(9))
    assert immanant_gj((9,), y) == immanant_direct((9,), y) == 1
    assert immanant_gj((8, 1), y) == immanant_direct((8, 1), y) == 8


# ------------------------------------------- kernels vs reference definitions

@given(wide_matrix_st())
@settings(max_examples=30, deadline=None)
def test_immanant_direct_matches_reference(y):
    for lam in partitions_of(len(y)):
        assert immanant_direct(lam, y) == _immanant_reference(lam, y), lam


@given(wide_matrix_st(max_n=4))
@settings(max_examples=20, deadline=None)
def test_immanant_gj_matches_reference(y):
    for lam in partitions_of(len(y)):
        assert immanant_gj(lam, y) == _gj_reference(lam, y), lam


@given(wide_matrix_st())
@settings(max_examples=30, deadline=None)
def test_routes_agree_on_wide_matrices(y):
    for lam in partitions_of(len(y)):
        assert immanant_gj(lam, y) == immanant_direct(lam, y), lam


def test_immanant_gj_matches_reference_n5():
    y = as_matrix(
        [
            [1, "-1/2", 0, 3, "7/5"],
            [0, 0, 0, 0, 0],
            ["1000000/999999", 2, -1, 0, "1/3"],
            [4, 0, "-5/7", 1, 1],
            [0, "2/9", 1, "-1000000", 2],
        ]
    )
    for lam in partitions_of(5):
        assert immanant_gj(lam, y) == _gj_reference(lam, y), lam


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=20, deadline=None)
def test_principal_elementaries_are_principal_minor_sums(rows):
    mat = tuple(tuple(row) for row in rows)
    n = len(mat)

    def minor_sum(s, j):
        return sum(
            _det(tuple(tuple(Fraction(mat[i][c]) for c in t) for i in t))
            for t in itertools.combinations(s, j)
        )

    want = sorted(
        (len(s), tuple(minor_sum(s, j) for j in range(n + 1)))
        for r in range(n + 1)
        for s in itertools.combinations(range(n), r)
    )
    assert sorted(_principal_elementaries(mat)) == want


# --------------------------------------------------- eigenvalue differences

def test_imm_delta_minus_two_by_two():
    a, b = Fraction(3), Fraction(1, 2)
    x = (a, b)
    # det of [[0, a-b], [b-a, 0]] is (a-b)^2
    assert imm_delta_minus((1, 1), x) == (a - b) ** 2
    assert immanant_direct((1, 1), delta_minus(x)) == (a - b) ** 2
    # permanent is -(a-b)^2
    assert imm_delta_minus((2,), x) == -((a - b) ** 2)


@given(st.lists(rational_st, min_size=2, max_size=5).map(tuple))
@settings(max_examples=30)
def test_imm_delta_minus_matches_direct(x):
    k = len(x)
    dm = delta_minus(x)
    for lam in partitions_of(k):
        assert imm_delta_minus(lam, x) == immanant_direct(lam, dm), (lam, x)


@given(st.lists(wide_st, min_size=1, max_size=8).map(tuple))
@settings(max_examples=40)
def test_imm_delta_minus_matches_reference(x):
    for lam in partitions_of(len(x)):
        assert imm_delta_minus(lam, x) == _imm_delta_minus_reference(lam, x), lam


@pytest.mark.parametrize("k", [3, 5])
def test_imm_delta_minus_odd_sizes_vanish(k):
    x = tuple(Fraction(i + 1, 2) for i in range(k))
    for lam in partitions_of(k):
        assert imm_delta_minus(lam, x) == 0


def test_imm_delta_minus_tall_shapes_vanish():
    x = (Fraction(1), Fraction(2), Fraction(4), Fraction(8))
    assert imm_delta_minus((2, 1, 1), x) == 0
    assert imm_delta_minus((1, 1, 1, 1), x) == 0
    # rank two: only shapes with at most two rows can survive
    assert imm_delta_minus((2, 2), x) != 0


# ------------------------------------------------------------------ charpoly

def _whole_matrix_elementaries(y):
    # e_0..e_n of y: the full support of the Goulden-Jackson route's table
    mat, scale = _cleared(y)
    (e,) = [e for size, e in _principal_elementaries(mat) if size == len(mat)]
    return tuple(Fraction(c, scale**j) for j, c in enumerate(e))


@given(
    st.lists(rational_st, min_size=2, max_size=4).map(tuple),
    st.lists(rational_st, min_size=2, max_size=4).map(tuple),
)
@settings(max_examples=40)
def test_charpoly_z_delta_closed_form(x, z):
    # diag(z) (x_i - x_j) is traceless of rank <= 2, so only e_2 survives,
    # the sum of its 2x2 principal minors z_i z_j (x_i - x_j)^2
    if len(x) != len(z):
        return
    y = tuple(tuple(zi * v for v in row) for zi, row in zip(z, delta_minus(x)))
    quad = sum(
        (z[i] * z[j] * (x[i] - x[j]) ** 2 for i, j in itertools.combinations(range(len(x)), 2)),
        Fraction(0),
    )
    assert _whole_matrix_elementaries(y) == (1, 0, quad) + (0,) * (len(x) - 2)


def test_charpoly_z_delta_quadratic_term():
    # z = 1 and x = (1, 2, 3): sum_{i<j} (x_i - x_j)^2 = 1 + 4 + 1
    assert _whole_matrix_elementaries(delta_minus((1, 2, 3))) == (1, 0, 6, 0)


# ------------------------------------------------------------------ Bareiss

int_matrix_st = st.integers(1, 5).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(-(10**6), 10**6), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
)


def _as_fractions(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def test_bareiss_small_cases():
    assert bareiss_det([]) == 1
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    # the second pivot vanishes after the first elimination step
    assert bareiss_det([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1
    # no nonzero entry under a zero pivot: singular
    assert bareiss_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0


@given(int_matrix_st)
@settings(max_examples=60, deadline=None)
def test_bareiss_matches_permutation_expansion(rows):
    assert bareiss_det(rows) == _det(_as_fractions(rows))


@given(int_matrix_st.filter(lambda rows: len(rows) > 1))
@settings(max_examples=40, deadline=None)
def test_bareiss_zero_leading_pivot(rows):
    rows = [list(row) for row in rows]
    rows[0][0] = 0
    assert bareiss_det(rows) == _det(_as_fractions(rows))


@given(int_matrix_st.filter(lambda rows: len(rows) > 1), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_bareiss_singular(rows, factor):
    # the last row is a multiple of the first plus the second
    rows = [list(row) for row in rows]
    rows[-1] = [factor * a + b for a, b in zip(rows[0], rows[1])]
    if len(rows) == 2:
        rows[-1] = [factor * a for a in rows[0]]
    assert bareiss_det(rows) == 0 == _det(_as_fractions(rows))


# ------------------------------------------------------ per-matrix caching

def test_cache_is_consistent_in_any_call_order():
    # one matrix as ints, Fractions and unreduced "p/q" strings, and twice it
    base = [[2, -1, 0], [3, 0, 5], [-4, 1, 1]]
    forms = {
        "ints": base,
        "fractions": [[Fraction(v) for v in row] for row in base],
        "strings": [[f"{3 * v}/3" for v in row] for row in base],
        "double": [[2 * v for v in row] for row in base],
        "half": [[Fraction(v, 2) for v in row] for row in base],
    }
    scale = {"ints": 1, "fractions": 1, "strings": 1, "double": 8, "half": Fraction(1, 8)}
    shapes = partitions_of(3)
    want = {lam: _immanant_reference(lam, as_matrix(base)) for lam in shapes}
    for order in itertools.permutations(forms):
        _class_sums.cache_clear()
        _principal_elementaries.cache_clear()
        for name in order:
            for lam in shapes:
                expected = scale[name] * want[lam]
                assert immanant_direct(lam, forms[name]) == expected, (order, name, lam)
                assert immanant_gj(lam, forms[name]) == expected, (order, name, lam)
