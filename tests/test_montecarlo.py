import json
from fractions import Fraction

import numpy as np
import pytest

from finfree import montecarlo, verify
from finfree.montecarlo import (
    GRAM_SCHMIDT_MAX_D,
    _Accumulator,
    _chunk_rng,
    _elementary_from_traces,
    _gram_schmidt,
    _householder,
    haar_batch,
    mc_charpoly,
    mc_conjugation_mean,
    mc_entry_moments,
    nan_max,
    within_band,
)
from finfree.polynomials import MonicPoly, boxplus, boxtimes, commutator_poly
from finfree.symfunc import elementary_symmetric

SEED = 99


# ----------------------------------------------------------------- sampling

def _ginibre(d, m, seed):
    # the Ginibre draw as (x + 1j*y) / sqrt(2), whose bytes haar_batch keeps
    rng = _chunk_rng(seed, 0)
    z = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    return z / np.sqrt(2.0)


def _sweep(z):
    # _gram_schmidt reads the samples last: columns[j, :, s] = z[s, :, j]
    return _gram_schmidt(np.ascontiguousarray(z.T))


def _unitarity_residual(u):
    d = u.shape[-1]
    return np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(d)).max()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9, 10, 16])
def test_haar_batch_unitarity(d):
    u, residual = haar_batch(d, 64, _chunk_rng(SEED, 0))
    assert u.shape == (64, d, d)
    assert _unitarity_residual(u) < 1e-12
    assert 0 <= residual < 1e-12


@pytest.mark.parametrize("d", [4, 12])
def test_haar_batch_deterministic(d):
    # d = 4 takes the Gram-Schmidt path, d = 12 the LAPACK one
    assert (d <= GRAM_SCHMIDT_MAX_D) == (d == 4)
    a = haar_batch(d, 8, _chunk_rng(SEED, 0))
    b = haar_batch(d, 8, _chunk_rng(SEED, 0))
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    c = haar_batch(d, 8, _chunk_rng(SEED + 1, 0))
    assert not np.array_equal(a[0], c[0])


@pytest.mark.parametrize("d", [2, 9, 10])
def test_haar_batch_matches_the_two_temporaries_draw(d):
    # the draws written straight into z.real and z.imag give the same bytes
    # as (x + 1j*y) / sqrt(2), on both sides of GRAM_SCHMIDT_MAX_D
    z = _ginibre(d, 256, SEED)
    want = _sweep(z)[0] if d <= GRAM_SCHMIDT_MAX_D else _householder(z)[0]
    got = haar_batch(d, 256, _chunk_rng(SEED, 0))[0]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(1, 13))
def test_gram_schmidt_matches_householder(d):
    # both return the Q whose R has a positive real diagonal
    z = _ginibre(d, 256, SEED + d)
    assert np.abs(_sweep(z)[0] - _householder(z)[0]).max() < 1e-12


def test_gram_schmidt_only_reads_its_input():
    columns = np.ascontiguousarray(_ginibre(5, 64, SEED).T)
    before = columns.copy()
    _gram_schmidt(columns)
    assert columns.tobytes() == before.tobytes()


@pytest.mark.parametrize("d", [2, 5, 9])
def test_gram_schmidt_ill_conditioned(d):
    # the last column is the first one plus a 1e-8 perturbation, so each
    # matrix has condition number near 1e8
    z = _ginibre(d, 64, SEED)
    z[:, :, -1] = z[:, :, 0] + 1e-8 * _ginibre(d, 64, SEED + 1)[:, :, 0]
    assert np.median(np.linalg.cond(z)) > 1e7
    u, residual = _sweep(z)
    assert _unitarity_residual(u) < 1e-12 and residual < 1e-12
    r = u.conj().transpose(0, 2, 1) @ z
    assert np.abs(np.tril(r, -1)).max() < 1e-12
    diag = np.einsum("mii->mi", r)
    assert (diag.real > 0).all() and np.abs(diag.imag).max() < 1e-12


def _gram_residual(u):
    d = u.shape[-1]
    return np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d)).max()


def _gram_residual_by_columns(u):
    # column j of Q^H Q contracted over rows as the sweep does it
    q, eye = u.T, np.eye(u.shape[-1])
    return max(
        np.abs(np.einsum("kim,im->km", q[:j + 1].conj(), q[j]) - eye[:j + 1, j, None]).max()
        for j in range(u.shape[-1])
    )


@pytest.mark.parametrize("d", [1, 5, 9, 10, 16])
def test_residual_is_that_of_the_returned_unitaries(d):
    u, residual = haar_batch(d, 128, _chunk_rng(SEED, 0))
    assert residual > 0 or d == 1
    if d > GRAM_SCHMIDT_MAX_D:
        assert residual == _gram_residual(u)
    else:
        assert residual == _gram_residual_by_columns(u)
        assert abs(residual - _gram_residual(u)) <= 4 * d * np.finfo(float).eps


def test_haar_phase_correction_removes_qr_bias():
    # with the phase fix, the diagonal of R is positive real; the first
    # column of U must have uniformly distributed phases, so its mean
    # should be near zero rather than biased along the positive axis
    u = haar_batch(2, 4000, _chunk_rng(SEED, 0))[0]
    mean_entry = u[:, 0, 0].mean()
    assert abs(mean_entry) < 0.05


# -------------------------------------------------------------- accumulator

def test_accumulator_se_survives_a_large_mean():
    # sum(x^2) - n mean^2 cancels catastrophically at mean 1e9, spread 1
    rng = np.random.default_rng(SEED)
    re = 1e9 + rng.standard_normal(10000)
    im = -1e9 + rng.standard_normal(10000)
    acc = _Accumulator(1)
    for start in range(0, 10000, 4096):
        acc.add((re + 1j * im)[start:start + 4096, None])
    mean, se_re, se_im = acc.finalize()
    assert abs(mean[0] - (re.mean() + 1j * im.mean())) < 1e-6
    for part, se in ((re, se_re[0]), (im, se_im[0])):
        want = np.std(part, ddof=1) / np.sqrt(part.size)
        assert abs(se - want) <= 1e-6 * want


def test_accumulator_single_sample_has_zero_se():
    acc = _Accumulator(2)
    acc.add(np.array([[1 + 2j, 3 - 1j]]))
    mean, se_re, se_im = acc.finalize()
    assert list(mean) == [1 + 2j, 3 - 1j]
    assert list(se_re) == [0.0, 0.0] and list(se_im) == [0.0, 0.0]


# ------------------------------------------------------------------- Newton

def test_elementary_from_traces_exact_match():
    spectra = [(1.0, 2.0, 3.0), (0.5, -0.5, 2.0)]
    traces = np.array(
        [[sum(v**j for v in spec) for j in range(1, 4)] for spec in spectra],
        dtype=complex,
    )
    got = _elementary_from_traces(traces)
    for row, spec in zip(got, spectra):
        frac_spec = tuple(Fraction(v) for v in spec)
        want = elementary_symmetric(frac_spec)[1:]
        assert np.allclose(row, [float(w) for w in want])


def _statistic(monkeypatch, a, b, mode):
    # mc_charpoly hands its per-batch statistic to _sample; keep it instead
    monkeypatch.setattr(
        montecarlo, "_sample",
        lambda d, n, seed, chunk_size, mode, labels, statistic, extras=None: statistic,
    )
    return mc_charpoly(a, b, n=2, seed=SEED, mode=mode)


def _word(u, a, b, mode):
    big_a = np.diag(a)
    t = u @ np.diag(b) @ u.conj().transpose(0, 2, 1)
    return {"commutator": big_a @ t - t @ big_a, "sum": big_a + t, "product": big_a @ t}[mode]


# Ten times the worst per-k median relative error that the d - 1 product
# statistic (traces of W, W^2, ..., W^d) had on these spectra and samples,
# rounded up to a power of ten, at least 1e-14: 0, 3.3e-16, 1.8e-15,
# 1.1e-12, 4.1e-12 and 1.1e-7. Newton's identities lose the high e_k as d grows.
E_K_TOLERANCE = {1: 1e-14, 2: 1e-14, 3: 1e-13, 8: 1e-10, 9: 1e-10, 16: 1e-5}


@pytest.mark.parametrize("mode", ["commutator", "sum", "product"])
@pytest.mark.parametrize("d", sorted(E_K_TOLERANCE))
def test_paired_traces_match_eigenvalues(monkeypatch, d, mode):
    # distinct nonzero spectra, so no e_k of W vanishes identically except
    # e_1 = tr W of the commutator
    a = np.arange(1, d + 1) / 2
    b = np.array([(d - i) * (-1) ** i / 3 for i in range(d)])
    u = haar_batch(d, 64, _chunk_rng(SEED, d))[0]
    got = _statistic(monkeypatch, a, b, mode)(u)
    roots = np.linalg.eigvals(_word(u, a, b, mode))
    want = np.array([np.poly(r) for r in roots])[:, 1:] * (-1.0) ** np.arange(1, d + 1)
    if mode == "commutator":
        assert (got[:, 0] == 0).all()
        got, want = got[:, 1:], want[:, 1:]
    if want.size:
        rel = np.median(np.abs(got - want) / np.abs(want), axis=0)
        assert rel.max() < E_K_TOLERANCE[d], rel


# ------------------------------------------------------------------ reports

def test_report_deterministic_across_reruns():
    a = mc_charpoly((1, -1), (1, -1), n=3000, seed=SEED, chunk_size=1024)
    b = mc_charpoly((1, -1), (1, -1), n=3000, seed=SEED, chunk_size=1024)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


def test_report_counts_ragged_final_chunk():
    rep = mc_charpoly((1, -1), (1, -1), n=1000, seed=SEED, chunk_size=512)
    assert rep.n == 1000
    assert rep.chunk_size == 512


def test_report_lookup_and_json_fields():
    rep = mc_entry_moments(3, n=500, seed=SEED)
    assert set(rep.labels) == {"abs_u11_sq", "abs_u11_4th"}
    payload = rep.to_json_dict()
    assert payload["d"] == 3 and payload["n"] == 500 and payload["seed"] == SEED
    labels = [s["label"] for s in payload["statistics"]]
    assert labels == rep.labels
    with pytest.raises(ValueError):
        rep.mean("nope")


# -------------------------------------------------------------------- bands

def test_within_band():
    assert within_band(1.0, 1.01, 0.01)
    assert not within_band(1.0, 1.1, 0.01)
    # exact-zero standard error only passes on essentially exact agreement
    assert within_band(0.0, 0.0, 0.0)
    assert within_band(1.0, 1.0 + 5e-10, 0.0)
    assert not within_band(1.0, 1.001, 0.0)


def test_commutator_means_hit_exact_values():
    exact = Fraction(8, 3)
    rep = mc_charpoly((1, -1), (1, -1), n=40000, seed=SEED)
    m, se = rep.mean("e_2"), rep.se("e_2")
    assert within_band(float(exact), m.real, se[0])
    assert within_band(0.0, m.imag, se[1])
    # the commutator is traceless sample by sample
    m1, se1 = rep.mean("e_1"), rep.se("e_1")
    assert m1 == 0 and se1 == (0.0, 0.0)


def test_sum_mode_matches_boxplus():
    sa, sb = (1, -1, 2), (0, 1, 3)
    p = MonicPoly.from_spectrum(sa)
    q = MonicPoly.from_spectrum(sb)
    want = boxplus(p, q)
    rep = mc_charpoly(sa, sb, n=60000, seed=SEED, mode="sum")
    for k in range(1, 4):
        m, se = rep.mean(f"e_{k}"), rep.se(f"e_{k}")
        assert within_band(float(want.a[k]), m.real, se[0]), k
        assert within_band(0.0, m.imag, se[1]), k


def test_product_mode_matches_boxtimes():
    sa, sb = (1, 2), (1, 3)
    p = MonicPoly.from_spectrum(sa)
    q = MonicPoly.from_spectrum(sb)
    want = boxtimes(p, q)
    rep = mc_charpoly(sa, sb, n=60000, seed=SEED, mode="product")
    for k in range(1, 3):
        m, se = rep.mean(f"e_{k}"), rep.se(f"e_{k}")
        assert within_band(float(want.a[k]), m.real, se[0]), k
        assert within_band(0.0, m.imag, se[1]), k


def test_commutator_mode_matches_convolution_d3():
    sa, sb = (1, 0, -1), (2, 1, 1)
    want = commutator_poly(
        MonicPoly.from_spectrum(sa), MonicPoly.from_spectrum(sb)
    )
    rep = mc_charpoly(sa, sb, n=60000, seed=SEED)
    for k in range(1, 4):
        m, se = rep.mean(f"e_{k}"), rep.se(f"e_{k}")
        assert within_band(float(want.a[k]), m.real, se[0]), k
        assert within_band(0.0, m.imag, se[1]), k


def test_mode_validation():
    with pytest.raises(ValueError):
        mc_charpoly((1, -1), (1, -1), n=100, seed=1, mode="nope")
    with pytest.raises(ValueError):
        mc_charpoly((1, -1), (1, 2, 3), n=100, seed=1)
    with pytest.raises(ValueError):
        mc_charpoly((1, -1), (1, -1), n=0, seed=1)


# ---------------------------------------------------------- other observables

def test_entry_moment_bands():
    for d in (2, 4):
        rep = mc_entry_moments(d, n=40000, seed=SEED)
        m, se = rep.mean("abs_u11_sq"), rep.se("abs_u11_sq")
        assert within_band(1 / d, m.real, se[0])
        m, se = rep.mean("abs_u11_4th"), rep.se("abs_u11_4th")
        assert within_band(2 / (d * (d + 1)), m.real, se[0])


def test_conjugation_mean_is_trace_projection():
    spec = (Fraction(3), Fraction(1), Fraction(-1))
    rep = mc_conjugation_mean(spec, n=40000, seed=SEED)
    assert rep.extras["trace_over_d"] == 1.0
    for i in range(1, 4):
        for j in range(1, 4):
            m, se = rep.mean(f"entry_{i}_{j}"), rep.se(f"entry_{i}_{j}")
            want = 1.0 if i == j else 0.0
            assert within_band(want, m.real, se[0]), (i, j)
            assert within_band(0.0, m.imag, se[1]), (i, j)


def test_unitarity_residual_tracked():
    rep = mc_entry_moments(3, n=2000, seed=SEED)
    assert 0 < rep.unitarity_residual_max < 1e-12


def _zero_a_column(monkeypatch, on_calls):
    # column 1 of the first sample of a chunk becomes zero before the sweep,
    # so its normalization divides 0 by 0; returns the list of call numbers
    sweep, calls = montecarlo._gram_schmidt, []

    def sweep_with_zero_column(columns):
        calls.append(len(calls) + 1)
        if calls[-1] in on_calls:
            columns = columns.copy()
            columns[1, :, 0] = 0
        return sweep(columns)

    monkeypatch.setattr(montecarlo, "_gram_schmidt", sweep_with_zero_column)
    return calls


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_zero_ginibre_column_gives_a_nan_residual_that_fails(monkeypatch):
    # the NaN sits in the middle column of the sweep and in the second chunk,
    # where a fold with the builtin max would keep the finite value before it
    calls = _zero_a_column(monkeypatch, on_calls={2})
    report = mc_conjugation_mean((1, 2, 3), n=16, seed=SEED, chunk_size=8)
    assert calls == [1, 2]
    assert np.isnan(report.unitarity_residual_max)
    assert report.to_json_dict()["unitarity_residual_max"] == "nan"
    assert verify._conjugation_failure(report) == "d=3: unitarity residual nan"


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_haar_suite_fails_a_nan_residual(monkeypatch):
    _zero_a_column(monkeypatch, on_calls={1, 2, 3})
    [row] = verify.verify_haar(mc_n=8)
    assert not row.passed and row.detail == "d=2: unitarity residual nan"


def test_nan_max_propagates_nan():
    nan = float("nan")
    assert nan_max([]) == 0.0 and nan_max([1.0, 3.0, 2.0]) == 3.0
    for values in ([nan, 1.0], [1.0, nan], [1.0, nan, 2.0]):
        assert np.isnan(nan_max(values)), values
