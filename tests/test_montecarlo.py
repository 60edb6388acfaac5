import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from finfree import montecarlo, verify
from finfree.montecarlo import (
    GRAM_SCHMIDT_MAX_D,
    McReport,
    _Accumulator,
    _block_size,
    _chunk_rng,
    _elementary_from_traces,
    _gram_schmidt,
    _householder,
    _sample,
    haar_batch,
    mc_charpoly,
    mc_conjugation_mean,
    mc_entry_moments,
    nan_max,
    within_band,
)
from finfree.polynomials import MonicPoly, boxplus, boxtimes, commutator_poly
from finfree.symfunc import elementary_symmetric
from finfree.util import MC_CHUNK_ENTRIES_CAP, MC_CHUNK_SIZE, CapExceededError

SEED = 99


# ----------------------------------------------------------------- sampling

def _ginibre(d, m, seed, chunk=0):
    # chunk's Ginibre draw as (x + 1j*y) / sqrt(2), made whole: the bytes
    # that _sample streams to haar_batch block by block
    rng = _chunk_rng(seed, chunk)
    z = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    return z / np.sqrt(2.0)


def _haar(d, m, seed, chunk=0):
    # m unitaries from one block of draws
    return haar_batch(_ginibre(d, m, seed, chunk))


# m = 1; m = 3001, which from d = 2 on spans two or more blocks and ends in
# a shorter one; and m = 3712, the last chunk of a d = 8 run at n = 16000
RAGGED = 3001
SWEEP_SIZES = (1, RAGGED, 3712)


def test_ragged_size_crosses_block_edges():
    # on both orthonormalizers' sides of GRAM_SCHMIDT_MAX_D
    for d in [*range(2, GRAM_SCHMIDT_MAX_D + 1), 12, 16]:
        size = _block_size(RAGGED, d)
        assert size < RAGGED and RAGGED % size, d


def test_block_size_rule():
    # ceil(m * d / 4096) blocks of equal size up to a ragged last one, and
    # one sample per block when one sample's column slice is over 4096
    assert _block_size(4096, 16) == 256
    assert _block_size(4097, 16) == 241  # 17 blocks of 241
    assert _block_size(4100, 12) == 316  # 13 blocks, the last of 308
    assert _block_size(1, 12) == 1
    assert _block_size(3, 5000) == 1
    # _sample sizes its block buffers by the first chunk's blocks, so no
    # shorter chunk may have longer blocks
    for d in range(1, 33):
        full = _block_size(MC_CHUNK_SIZE, d)
        assert max(_block_size(m, d) for m in range(1, MC_CHUNK_SIZE)) <= full, d


def _unitarity_residual(u):
    d = u.shape[-1]
    return np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(d)).max()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9, 10, 11, 12, 16])
def test_haar_batch_unitarity(d):
    u, residual = _haar(d, 64, SEED)
    assert u.shape == (64, d, d) and u.flags.c_contiguous
    assert _unitarity_residual(u) < 1e-12
    assert 0 <= residual < 1e-12


@pytest.mark.parametrize("d", [4, 12])
def test_haar_batch_deterministic(d):
    # d = 4 takes the Gram-Schmidt path, d = 12 the LAPACK one
    assert (d <= GRAM_SCHMIDT_MAX_D) == (d == 4)
    a = _haar(d, 8, SEED)
    b = _haar(d, 8, SEED)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    c = _haar(d, 8, SEED + 1)
    assert not np.array_equal(a[0], c[0])


@pytest.mark.parametrize("d", [2, 9, 10, 11, 12])
def test_haar_batch_matches_the_two_temporaries_draw(monkeypatch, d):
    # the blocks _sample hands haar_batch, from the chunk's real parts drawn
    # whole and its imaginary parts drawn block by block, give the bytes of
    # (x + 1j*y) / sqrt(2), and so the same unitaries, on both sides of
    # GRAM_SCHMIDT_MAX_D
    blocks = []

    def recorded_block(z):
        blocks.append(z.copy())
        return haar_batch(z)

    monkeypatch.setattr(montecarlo, "haar_batch", recorded_block)
    mc_entry_moments(d, RAGGED, SEED)
    want = _ginibre(d, RAGGED, SEED)
    assert len(blocks) > 1
    assert np.concatenate(blocks).tobytes() == want.tobytes()
    got = _gram_schmidt(want)[0] if d <= GRAM_SCHMIDT_MAX_D else _householder(want)[0]
    assert haar_batch(want)[0].tobytes() == got.tobytes()


@pytest.mark.parametrize("d", range(1, 13))
def test_gram_schmidt_matches_householder(d):
    # both return the Q whose R has a positive real diagonal
    for m in SWEEP_SIZES:
        z = _ginibre(d, m, SEED + d)
        assert np.abs(_gram_schmidt(z)[0] - _householder(z)[0]).max() < 1e-12, m


def test_gram_schmidt_only_reads_its_input():
    z = _ginibre(5, RAGGED, SEED)
    before = z.copy()
    _gram_schmidt(z)
    assert z.tobytes() == before.tobytes()


@pytest.mark.parametrize("d", [2, 5, 9, 11])
def test_gram_schmidt_ill_conditioned(d):
    # in the last 64 samples the last column is the first one plus a 1e-8
    # perturbation, so each of these matrices has condition number near 1e8
    z = _ginibre(d, RAGGED, SEED)
    z[-64:, :, -1] = z[-64:, :, 0] + 1e-8 * _ginibre(d, 64, SEED + 1)[:, :, 0]
    assert np.median(np.linalg.cond(z[-64:])) > 1e7
    u, residual = _gram_schmidt(z)
    assert _unitarity_residual(u) < 1e-12 and residual < 1e-12
    r = u.conj().transpose(0, 2, 1) @ z
    assert np.abs(np.tril(r, -1)).max() < 1e-12
    diag = np.einsum("mii->mi", r)
    assert (diag.real > 0).all() and np.abs(diag.imag).max() < 1e-12


def _gram_residual(u):
    d = u.shape[-1]
    return np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d)).max()


def _gram_residual_by_columns(u):
    # column j of Q^H Q, each entry summed over rows as the sweep sums it
    q, eye = np.ascontiguousarray(u.T), np.eye(u.shape[-1])
    return max(
        np.abs(np.stack([(q[k].conj() * q[j]).sum(axis=0) for k in range(j + 1)])
               - eye[:j + 1, j, None]).max()
        for j in range(u.shape[-1])
    )


@pytest.mark.parametrize("d", [1, 5, 9, 10, 11, 12, 16])
def test_residual_is_that_of_the_returned_unitaries(d):
    u, residual = _haar(d, RAGGED, SEED)
    assert residual > 0 or d == 1
    if d > GRAM_SCHMIDT_MAX_D:
        assert residual == _gram_residual(u)
    else:
        assert residual == _gram_residual_by_columns(u)
        assert abs(residual - _gram_residual(u)) <= 4 * d * np.finfo(float).eps


@pytest.mark.parametrize("d", [2, GRAM_SCHMIDT_MAX_D, GRAM_SCHMIDT_MAX_D + 1])
def test_trace_moments_hit_exact_values(d):
    # E|tr U|^2 = 1 and E|tr U^2|^2 = 2 for Haar U at d >= 2 (Diaconis &
    # Shahshahani 1994; Rains 1997). A Q whose R phases are left unfixed
    # keeps every |u_ij|, so the entry-moment and conjugation rows cannot
    # see it; these moments can.
    def traces(u):
        powers = (np.einsum("mii->m", u), np.einsum("mij,mji->m", u, u))
        return np.stack([np.abs(t) ** 2 for t in powers], axis=1).astype(complex)

    rep = _sample(d, 20000, SEED, "trace_moments", ["tr_u", "tr_u2"], traces)
    assert rep.band_misses({"tr_u": 1, "tr_u2": 2}) == []


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _chunk_bytes(d):
    # the unitaries of one full chunk, (MC_CHUNK_SIZE, d, d) complex128
    return MC_CHUNK_SIZE * d * d * 16


def _sampling_peak(d, chunks):
    # full chunks drawn, orthonormalized block by block and measured by a
    # statistic of two values per sample
    return _traced_peak(lambda: mc_entry_moments(d, chunks * MC_CHUNK_SIZE, SEED))


@pytest.mark.parametrize("d", [8, 9])
def test_sweep_peak_memory_within_3_5_results(d):
    peak = _sampling_peak(d, 1)
    assert peak <= 3.5 * _chunk_bytes(d), peak / _chunk_bytes(d)


@pytest.mark.parametrize("d", [12, 16])
def test_householder_peak_memory_within_2_5_results(d):
    peak = _sampling_peak(d, 1)
    assert peak <= 2.5 * _chunk_bytes(d), peak / _chunk_bytes(d)


# The largest one-chunk peak of _sampling_peak, in chunks of unitaries,
# below the 1.5 of a chunk whose draws are held whole. It read 0.98 and 0.86
# at d = 12 and 16 (1.06 and 0.90 as a process's first run), and 1.39 and
# 1.29 at d = 8 and 9, where the sweep's blocks are larger shares of the
# chunk (1.57 at d = 8 as a process's first run).
SAMPLING_PEAK = {8: 1.75, 9: 1.75, 12: 1.1, 16: 1.1}


@pytest.mark.parametrize("d", sorted(SAMPLING_PEAK))
def test_sampling_holds_no_chunk_of_unitaries(d):
    # a chunk's real parts (half the bytes of its draws) and block-sized
    # arrays; only the last block of a chunk outlives the next chunk's draw
    one = _sampling_peak(d, 1)
    assert one <= SAMPLING_PEAK[d] * _chunk_bytes(d), one / _chunk_bytes(d)
    three = _sampling_peak(d, 3)
    assert three <= 1.1 * one, three / one


# The one-chunk peak of each run below, in chunks of unitaries, for
# mc_charpoly below the 1.5 of a chunk whose draws are held whole. It read
# 0.91 and 0.70 for mc_charpoly at d = 16 and 32, and 1.97 for
# mc_conjugation_mean at d = 12, whose values are d^2 per sample.
CHUNK_PEAK = {("charpoly", 16): 1.0, ("charpoly", 32): 0.8, ("conjugation", 12): 2.5}


@pytest.mark.parametrize("run, d", sorted(CHUNK_PEAK))
def test_chunk_peak_memory_within_2_5_results(run, d):
    # the statistic runs on blocks of the chunk, and its values, d^2 per
    # sample for the conjugation, are folded in place and freed before the
    # next chunk is drawn, so three chunks peak at most a block above one;
    # three chunks at d = 32 are past MC_WORK_CAP, so that case runs one
    spec = range(d)

    def peak(chunks):
        n = chunks * MC_CHUNK_SIZE
        return _traced_peak(lambda: mc_conjugation_mean(spec, n, SEED)
                            if run == "conjugation"
                            else mc_charpoly(spec, spec[::-1], n, SEED))

    one = peak(1)
    assert one <= CHUNK_PEAK[run, d] * _chunk_bytes(d), one / _chunk_bytes(d)
    if d < 32:
        three = peak(3)
        assert three <= 1.1 * one, three / one


@pytest.mark.parametrize("d", [12, 16])
def test_householder_blocks_match_one_factorization(d):
    # haar_batch over the blocks _sample cuts a ragged chunk into gives the
    # bytes of one call on the whole chunk, and its residual is their largest
    z = _ginibre(d, RAGGED, SEED)
    before = z.copy()
    size = _block_size(RAGGED, d)
    blocks = [haar_batch(z[start:start + size]) for start in range(0, RAGGED, size)]
    assert len(blocks) > 1 and z.tobytes() == before.tobytes()
    u, residual = haar_batch(z)
    assert np.concatenate([q for q, _ in blocks]).tobytes() == u.tobytes()
    assert nan_max(r for _, r in blocks) == residual


def _whole_chunk_fold(d, n, seed, mode, labels, statistic):
    # reference for _sample: the statistic of each whole chunk's unitaries,
    # from one haar_batch call on the chunk's _ginibre draw, folded
    acc, residuals = _Accumulator(len(labels)), []
    for index, done in enumerate(range(0, n, MC_CHUNK_SIZE)):
        u, residual = _haar(d, min(MC_CHUNK_SIZE, n - done), seed, index)
        residuals.append(residual)
        acc.add(statistic(u))
    mean, se_re, se_im = acc.finalize()
    return McReport(
        d=d, n=n, seed=seed, mode=mode, labels=labels,
        means=[complex(v) for v in mean],
        se_re=[float(v) for v in se_re],
        se_im=[float(v) for v in se_im],
        unitarity_residual_max=nan_max(residuals),
    )


@pytest.mark.parametrize("d", [2, 5, 12, 16])
@pytest.mark.parametrize("run", ["commutator", "sum", "product", "conjugation"])
def test_statistic_blocks_change_no_report_byte(monkeypatch, d, run):
    # a full chunk of several blocks and a chunk of 37 samples, on both
    # sides of GRAM_SCHMIDT_MAX_D
    assert _block_size(MC_CHUNK_SIZE, d) < MC_CHUNK_SIZE
    n, a, b = MC_CHUNK_SIZE + 37, range(d), [(-1) ** i * i / 3 for i in range(d)]

    def report():
        rep = (mc_conjugation_mean(a, n, SEED) if run == "conjugation"
               else mc_charpoly(a, b, n, SEED, mode=run))
        return json.dumps(rep.to_json_dict())

    got = report()
    monkeypatch.setattr(montecarlo, "_sample", _whole_chunk_fold)
    assert got == report()


# SHA-256 of json.dumps(report.to_json_dict()) at n = MC_CHUNK_SIZE + 37 and
# seed SEED, recorded when each chunk's draws were still made whole into one
# complex array, before they were streamed block by block: mc_charpoly of
# range(d) and ((-1)^i i / 3) in each mode, mc_entry_moments(5) and
# mc_conjugation_mean(range(5)).
REPORT_SHA256 = {
    ("commutator", 2): "14560edd0a6f02accb89ba94ad100842d511793d919e372b43f69f1d7eef89b4",
    ("commutator", 5): "75cdd86b8cfc72dfd9bae1528cdf4f7b95dadef21f429cd9fd3596d3a62d2082",
    ("commutator", 12): "1859a180ad25186488252d625a5ae58156f2357ae350ee044702f065d5c13d06",
    ("commutator", 16): "8b126e8de4d8a96c6c9a22bb124c798905e8fbc157f95c39c362753ec35ec8d9",
    ("sum", 2): "06ef66898f40fb56d13a286d513d0594fbb4c3bff7e50408b5843e3d042aa508",
    ("sum", 5): "d3adba6f7c665ffafb4b7fdcc2d939494a79c31d3f8eaa7bf389bc448c07328f",
    ("sum", 12): "1c001d120623acb538ff7e8fdc071f0debc662ee7cd0f4fff2b354d8e7c1a7db",
    ("sum", 16): "1cedc096629b5918196b3fa5e41fe9a60a1d25a85c3dae17ede946e876ce3772",
    ("product", 2): "f8be39c8c9e4f4ee9c91ec1da5146e3caf7283057d6e92ae22458ab7d49b5af8",
    ("product", 5): "9f14075169ff3431865f3ec8a0cd28c338e443b2098a2ae437df6b87b131b80a",
    ("product", 12): "b8f8cd77c97a12aee1c0c4f2af97403d18726ec4abc0996aab586232fff3acff",
    ("product", 16): "1655fd4a648aa98c987ef2eda6fb64675576dc1d89568830073b8dc47e7ea270",
    ("entry_moments", 5): "41229800d7099a5053d5b7821d02a3e0096590d09a30592ccb8e744af8dbfd6d",
    ("conjugation", 5): "43f77e74465f5d67c0541514ece1d3f745e29864d2fb3a331c561c62cb2e0938",
}


@pytest.mark.parametrize("run, d", sorted(REPORT_SHA256))
def test_reports_keep_their_pinned_bytes(run, d):
    n, a, b = MC_CHUNK_SIZE + 37, range(d), [(-1) ** i * i / 3 for i in range(d)]
    if run == "entry_moments":
        rep = mc_entry_moments(d, n, SEED)
    elif run == "conjugation":
        rep = mc_conjugation_mean(a, n, SEED)
    else:
        rep = mc_charpoly(a, b, n, SEED, mode=run)
    digest = hashlib.sha256(json.dumps(rep.to_json_dict()).encode()).hexdigest()
    assert digest == REPORT_SHA256[run, d]


def test_haar_phase_correction_removes_qr_bias():
    # with the phase fix, the diagonal of R is positive real; the first
    # column of U must have uniformly distributed phases, so its mean
    # should be near zero rather than biased along the positive axis
    u = _haar(2, 4000, SEED)[0]
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


@pytest.mark.parametrize("width", [1, 2, 16, 256])
def test_accumulator_folds_in_place_to_the_same_bytes(width):
    # add squares the deviations inside its input; the sums are those of
    # the squares of a fresh deviation array
    rng = np.random.default_rng(width)
    x = 3 + rng.standard_normal((4133, width)) + 1j * rng.standard_normal((4133, width))
    acc = _Accumulator(width)
    acc.add(x.copy())
    dev = x - x.sum(axis=0) / len(x)
    assert acc.m2_re.tobytes() == (dev.real**2).sum(axis=0).tobytes()
    assert acc.m2_im.tobytes() == (dev.imag**2).sum(axis=0).tobytes()


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
        lambda d, n, seed, mode, labels, statistic: statistic,
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
    u = _haar(d, 64, SEED, chunk=d)[0]
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
    a = mc_charpoly((1, -1), (1, -1), n=MC_CHUNK_SIZE + 1000, seed=SEED)
    b = mc_charpoly((1, -1), (1, -1), n=MC_CHUNK_SIZE + 1000, seed=SEED)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


class _RecordedRng:
    """A chunk's generator that records the samples of each draw into it."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def standard_normal(self, out):
        self.draws.append(len(out))
        return self.rng.standard_normal(out=out)


def test_report_counts_ragged_final_chunk(monkeypatch):
    # each chunk draws its real parts whole, then its imaginary parts one
    # block at a time, just before the block is orthonormalized
    draws, blocks = [], []
    chunk_rng, orthonormalize = montecarlo._chunk_rng, montecarlo.haar_batch

    def recorded_rng(seed, index):
        draws.append(f"chunk {index}")
        return _RecordedRng(chunk_rng(seed, index), draws)

    def recorded_block(z):
        blocks.append(len(z))
        draws.append("block")
        return orthonormalize(z)

    monkeypatch.setattr(montecarlo, "_chunk_rng", recorded_rng)
    monkeypatch.setattr(montecarlo, "haar_batch", recorded_block)
    rep = mc_charpoly((1, -1), (1, -1), n=MC_CHUNK_SIZE + 3, seed=SEED)
    half = MC_CHUNK_SIZE // 2
    assert draws == ["chunk 0", MC_CHUNK_SIZE, half, "block", half, "block",
                     "chunk 1", 3, 3, "block"]
    assert blocks == [MC_CHUNK_SIZE // 2, MC_CHUNK_SIZE // 2, 3]
    assert rep.n == MC_CHUNK_SIZE + 3
    assert rep.chunk_size == MC_CHUNK_SIZE


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


def test_band_misses_lists_missed_labels_in_report_order():
    rep = McReport(
        d=2, n=10, seed=0, mode="test",
        labels=["a", "b", "c", "d"],
        means=[1.5 + 0j, 1.0 + 1j, 0.0 + 0j, 9.0 + 0j],
        se_re=[0.1, 0.1, 0.1, 0.1],
        se_im=[0.1, 0.1, 0.1, 0.1],
        unitarity_residual_max=0.0,
    )
    # a misses in the real part, b only in the imaginary part, c hits, and
    # d misses but is left out of expected; the dict order is not the report's
    assert rep.band_misses({"c": 0, "b": 1, "a": Fraction(1)}) == ["a", "b"]
    assert rep.band_misses({"c": 0.0}) == []
    assert rep.band_misses({"d": 9, "a": 1.5}) == []
    assert rep.band_misses({}) == []


def test_commutator_means_hit_exact_values():
    rep = mc_charpoly((1, -1), (1, -1), n=40000, seed=SEED)
    assert rep.band_misses({"e_2": Fraction(8, 3)}) == []
    # the commutator is traceless sample by sample
    m1, se1 = rep.mean("e_1"), rep.se("e_1")
    assert m1 == 0 and se1 == (0.0, 0.0)


def test_sum_mode_matches_boxplus():
    sa, sb = (1, -1, 2), (0, 1, 3)
    p = MonicPoly.from_spectrum(sa)
    q = MonicPoly.from_spectrum(sb)
    want = boxplus(p, q)
    rep = mc_charpoly(sa, sb, n=60000, seed=SEED, mode="sum")
    assert rep.band_misses({f"e_{k}": want.a[k] for k in range(1, 4)}) == []


def test_product_mode_matches_boxtimes():
    sa, sb = (1, 2), (1, 3)
    p = MonicPoly.from_spectrum(sa)
    q = MonicPoly.from_spectrum(sb)
    want = boxtimes(p, q)
    rep = mc_charpoly(sa, sb, n=60000, seed=SEED, mode="product")
    assert rep.band_misses({f"e_{k}": want.a[k] for k in range(1, 3)}) == []


def test_commutator_mode_matches_convolution_d3():
    sa, sb = (1, 0, -1), (2, 1, 1)
    want = commutator_poly(
        MonicPoly.from_spectrum(sa), MonicPoly.from_spectrum(sb)
    )
    rep = mc_charpoly(sa, sb, n=60000, seed=SEED)
    assert rep.band_misses({f"e_{k}": want.a[k] for k in range(1, 4)}) == []


def test_mode_validation():
    with pytest.raises(ValueError):
        mc_charpoly((1, -1), (1, -1), n=100, seed=1, mode="nope")
    with pytest.raises(ValueError):
        mc_charpoly((1, -1), (1, 2, 3), n=100, seed=1)
    with pytest.raises(ValueError):
        mc_charpoly((1, -1), (1, -1), n=0, seed=1)


def test_chunk_cap_refuses_before_sampling(monkeypatch):
    def forbidden(seed, chunk_index):
        raise AssertionError("draw reached")

    monkeypatch.setattr(montecarlo, "_chunk_rng", forbidden)
    # one full chunk at d = 32 holds exactly the cap; at d = 33 it is refused
    assert MC_CHUNK_SIZE * 32**2 == MC_CHUNK_ENTRIES_CAP
    with pytest.raises(AssertionError, match="draw reached"):
        mc_charpoly([1.0] * 32, [1.0] * 32, n=MC_CHUNK_SIZE, seed=1)
    refused = f"n=4096, d=33: .* exceeds cap {MC_CHUNK_ENTRIES_CAP}$"
    with pytest.raises(CapExceededError, match=refused):
        mc_charpoly([1.0] * 33, [1.0] * 33, n=MC_CHUNK_SIZE, seed=1)


@pytest.mark.parametrize("call", [
    lambda: mc_charpoly([], [], 10, 1),
    lambda: mc_conjugation_mean([], 10, 1),
    lambda: mc_entry_moments(0, 10, 1),
    lambda: mc_entry_moments(-1, 10, 1),
], ids=["charpoly", "conjugation", "moments-0", "moments-negative"])
def test_dimension_below_one_refused_before_sampling(monkeypatch, call):
    def forbidden(seed, chunk_index):
        raise AssertionError("draw reached")

    monkeypatch.setattr(montecarlo, "_chunk_rng", forbidden)
    with pytest.raises(ValueError, match="^need d >= 1$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: mc_charpoly((1, -1), (1, -1), 1, 3),
    lambda: mc_conjugation_mean((1, 2), 1, 3),
    lambda: mc_entry_moments(2, 1, 3),
], ids=["charpoly", "conjugation", "moments"])
def test_one_sample_refused_before_sampling(monkeypatch, call):
    # one sample has no standard error, so its band would be a point
    def forbidden(seed, chunk_index):
        raise AssertionError("draw reached")

    monkeypatch.setattr(montecarlo, "_chunk_rng", forbidden)
    with pytest.raises(ValueError, match="^need n >= 2$"):
        call()


# ---------------------------------------------------------- other observables

def test_entry_moment_bands():
    for d in (2, 4):
        rep = mc_entry_moments(d, n=40000, seed=SEED)
        expected = {"abs_u11_sq": 1 / d, "abs_u11_4th": 2 / (d * (d + 1))}
        assert rep.band_misses(expected) == [], d


def test_conjugation_mean_is_trace_projection():
    spec = (Fraction(3), Fraction(1), Fraction(-1))
    rep = mc_conjugation_mean(spec, n=40000, seed=SEED)
    expected = {f"entry_{i}_{j}": 1.0 if i == j else 0.0
                for i in range(1, 4) for j in range(1, 4)}
    assert rep.band_misses(expected) == []
    assert verify._conjugation_failure(rep, spec) is None


def test_unitarity_residual_tracked():
    rep = mc_entry_moments(3, n=2000, seed=SEED)
    assert 0 < rep.unitarity_residual_max < 1e-12


def _zero_a_column(monkeypatch, on_calls):
    # column 1 of the first sample of a block becomes zero before the sweep,
    # so its normalization divides 0 by 0; returns the list of call numbers
    sweep, calls = montecarlo._gram_schmidt, []

    def sweep_with_zero_column(z):
        calls.append(len(calls) + 1)
        if calls[-1] in on_calls:
            z = z.copy()
            z[0, :, 1] = 0
        return sweep(z)

    monkeypatch.setattr(montecarlo, "_gram_schmidt", sweep_with_zero_column)
    return calls


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_zero_ginibre_column_gives_a_nan_residual_that_fails(monkeypatch):
    # the NaN sits in the middle column of the sweep and in the second chunk,
    # after the three blocks of the first, where a fold with the builtin max
    # would keep the finite value before it
    calls = _zero_a_column(monkeypatch, on_calls={4})
    report = mc_conjugation_mean((1, 2, 3), n=MC_CHUNK_SIZE + 8, seed=SEED)
    assert calls == [1, 2, 3, 4]
    assert np.isnan(report.unitarity_residual_max)
    assert report.to_json_dict()["unitarity_residual_max"] == "nan"
    assert verify._conjugation_failure(report, (1, 2, 3)) == "d=3: unitarity residual nan"


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_haar_suite_fails_a_nan_residual(monkeypatch):
    _zero_a_column(monkeypatch, on_calls={1, 2, 3})
    [row] = verify.verify_haar(verify.VerifyRun(mc_n=8))
    assert not row.passed and row.detail == "d=2: unitarity residual nan"


def test_nan_max_propagates_nan():
    nan = float("nan")
    assert nan_max([]) == 0.0 and nan_max([1.0, 3.0, 2.0]) == 3.0
    for values in ([nan, 1.0], [1.0, nan], [1.0, nan, 2.0]):
        assert np.isnan(nan_max(values)), values
