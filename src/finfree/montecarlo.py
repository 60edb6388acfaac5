"""Haar-unitary Monte Carlo cross-checks for the exact layer.

Sampling is chunked: chunk c of a run with seed s draws min(MC_CHUNK_SIZE,
samples left) unitaries from the generator seeded by
SeedSequence(entropy=s, spawn_key=(c,)), and chunk results are folded in
index order, so a report is a pure function of (d, n, seed) down to the byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import MC_CHUNK_ENTRIES_CAP, MC_CHUNK_SIZE, MC_WORK_CAP, check_cap


def nan_max(values) -> float:
    """The largest of some nonnegative values (0.0 if there are none), and
    NaN if any is NaN. The builtin max keeps its running maximum when the
    next value is NaN, so it would drop every NaN but a leading one."""
    return float(np.max(list(values), initial=0.0))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.default_rng(ss)


# Largest d at which _gram_schmidt beats the blocked LAPACK QR of
# _householder by a clear margin on a 4096-sample chunk (2-vCPU x86 host,
# OpenBLAS, one thread, 21 interleaved runs; median ratio of the sweep's time
# to LAPACK's, with its quartiles): 0.68 (0.67-0.68) at d = 9, 0.73
# (0.71-0.75) at d = 10, 0.82 (0.80-0.83) at d = 11, 0.97 (0.94-1.10) at
# d = 12, 1.02 (1.00-1.19) at d = 13 and 1.31 (1.29-1.32) at d = 14. Above
# it the sweep's d^3 elementwise work costs more than LAPACK's per-matrix
# dispatch. Moving the cut would change the bytes of the reports at the d
# it moves.
GRAM_SCHMIDT_MAX_D = 11


def haar_batch(d: int, m: int, rng: np.random.Generator) -> tuple:
    """m Haar-distributed d x d unitaries, stacked along axis 0, and their
    unitarity residual max|Q^H Q - I| over the batch.

    The Q of complex Ginibre matrices Z = QR whose R has a positive real
    diagonal. That Q is exactly Haar (Mezzadri 2007); both orthonormalizers
    below return it, up to rounding, from the same draws.
    """
    z = np.empty((m, d, d), dtype=complex)
    # complex division by sqrt(2) multiplies each part by 1/sqrt(2), so
    # this writes the bytes of (x + iy) / sqrt(2) with no complex temporary
    scale = 1 / np.sqrt(2.0)
    for part in (z.real, z.imag):
        np.multiply(rng.standard_normal((m, d, d)), scale, out=part)
    return _gram_schmidt(z) if d <= GRAM_SCHMIDT_MAX_D else _householder(z)


# Each blocked loop below cuts m samples into ceil(m * entries per sample /
# budget) blocks of equal size (the last one may be shorter), so that its
# temporaries stay block-sized however large the chunk is.
#
# The sweep counts the entries of a (d, block) column slice: at 4096 (64 KiB
# of complex128) a column, its temporaries and the columns it is projected
# against stay in cache. In 16 000-sample d = 8 mc_charpoly runs, budgets of
# 2048, 4096, 8192, 16384 and 32768 entries took 283, 252, 246, 250 and 268
# ms of CPU time (medians of 10); at d = 5 the budgets from 4096 to 16384
# tied within 5%.
#
# The QR and the statistic count the d^2 entries of each sample. Medians of
# 21 interleaved runs on one 4096-sample chunk, one CPU of a 2-vCPU x86 host,
# OpenBLAS on one thread, for budgets of 2^13, 2^14, 2^15, 2^16, 2^17 entries:
#   _householder, ms    d = 12: 59.1, 56.2, 56.4, 60.8, 68.8
#                       d = 16: 85.9, 85.2, 78.8, 80.0, 82.5
#                       d = 32: 327.9, 315.0, 310.6, 320.2, 331.0
# and for budgets of 2^15, 2^16, 2^17, 2^18 entries:
#   mc_charpoly, ms     d = 8: 26.3, 25.9, 26.9, 32.3
#   (statistic and      d = 16: 125.6, 122.6, 119.0, 115.9
#   fold only)          d = 32: 1050, 977, 897, 838
# QR blocks of 2^15 entries (512 KiB) are at or near the fastest at every d;
# at 2^16, haar_batch(12, 4096) peaks at 2.66 times its result instead of
# 2.37. Statistic blocks of 2^16 entries (1 MiB) tie with the fastest at
# d <= 16, where the benchmark samples; at 2^17, a full d = 12
# mc_conjugation_mean chunk peaks at 2.68 times its unitaries instead of 2.42.
_SWEEP_BLOCK_ENTRIES = 4096
_QR_BLOCK_ENTRIES = 2**15
_STATISTIC_BLOCK_ENTRIES = 2**16


def _block_size(m: int, sample_entries: int, budget: int) -> int:
    """Samples per block when m samples of sample_entries entries each are
    cut into blocks of about budget entries, and of at least one sample."""
    blocks = -(-m * sample_entries // budget)
    return -(-m // blocks)


def _gram_schmidt(z: np.ndarray) -> tuple:
    """Classical Gram-Schmidt applied twice, vectorized over the samples.

    z is only read. The samples are swept in blocks: each block is copied
    sample-last, so that column j of every sample in it is one contiguous
    (d, block) slice, and each projection is a few numpy ops over such
    slices, one earlier column at a time. Two passes keep Q orthonormal to
    working precision for any numerically nonsingular Z (Giraud, Langou &
    Rozloznik 2005). Each column is divided by its positive norm, which is
    R's diagonal. Once column j is final, column j of Q^H Q is formed, so
    the residual needs no second product. Each block of Q is written into
    the (m, d, d) result as soon as it is final.
    """
    m, d, _ = z.shape
    size = _block_size(m, d, _SWEEP_BLOCK_ENTRIES)
    # the block buffers are allocated before the result: the other way round,
    # a 200 000-sample d = 2 mc_charpoly run in a fresh interpreter took
    # 9 940 page faults instead of 1 197 (glibc malloc, x86-64 Linux)
    block = np.empty((3, d, d, size), dtype=complex)
    u = np.empty_like(z)
    column_residuals = []
    for start in range(0, m, size):
        stop = min(start + size, m)
        columns, qb, qb_conj = block[:, :, :, :stop - start]
        np.copyto(columns, z[start:stop].T)
        for j in range(d):
            v = columns[j]
            for _ in range(2 if j else 0):  # column 0 has nothing to project out
                proj = qb[0] * (qb_conj[0] * v).sum(axis=0)
                for k in range(1, j):
                    proj += qb[k] * (qb_conj[k] * v).sum(axis=0)
                v = v - proj
            np.divide(v, np.sqrt((v.real**2 + v.imag**2).sum(axis=0)), out=qb[j])
            np.conjugate(qb[j], out=qb_conj[j])
            gram = np.stack([(qb_conj[k] * qb[j]).sum(axis=0) for k in range(j + 1)])
            gram[j] -= 1
            column_residuals.append(np.abs(gram).max())
        u[start:stop] = qb.T
    return u, nan_max(column_residuals)


def _householder(z: np.ndarray) -> tuple:
    """LAPACK QR per matrix, with R's diagonal phases pushed into Q.

    z is only read. The samples are factored in blocks, and each block of Q
    is written into the (m, d, d) result as soon as its phases are fixed, so
    R, the temporary Q^H and the Gram product are block-sized. The residual
    is the largest over the blocks' Gram products.
    """
    m, d, _ = z.shape
    size = _block_size(m, d * d, _QR_BLOCK_ENTRIES)
    u = np.empty_like(z)
    i = np.arange(d)
    block_residuals = []
    for start in range(0, m, size):
        q, r = np.linalg.qr(z[start:start + size])
        diag = np.einsum("mii->mi", r)
        mod = np.abs(diag)
        phases = np.where(mod == 0, 1.0 + 0j, diag / np.where(mod == 0, 1.0, mod))
        del r, diag  # so that R is not held through the product below
        q *= phases[:, None, :]
        gram = q.conj().transpose(0, 2, 1) @ q
        gram[:, i, i] -= 1
        block_residuals.append(np.abs(gram).max())
        u[start:start + size] = q
    return u, nan_max(block_residuals)


def _elementary_from_traces(traces: np.ndarray) -> np.ndarray:
    """Newton's identities per sample: traces (m, d) -> e_1..e_d (m, d)."""
    m, d = traces.shape
    e = np.zeros((m, d + 1), dtype=complex)
    e[:, 0] = 1.0
    for j in range(1, d + 1):
        acc = np.zeros(m, dtype=complex)
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * e[:, j - i] * traces[:, i - 1]
        e[:, j] = acc / j
    return e[:, 1:]


@dataclass
class McReport:
    """Means and standard errors of per-sample statistics, with provenance."""

    d: int
    n: int
    seed: int
    chunk_size: int = field(default=MC_CHUNK_SIZE, init=False)
    mode: str
    labels: list
    means: list
    se_re: list
    se_im: list
    unitarity_residual_max: float

    def mean(self, label) -> complex:
        return self.means[self.labels.index(label)]

    def se(self, label) -> tuple:
        i = self.labels.index(label)
        return self.se_re[i], self.se_im[i]

    def band_misses(self, expected) -> list:
        """The labels of `expected`, in report order, whose mean misses its
        band: the real part around expected[label], the imaginary part
        around 0, each by within_band. Labels not in `expected` are skipped."""
        rows = zip(self.labels, self.means, self.se_re, self.se_im)
        return [
            label for label, mean, se_re, se_im in rows
            if label in expected
            and not (within_band(expected[label], mean.real, se_re)
                     and within_band(0.0, mean.imag, se_im))
        ]

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "mode": self.mode,
            "unitarity_residual_max": repr(self.unitarity_residual_max),
            "statistics": [
                {
                    "label": label,
                    "mean_re": repr(mean.real),
                    "mean_im": repr(mean.imag),
                    "se_re": repr(sr),
                    "se_im": repr(si),
                }
                for label, mean, sr, si in zip(
                    self.labels, self.means, self.se_re, self.se_im
                )
            ],
        }


class _Accumulator:
    """Streaming mean and standard error of complex samples.

    The squared deviations (M2) of the real and imaginary parts are summed
    about each chunk's own mean and merged by the Chan-Golub-LeVeque update,
    so the variance does not cancel when |mean| dwarfs the spread.
    """

    def __init__(self, width: int):
        self.count = 0
        self.sum = np.zeros(width, dtype=complex)
        self.m2_re = np.zeros(width)
        self.m2_im = np.zeros(width)

    def add(self, samples: np.ndarray):
        """Fold one chunk of samples (m, width) in. samples is overwritten
        with its squared deviations from the chunk mean, part by part, so
        no array of its size is made."""
        take = samples.shape[0]
        chunk_sum = samples.sum(axis=0)
        chunk_mean = chunk_sum / take
        dev = np.subtract(samples, chunk_mean, out=samples)
        m2_re = np.square(dev.real, out=dev.real).sum(axis=0)
        m2_im = np.square(dev.imag, out=dev.imag).sum(axis=0)
        if self.count:
            delta = chunk_mean - self.sum / self.count
            weight = self.count * take / (self.count + take)
            m2_re += weight * delta.real**2
            m2_im += weight * delta.imag**2
        self.count += take
        self.sum += chunk_sum
        self.m2_re += m2_re
        self.m2_im += m2_im

    def finalize(self):
        n = self.count
        dof = max(n - 1, 1)  # one sample has M2 == 0 exactly
        se_re = np.sqrt(self.m2_re / dof / n)
        se_im = np.sqrt(self.m2_im / dof / n)
        return self.sum / n, se_re, se_im


def _sample(d: int, n: int, seed: int, mode: str, labels: list,
            statistic) -> McReport:
    """Means and standard errors of statistic(U) over n Haar samples.

    statistic maps a batch of unitaries (m, d, d) to per-sample values
    (m, len(labels)); chunks are drawn and folded in order. statistic is
    called on blocks of a chunk's samples, so its temporaries are
    block-sized, and the chunk's values are folded together.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # refused before a chunk is allocated: memory first, then time
    check_cap(min(n, MC_CHUNK_SIZE) * d * d, MC_CHUNK_ENTRIES_CAP,
              f"Monte Carlo chunk at n={n}, d={d}: min(n, {MC_CHUNK_SIZE})*d^2")
    check_cap(n * d**3, MC_WORK_CAP, f"Monte Carlo work at n={n}, d={d}: n*d^3")
    acc = _Accumulator(len(labels))
    residuals = []
    for index, done in enumerate(range(0, n, MC_CHUNK_SIZE)):
        m = min(MC_CHUNK_SIZE, n - done)
        u, chunk_residual = haar_batch(d, m, _chunk_rng(seed, index))
        residuals.append(chunk_residual)
        values = np.empty((m, len(labels)), dtype=complex)
        size = _block_size(m, d * d, _STATISTIC_BLOCK_ENTRIES)
        for start in range(0, m, size):
            values[start:start + size] = statistic(u[start:start + size])
        acc.add(values)
        # values (d^2 per sample in mc_conjugation_mean) is freed before the
        # next draw, but u is not: with no array of the chunk left, glibc
        # malloc gave the heap top back to the system after every chunk and
        # faulted it back in on the next: a fresh `finfree verify all` took
        # 127 600 minor page faults instead of 14 900, and the perfbench
        # verify_all workload ran 12% fewer ops per second
        del values
    mean, se_re, se_im = acc.finalize()
    return McReport(
        d=d,
        n=n,
        seed=seed,
        mode=mode,
        labels=labels,
        means=[complex(v) for v in mean],
        se_re=[float(v) for v in se_re],
        se_im=[float(v) for v in se_im],
        unitarity_residual_max=nan_max(residuals),
    )


def mc_charpoly(spec_a, spec_b, n: int, seed: int,
                mode: str = "commutator") -> McReport:
    """Sampled means of e_1..e_d for a two-matrix word in A and UBU*.

    mode selects the word: 'commutator' (AT - TA), 'sum' (A + T), or
    'product' (AT), with T = UBU* and A, B diagonal with the given spectra.
    """
    a = np.array([float(v) for v in spec_a])
    b = np.array([float(v) for v in spec_b])
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    d = a.size
    if mode not in ("commutator", "sum", "product"):
        raise ValueError(f"unknown mode {mode!r}")

    def elementary(u):
        w = (u * b[None, None, :]) @ u.conj().transpose(0, 2, 1)  # T = UBU*
        if mode == "commutator":
            w *= a[:, None] - a[None, :]  # AT - TA
        elif mode == "sum":
            w += np.diag(a)  # A + T
        else:
            w *= a[:, None]  # AT
        # P_j = W^j up to j = top costs floor((d-1)/2) products, two powers
        # alive at a time. tr W^j up to top is the trace of P_j; above top
        # tr W^(2j) = sum P_j o P_j^T and tr W^(2j+1) = sum P_j o P_(j+1)^T.
        traces = np.empty((len(u), d), dtype=complex)
        traces[:, 0] = np.einsum("mii->m", w)
        top = (d + 1) // 2
        low = w
        for j in range(1, d // 2 + 1):
            if 2 * j > top:
                traces[:, 2 * j - 1] = np.einsum("mij,mji->m", low, low)
            if 2 * j < d:
                high = low @ w
                traces[:, j] = np.einsum("mii->m", high)
                if 2 * j + 1 > top:
                    traces[:, 2 * j] = np.einsum("mij,mji->m", low, high)
                low = high
        return _elementary_from_traces(traces)

    return _sample(d, n, seed, mode, [f"e_{k}" for k in range(1, d + 1)], elementary)


def mc_entry_moments(d: int, n: int, seed: int) -> McReport:
    """Sampled |u_11|^2 and |u_11|^4 of Haar unitaries."""

    def moments(u):
        sq = np.abs(u[:, 0, 0]) ** 2
        return np.stack([sq, sq**2], axis=1).astype(complex)

    return _sample(d, n, seed, "entry_moments", ["abs_u11_sq", "abs_u11_4th"], moments)


def mc_conjugation_mean(spec_x, n: int, seed: int) -> McReport:
    """Sampled mean of U X U* entrywise, X diagonal with the given spectrum.

    The exact mean is (tr X / d) times the identity; the report labels are
    'entry_i_j' in row-major order.
    """
    x = np.array([float(v) for v in spec_x])
    d = x.size

    def conjugate(u):
        t = (u * x[None, None, :]) @ u.conj().transpose(0, 2, 1)
        return t.reshape(len(u), d * d)

    return _sample(d, n, seed, "conjugation",
                   [f"entry_{i}_{j}" for i in range(1, d + 1) for j in range(1, d + 1)],
                   conjugate)


def within_band(exact, mean, se) -> bool:
    """|mean - exact| <= 4 se + 1e-9 max(1, |exact|).

    The additive floor only matters when the per-sample statistic is an
    exact constant (se == 0), where pure se bands have zero width.
    """
    exact = float(exact)
    return abs(mean - exact) <= 4.0 * se + 1e-9 * max(1.0, abs(exact))
