"""Haar-unitary Monte Carlo cross-checks for the exact layer.

Sampling is chunked: chunk c of a run with seed s draws min(MC_CHUNK_SIZE,
samples left) unitaries from the generator seeded by
SeedSequence(entropy=s, spawn_key=(c,)), and chunk results are folded in
index order, so a report is a pure function of (d, n, seed) down to the byte.
No array holds a chunk's draws: each block of the chunk draws its samples'
Ginibre entries in sample order, the real and imaginary part of each entry
side by side, just before the block is orthonormalized, so a report does not
depend on how its chunks are cut into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import MC_CHUNK_SIZE, check_mc_caps


def nan_max(values) -> float:
    """The largest of some nonnegative values (0.0 if there are none), and
    NaN if any is NaN. The builtin max keeps its running maximum when the
    next value is NaN, so it would drop every NaN but a leading one."""
    return float(np.max(list(values), initial=0.0))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.default_rng(ss)


# Largest d at which _gram_schmidt beats the LAPACK QR of _householder by a
# clear margin over the blocks of a 4096-sample chunk (2-vCPU x86 host,
# OpenBLAS, one thread, 21 interleaved runs; median ratio of the sweep's time
# to LAPACK's, with its quartiles): 0.79 (0.64-0.82) at d = 9, 0.75
# (0.71-0.82) at d = 10, 0.86 (0.83-0.88) at d = 11, 1.02 (0.99-1.06) at
# d = 12, 1.09 (1.06-1.19) at d = 13 and 1.34 (1.19-1.42) at d = 14. Above
# it the sweep's d^3 elementwise work costs more than LAPACK's per-matrix
# dispatch. Moving the cut would change the bytes of the reports at the d
# it moves.
GRAM_SCHMIDT_MAX_D = 11


def haar_batch(z: np.ndarray) -> tuple:
    """The Haar-distributed unitaries of a block of Ginibre draws z (m, d, d),
    stacked along axis 0, and their unitarity residual max|Q^H Q - I|.

    The Q of Z = QR whose R has a positive real diagonal. That Q is exactly
    Haar (Mezzadri 2007); both orthonormalizers below return it, up to
    rounding, from the same draws. z is only read, and each sample's Q
    depends on that sample's draws alone.
    """
    return _gram_schmidt(z) if z.shape[-1] <= GRAM_SCHMIDT_MAX_D else _householder(z)


# _sample cuts each chunk into ceil(m * d / _BLOCK_ENTRIES) blocks of equal
# size (the last one may be shorter), so that a block's (d, block) column
# slice holds at most 4096 complex entries (64 KiB) and stays in cache with
# the columns the sweep projects it against, and every temporary of the
# orthonormalizer and the statistic is block-sized. CPU time of one
# mc_charpoly run, medians of 11 interleaved runs on one CPU of a 2-vCPU x86
# host, OpenBLAS on one thread, for budgets of 1024 to 16384 entries:
#   d = 2, n = 20 000:   21.4, 19.3, 18.0, 17.7, 14.8 ms
#   d = 5, n = 8192:     62.2, 51.5, 44.5, 44.0, 44.2 ms
#   d = 8, n = 8192:     131.6, 86.4, 78.6, 87.7, 98.0 ms
#   d = 12, n = 4096:    122.4, 127.1, 108.0, 127.8, 140.7 ms
#   d = 16, n = 4096:    245.8, 216.5, 211.1, 210.7, 231.7 ms
# 4096 is at or near the fastest from d = 5 up; at d = 2, where each call's
# fixed cost dominates, fewer and larger blocks are faster. The minor page
# faults of a fresh `finfree verify all` hang on glibc malloc's thresholds
# more than on the budget: 3 646, 9 425, 6 327 and 10 625 for 2048 to 16384.
_BLOCK_ENTRIES = 4096


def _block_size(m: int, d: int) -> int:
    """Samples per block when m samples are cut into blocks of about
    _BLOCK_ENTRIES entries per column slice, and of at least one sample."""
    blocks = -(-m * d // _BLOCK_ENTRIES)
    return -(-m // blocks)


def _gram_schmidt(z: np.ndarray) -> tuple:
    """Classical Gram-Schmidt applied twice, vectorized over the samples.

    z is copied sample-last, so that column j of every sample is one
    contiguous (d, m) slice, and each projection is a few numpy ops over
    such slices, one earlier column at a time. Two passes keep Q
    orthonormal to working precision for any numerically nonsingular Z
    (Giraud, Langou & Rozloznik 2005). Each column is divided by its
    positive norm, which is R's diagonal. Once column j is final, column j
    of Q^H Q is formed, so the residual needs no second product.
    """
    d = z.shape[-1]
    columns = z.T.copy()
    q = np.empty_like(columns)
    q_conj = np.empty_like(columns)
    column_residuals = []
    for j in range(d):
        v = columns[j]
        for _ in range(2 if j else 0):  # column 0 has nothing to project out
            proj = q[0] * (q_conj[0] * v).sum(axis=0)
            for k in range(1, j):
                proj += q[k] * (q_conj[k] * v).sum(axis=0)
            v = v - proj
        np.divide(v, np.sqrt((v.real**2 + v.imag**2).sum(axis=0)), out=q[j])
        np.conjugate(q[j], out=q_conj[j])
        gram = np.stack([(q_conj[k] * q[j]).sum(axis=0) for k in range(j + 1)])
        gram[j] -= 1
        column_residuals.append(np.abs(gram).max())
    # sample-first and contiguous, as the statistics' matrix products expect
    return np.ascontiguousarray(q.T), nan_max(column_residuals)


def _householder(z: np.ndarray) -> tuple:
    """LAPACK QR per matrix, with R's diagonal phases pushed into Q."""
    d = z.shape[-1]
    q, r = np.linalg.qr(z)
    diag = np.einsum("mii->mi", r)
    mod = np.abs(diag)
    phases = np.where(mod == 0, 1.0 + 0j, diag / np.where(mod == 0, 1.0, mod))
    del r, diag  # so that R is not held through the product below
    q *= phases[:, None, :]
    gram = q.conj().transpose(0, 2, 1) @ q
    gram[:, np.arange(d), np.arange(d)] -= 1
    return q, np.abs(gram).max()


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
        se_re = np.sqrt(self.m2_re / (n - 1) / n)
        se_im = np.sqrt(self.m2_im / (n - 1) / n)
        return self.sum / n, se_re, se_im


def _sample(d: int, n: int, seed: int, mode: str, labels: list,
            statistic) -> McReport:
    """Means and standard errors of statistic(U) over n Haar samples.

    statistic maps a batch of unitaries (m, d, d) to per-sample values
    (m, len(labels)). Each block of a chunk draws its Ginibre matrices from
    the chunk's generator in sample order, real and imaginary part of each
    entry side by side, just before the block is orthonormalized and
    measured into the chunk's values. A sample's draws are then the same
    numbers however the chunk is cut into blocks, so a report does not
    depend on the block budget. Values are folded per chunk, chunks in order.
    """
    check_mc_caps(d, n)  # before anything is allocated
    acc = _Accumulator(len(labels))
    # one draw buffer for the whole run, of the first chunk's block size: a
    # later chunk is no longer than the first and its blocks no longer than
    # the first chunk's, since _block_size never grows as m shrinks. The
    # entries are standard normal, not scaled by 1/sqrt(2): Q does not
    # depend on a positive scale of Z.
    draws = np.empty((_block_size(min(n, MC_CHUNK_SIZE), d), d, d, 2))
    residuals = []
    for index, done in enumerate(range(0, n, MC_CHUNK_SIZE)):
        m = min(MC_CHUNK_SIZE, n - done)
        rng = _chunk_rng(seed, index)
        values = np.empty((m, len(labels)), dtype=complex)
        size = _block_size(m, d)
        for start in range(0, m, size):
            stop = min(start + size, m)
            z = rng.standard_normal(out=draws[:stop - start]).view(complex)[..., 0]
            u, residual = haar_batch(z)
            residuals.append(residual)
            values[start:stop] = statistic(u)
        acc.add(values)
        # values (d^2 per sample in mc_conjugation_mean) is freed before the
        # next chunk's values are made, but the last block's u is not:
        # freeing it too moved where glibc malloc put the next blocks, and a
        # 16 000-sample d = 8 mc_charpoly op in a loop of perfbench's ops
        # took about 2 870 minor page faults instead of 785
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
