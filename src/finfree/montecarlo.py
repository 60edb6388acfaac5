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


# Largest d at which _gram_schmidt beats per-matrix LAPACK QR by a clear
# margin on a 4096-sample chunk (2-vCPU x86 host, OpenBLAS, one thread; the
# timing table is in CHANGES.md). Over several interleaved runs the sweep
# took 0.60-0.76 of LAPACK's time at d = 10 and 0.74-0.92 at d = 11, but
# 0.78-0.98 at d = 12, 0.80-1.17 at d = 13, 0.91-1.22 at d = 14 and
# 1.36-1.37 at d = 16. Above it the sweep's d^3 elementwise work costs more
# than LAPACK's per-matrix dispatch.
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


# Samples per block of the sweep: the chunk is cut into the fewest equal
# blocks whose (d, block) column slices hold at most this many entries
# (64 KiB of complex128), so that a column, its temporaries and the columns
# it is projected against stay in cache. In 16 000-sample d = 8 mc_charpoly
# runs, budgets of 2048, 4096, 8192, 16384 and 32768 entries took 283, 252,
# 246, 250 and 268 ms of CPU time (medians of 10); at d = 5 the budgets
# from 4096 to 16384 tied within 5%.
_SWEEP_BLOCK_ENTRIES = 4096


def _sweep_block(d: int, m: int) -> int:
    """Samples per block when _gram_schmidt sweeps m samples of size d."""
    blocks = -(-m * d // _SWEEP_BLOCK_ENTRIES)
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
    size = _sweep_block(d, m)
    # the block buffers are allocated before the result: the other way round,
    # a 200 000-sample d = 2 mc_charpoly run took 10 711 page faults instead
    # of 328 (glibc malloc, x86-64 Linux)
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
    """LAPACK QR per matrix, with R's diagonal phases pushed into Q."""
    q, r = np.linalg.qr(z)
    diag = np.einsum("mii->mi", r)
    mod = np.abs(diag)
    phases = np.where(mod == 0, 1.0 + 0j, diag / np.where(mod == 0, 1.0, mod))
    del r, diag  # so that R is not held through the product below
    q *= phases[:, None, :]
    gram = q.conj().transpose(0, 2, 1) @ q
    i = np.arange(q.shape[-1])
    gram[:, i, i] -= 1
    return q, float(np.abs(gram).max())


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
        take = samples.shape[0]
        chunk_sum = samples.sum(axis=0)
        chunk_mean = chunk_sum / take
        dev = samples - chunk_mean
        m2_re = (dev.real**2).sum(axis=0)
        m2_im = (dev.imag**2).sum(axis=0)
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
    (m, len(labels)); batches are drawn and folded in chunk order.
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
        u, chunk_residual = haar_batch(
            d, min(MC_CHUNK_SIZE, n - done), _chunk_rng(seed, index)
        )
        residuals.append(chunk_residual)
        acc.add(statistic(u))
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
