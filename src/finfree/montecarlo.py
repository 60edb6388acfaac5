"""Haar-unitary Monte Carlo cross-checks for the exact layer.

Sampling is chunked; chunk c of a run with seed s uses the generator seeded
by SeedSequence(entropy=s, spawn_key=(c,)), and chunk results are folded in
index order, so a report is a pure function of (d, n, seed, chunk_size) down
to the byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
# timing table is in CHANGES.md). Above it the sweep's d^3 elementwise work
# through numpy temporaries costs more than LAPACK's per-matrix dispatch.
GRAM_SCHMIDT_MAX_D = 9


def haar_batch(d: int, m: int, rng: np.random.Generator) -> tuple:
    """m Haar-distributed d x d unitaries, stacked along axis 0, and their
    unitarity residual max|Q^H Q - I| over the batch.

    The Q of complex Ginibre matrices Z = QR whose R has a positive real
    diagonal. That Q is exactly Haar (Mezzadri 2007); both orthonormalizers
    below return it, up to rounding, from the same draws. For the sweep the
    draws are stored sample-last, z[j, i, s] = Z_s[i, j], the layout it reads.
    """
    sweep = d <= GRAM_SCHMIDT_MAX_D
    z = np.empty((d, d, m) if sweep else (m, d, d), dtype=complex)
    # complex division by sqrt(2) multiplies each part by 1/sqrt(2), so
    # this writes the bytes of (x + iy) / sqrt(2) with no complex temporary
    scale = 1 / np.sqrt(2.0)
    for part in (z.real, z.imag):
        draw = rng.standard_normal((m, d, d))
        np.multiply(draw.T if sweep else draw, scale, out=part)
    del draw  # not held through the orthonormalization
    return _gram_schmidt(z) if sweep else _householder(z)


def _gram_schmidt(columns: np.ndarray) -> tuple:
    """Classical Gram-Schmidt applied twice, vectorized over the samples.

    columns[j, :, s] is column j of sample s, so each projection is a few
    numpy ops over the whole chunk; the input is only read. Two passes keep
    Q orthonormal to working precision for any numerically nonsingular Z
    (Giraud, Langou & Rozloznik 2005). Each column is divided by its
    positive norm, which is R's diagonal. Once column j is final, column j
    of Q^H Q is formed, so the residual needs no second product.
    """
    d = columns.shape[0]
    q = np.empty_like(columns)
    q_conj = np.empty_like(q)
    column_residuals = []
    for j in range(d):
        v = columns[j]
        for _ in range(2):
            coef = (q_conj[:j] * v).sum(axis=1)
            v = v - (q[:j] * coef[:, None, :]).sum(axis=0)
        v /= np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
        q[j] = v
        q_conj[j] = v.conj()
        gram = np.einsum("kim,im->km", q_conj[:j + 1], v)  # no (j+1, d, m) temporary
        gram[j] -= 1
        column_residuals.append(np.abs(gram).max())
    return np.ascontiguousarray(q.transpose(2, 1, 0)), nan_max(column_residuals)


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
    chunk_size: int
    mode: str
    labels: list
    means: list
    se_re: list
    se_im: list
    unitarity_residual_max: float
    extras: dict = field(default_factory=dict)

    def mean(self, label) -> complex:
        return self.means[self.labels.index(label)]

    def se(self, label) -> tuple:
        i = self.labels.index(label)
        return self.se_re[i], self.se_im[i]

    def to_json_dict(self) -> dict:
        payload = {
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
        if self.extras:
            payload["extras"] = {k: repr(v) for k, v in sorted(self.extras.items())}
        return payload


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


def _iter_chunks(n: int, chunk_size: int):
    if n < 1 or chunk_size < 1:
        raise ValueError("need n >= 1 and chunk_size >= 1")
    index = 0
    done = 0
    while done < n:
        take = min(chunk_size, n - done)
        yield index, take
        index += 1
        done += take


def _sample(d: int, n: int, seed: int, chunk_size: int, mode: str, labels: list,
            statistic, extras=None) -> McReport:
    """Means and standard errors of statistic(U) over n Haar samples.

    statistic maps a batch of unitaries (m, d, d) to per-sample values
    (m, len(labels)); batches are drawn and folded in chunk order.
    """
    acc = _Accumulator(len(labels))
    residuals = []
    for index, take in _iter_chunks(n, chunk_size):
        u, chunk_residual = haar_batch(d, take, _chunk_rng(seed, index))
        residuals.append(chunk_residual)
        acc.add(statistic(u))
    mean, se_re, se_im = acc.finalize()
    return McReport(
        d=d,
        n=n,
        seed=seed,
        chunk_size=chunk_size,
        mode=mode,
        labels=labels,
        means=[complex(v) for v in mean],
        se_re=[float(v) for v in se_re],
        se_im=[float(v) for v in se_im],
        unitarity_residual_max=nan_max(residuals),
        extras=extras or {},
    )


def mc_charpoly(spec_a, spec_b, n: int, seed: int, mode: str = "commutator",
                chunk_size: int = 4096) -> McReport:
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

    return _sample(d, n, seed, chunk_size, mode,
                   [f"e_{k}" for k in range(1, d + 1)], elementary)


def mc_entry_moments(d: int, n: int, seed: int, chunk_size: int = 4096) -> McReport:
    """Sampled |u_11|^2 and |u_11|^4 of Haar unitaries."""

    def moments(u):
        sq = np.abs(u[:, 0, 0]) ** 2
        return np.stack([sq, sq**2], axis=1).astype(complex)

    return _sample(d, n, seed, chunk_size, "entry_moments",
                   ["abs_u11_sq", "abs_u11_4th"], moments)


def mc_conjugation_mean(spec_x, n: int, seed: int, chunk_size: int = 4096) -> McReport:
    """Sampled mean of U X U* entrywise, X diagonal with the given spectrum.

    The exact mean is (tr X / d) times the identity; the report labels are
    'entry_i_j' in row-major order.
    """
    x = np.array([float(v) for v in spec_x])
    d = x.size

    def conjugate(u):
        t = (u * x[None, None, :]) @ u.conj().transpose(0, 2, 1)
        return t.reshape(len(u), d * d)

    return _sample(d, n, seed, chunk_size, "conjugation",
                   [f"entry_{i}_{j}" for i in range(1, d + 1) for j in range(1, d + 1)],
                   conjugate, extras={"trace_over_d": float(x.sum() / d)})


def within_band(exact, mean, se, sigmas: float = 4.0, floor: float = 1e-9) -> bool:
    """|mean - exact| <= sigmas*se + floor*max(1, |exact|).

    The additive floor only matters when the per-sample statistic is an
    exact constant (se == 0), where pure se bands have zero width.
    """
    exact = float(exact)
    return abs(mean - exact) <= sigmas * se + floor * max(1.0, abs(exact))
