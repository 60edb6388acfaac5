"""Named verification suites shared by the CLI and the acceptance tests.

Each suite takes one VerifyRun record and returns CheckResult rows; every
row is an independently decided pass/fail with enough detail to localize a
failure. The record carries the Weingarten table the suites consume, so a
deliberately corrupted table can be shown to break them.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .immanants import delta_minus, imm_delta_minus, immanant_direct, immanant_gj
from .oracle import (
    alternating_binomial_pair,
    brute_force_coefficients,
    brute_force_expected_ek,
    gram_identity_residual,
    identity_leftdep,
    identity_rightdep,
    rothe_hagen_pair,
    telescoping_pair,
    two_column_kostka,
    weingarten_gram_inverse,
)
from .partitions import (
    Partition,
    distinct_permutations,
    dominance_leq,
    kostka,
    kostka_rows,
    partitions_of,
    semistandard_tableaux,
    split_chain_count_formula,
    split_chain_type_count,
    two_column,
    two_row,
)
from .polynomials import (
    MonicPoly,
    commutator_coefficient,
    commutator_poly,
    commutator_poly_closed,
)
from .symfunc import as_spectrum_pair, e_to_m, eval_monomial, eval_quasisym, m_to_e
from .symgroup import c_constant, c_constant_bruteforce, character, perm_of_cycle_type
from .util import check_mc_caps
from .weingarten import integrate_moment, weingarten

DEFAULT_SEED = 20260814
FLAGSHIP_SPECTRUM = (1, -1)
# Each Monte Carlo suite's rows: the dimensions they sample at and their
# default sample count. The suite reads both through VerifyRun.mc_rows,
# run_suites checks the run's count at each dimension before any suite runs,
# and `verify --mc` prints the defaults in its help.
MC_SUITES = {"flagship": ((len(FLAGSHIP_SPECTRUM),), 200_000),
             "weingarten": ((2, 3, 4, 5, 6), 100_000),
             "haar": ((2, 3, 5), 100_000)}


@dataclass(frozen=True)
class VerifyRun:
    """The settings of one verify run, passed to every suite."""

    seed: int = DEFAULT_SEED
    mc_n: int | None = None  # None: each Monte Carlo suite's count in MC_SUITES
    wg_fn: Callable | None = None  # None: the true Weingarten table

    def mc_rows(self, suite: str) -> tuple:
        """(dimensions, sample count) of the named suite's Monte Carlo rows in
        this run: MC_SUITES' entry, with the run's own count if it sets one."""
        dims, default = MC_SUITES[suite]
        return dims, default if self.mc_n is None else self.mc_n

    def table(self) -> Callable:
        """The run's Weingarten function. The true one is looked up here, not
        bound at import, so a tracer's rewrite of this module's name reaches it."""
        return self.wg_fn or weingarten


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f": {self.detail}" if self.detail else "")


def first_failure(name: str, failures, ok_detail: str = "") -> CheckResult:
    """One row decided by the first non-empty detail in a lazy iterable.

    Each case yields None when it holds and a detail when it fails. Nothing
    past the first failure is consumed, so cases that draw from a shared
    random generator draw in order and stop where the failure is.
    """
    bad = next(filter(None, failures), None)
    return CheckResult(name, bad is None, bad or ok_detail)


def _runtime(name: str, start: float, limit: int) -> CheckResult:
    elapsed = time.monotonic() - start
    return CheckResult(f"{name} runtime < {limit} s", elapsed < limit, f"{elapsed:.1f} s")


def _differ(where: str, lhs, rhs):
    return f"{where}: {lhs} != {rhs}" if lhs != rhs else None


def _closed_and_conv(spec_a, spec_b) -> tuple:
    """Every coefficient a_0..a_d by the closed form and by the convolution."""
    conv = commutator_poly(MonicPoly.from_spectrum(spec_a), MonicPoly.from_spectrum(spec_b))
    return commutator_poly_closed(spec_a, spec_b), conv.a


def _triple_route_failure(spec_a, spec_b, ks, wg_fn):
    """Compare brute force, closed form, and convolution at each k of ks;
    odd-k coefficients must also be 0. The spectra are converted here, so
    that each route's own as_spectrum finds Fractions, and each route gives
    all its coefficients in one call."""
    a, b = as_spectrum_pair(spec_a, spec_b)
    closed, conv = _closed_and_conv(a, b)
    brute = brute_force_coefficients(a, b, ks, wg_fn=wg_fn)
    for k in ks:
        if brute[k] != closed[k] or closed[k] != conv[k]:
            return (f"A={spec_a} B={spec_b} k={k}: brute={brute[k]} closed={closed[k]} "
                    f"conv={conv[k]}")
        if k % 2 and closed[k] != 0:
            return f"A={spec_a} B={spec_b} k={k}: odd coefficient {closed[k]} != 0"
    return None


def _closed_conv_failure(spec_a, spec_b):
    closed, conv = _closed_and_conv(spec_a, spec_b)
    bad = next((k for k, (u, v) in enumerate(zip(closed, conv)) if u != v), None)
    return None if bad is None else f"d={len(spec_a)} k={bad}: closed={closed[bad]} conv={conv[bad]}"


def verify_convolution(run: VerifyRun) -> list:
    """Triple-route equality (and odd-k vanishing) over the spectra grids,
    and the whole closed form against the convolution at d = 20 and 60."""
    start, wg_fn, rng = time.monotonic(), run.table(), random.Random(run.seed)

    def failures(pairs):
        return (_triple_route_failure(a, b, range(len(a) + 1), wg_fn) for a, b in pairs)

    def draw(d):
        return tuple(sorted(rng.randint(-2, 2) for _ in range(d)))

    def draw_rational(d):
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d))

    grids = {d: list(itertools.combinations_with_replacement(range(-2, 3), d)) for d in (2, 3)}
    # Drawn up front, so the d=5..7 pairs do not depend on where the d=4
    # row stopped.
    sampled = [(draw(4), draw(4)) for _ in range(50)]
    larger = [(draw(d), draw(d)) for d in (5, 6, 7)]
    rational = [(draw_rational(d), draw_rational(d)) for d in (20, 60)]
    return [
        *(first_failure(f"triple route d={d} full grid ({len(g) ** 2} pairs)",
                        failures(itertools.product(g, repeat=2)),
                        f"entries {{-2..2}}, all 0<=k<={d}") for d, g in grids.items()),
        first_failure("triple route d=4 sampled (50 pairs)", failures(sampled),
                      f"seed={run.seed}"),
        first_failure("triple route d=5..7 sampled (one pair each)", failures(larger),
                      f"seed={run.seed}"),
        first_failure("closed form == convolution at d=20, 60 (p/q spectra)",
                      (_closed_conv_failure(a, b) for a, b in rational),
                      f"seed={run.seed}"),
        _runtime("convolution suite", start, 120),
    ]


def verify_flagship(run: VerifyRun) -> list:
    """d=2, A=B=(1,-1): x^2 + 8/3 on three exact routes, then Monte Carlo."""
    from .montecarlo import mc_charpoly  # loads numpy

    start = time.monotonic()
    spec = FLAGSHIP_SPECTRUM
    target = Fraction(8, 3)
    closed = commutator_coefficient(2, spec, spec)
    brute = brute_force_expected_ek(spec, spec, 2, wg_fn=run.table())
    p = MonicPoly.from_spectrum(spec)
    conv = commutator_poly(p, p)
    exact_ok = (closed == brute == target and conv.a == (1, 0, target)
                and commutator_coefficient(1, spec, spec) == 0)
    _, mc_n = run.mc_rows("flagship")
    report = mc_charpoly(spec, spec, mc_n, run.seed)
    m2, se2 = report.mean("e_2"), report.se("e_2")
    return [
        CheckResult("flagship exact x^2 + 8/3 on three routes", exact_ok,
                    f"closed={closed} brute={brute} conv={conv.pretty()}"),
        CheckResult(
            f"flagship Monte Carlo n={mc_n}",
            not report.band_misses({"e_1": 0, "e_2": target}),
            f"E[e_2] = {m2.real:.5f} (target {float(target):.5f}, se {se2[0]:.2g})",
        ),
        _runtime("flagship", start, 30),
    ]


def verify_oddk(run: VerifyRun) -> list:
    """Odd coefficients vanish on every exact route, on random spectra."""
    rng, wg_fn = random.Random(run.seed), run.table()

    def trial():
        d = rng.randint(2, 4)
        spec_a = tuple(rng.randint(-3, 3) for _ in range(d))
        spec_b = tuple(rng.randint(-3, 3) for _ in range(d))
        return _triple_route_failure(spec_a, spec_b, range(1, d + 1, 2), wg_fn)

    return [first_failure(
        "odd-k coefficients vanish (25 random spectra)",
        (trial() for _ in range(25)),
        f"seed={run.seed}",
    )]


def verify_weingarten(run: VerifyRun) -> list:
    """Closed Wg values, exact entry moments, MC bands, and the Wg oracle."""
    from .montecarlo import mc_entry_moments  # loads numpy

    wg_fn, (dims, mc_n) = run.table(), run.mc_rows("weingarten")

    def closed_values(d):
        wg = wg_fn(2, d)
        got = (wg((1, 1)), wg((2,)))
        if got != (Fraction(1, d**2 - 1), Fraction(-1, d * (d**2 - 1))):
            return f"d={d}: got ({got[0]}, {got[1]})"
        return None

    def exact_moments(d):
        sq = integrate_moment((1,), (1,), (1,), (1,), d)
        quart = integrate_moment((1, 1), (1, 1), (1, 1), (1, 1), d)
        if sq != Fraction(1, d) or quart != Fraction(2, d * (d + 1)):
            return f"d={d}: got {sq}, {quart}"
        return None

    def sampled_moments(d):
        report = mc_entry_moments(d, mc_n, run.seed)
        expected = {"abs_u11_sq": Fraction(1, d), "abs_u11_4th": Fraction(2, d * (d + 1))}
        for label in report.band_misses(expected):  # the first miss
            mean, want = report.mean(label).real, float(expected[label])
            return f"d={d} {label}: mean {mean:.6f} vs {want:.6f}"
        return None

    def oracle(k, d):
        if weingarten_gram_inverse(k, d) != wg_fn(k, d):
            return f"k={k} d={d}: orthogonality solve disagrees"
        residual = gram_identity_residual(k, d, wg_fn=wg_fn) if k <= 4 and d <= 6 else 0
        return f"k={k} d={d}: Gram residual {residual}" if residual != 0 else None

    return [
        first_failure(
            "Wg_{2,d} closed values for d=2..6",
            map(closed_values, range(2, 7)),
            "1/(d^2-1) and -1/(d(d^2-1))",
        ),
        first_failure(
            "entry moments E|u11|^2 = 1/d, E|u11|^4 = 2/(d(d+1)) for d=2..6",
            map(exact_moments, range(2, 7)),
        ),
        first_failure(
            f"entry moments Monte Carlo n={mc_n} for d={dims[0]}..{dims[-1]}",
            map(sampled_moments, dims),
            f"seed={run.seed}",
        ),
        first_failure(
            "orthogonality oracle matches character expansion (k<=d<=8); "
            "Gram residual zero (k<=4, k<=d<=6)",
            (oracle(k, d) for k in range(1, 9) for d in range(k, 9)),
            "exact rational solve",
        ),
    ]


def verify_immanant(run: VerifyRun) -> list:
    """Two-row closed form vs direct sums; multilinear route vs direct sums."""
    start = time.monotonic()
    rng = random.Random(run.seed)

    def closed_form(k):
        spec = tuple(rng.randint(-5, 5) for _ in range(k))
        mat = delta_minus(spec)
        for lam in partitions_of(k):
            if imm_delta_minus(lam, spec) != immanant_direct(lam, mat):
                return f"k={k} lam={lam} spec={spec}"
        return None

    def multilinear(n):
        mat = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        for lam in partitions_of(n):
            if immanant_gj(lam, mat) != immanant_direct(lam, mat):
                return f"n={n} lam={lam} mat={mat}"
        return None

    return [
        first_failure(
            "imm_delta_minus == immanant_direct (k<=7, 20 spectra each)",
            (closed_form(k) for k in range(1, 8) for _ in range(20)),
            f"seed={run.seed}",
        ),
        first_failure(
            "immanant_gj == immanant_direct (n<=5, 10 matrices each)",
            (multilinear(n) for n in range(1, 6) for _ in range(10)),
            f"seed={run.seed}",
        ),
        _runtime("immanant suite", start, 120),
    ]


def _cconst_failure(lam, mu, parts):
    closed = c_constant(lam, mu)
    if not dominance_leq(mu, lam) and closed != 0:
        return f"lam={lam} mu={mu}: nonzero {closed} off dominance cone"
    for rho in parts:
        sigma = perm_of_cycle_type(rho)
        got = c_constant_bruteforce(lam, mu, sigma)
        chi = character(lam, rho)
        want = closed if chi else Fraction(0)
        if got != want:
            return f"lam={lam} mu={mu} rho={rho}: {got} != {want}"
    return None


def verify_cconst(run: VerifyRun) -> list:
    """Closed subgroup-sum constants vs character brute force, k <= 5."""
    return [
        first_failure(
            "subgroup-sum constants: brute force across all cycle types (k<=5)",
            (_cconst_failure(lam, mu, parts)
             for parts in map(partitions_of, range(1, 6))
             for lam in parts for mu in parts),
        ),
        first_failure(
            "subgroup-sum constants: two-column closed form (k<=5)",
            (_differ(f"k={k} p={p} q={q}",
                     c_constant(two_column(k, p), two_column(k, q)),
                     Fraction(factorial(p), factorial(p - q)) * comb(k - p + 1, q))
             for k in range(1, 6) for p in range(k // 2 + 1) for q in range(p + 1)),
            "p!/(p-q)! binom(k-p+1, q)",
        ),
    ]


def _em_failure(k, p):
    expected = {two_column(k, q): comb(k - 2 * q, p - q) for q in range(p + 1)}
    return _differ(f"k={k} p={p}", e_to_m(two_row(k, p)), expected)


def _me_failure(k, q):
    expected = {}
    if 2 * q <= k - 2:
        for r in range(q + 1):
            coeff = (-1) ** q * (-1) ** r * (
                comb(k - q - r, k - 2 * q) + comb(k - q - r - 1, k - 2 * q)
            )
            if coeff:
                expected[two_row(k, r)] = coeff
    else:
        for i in range(k + 1):
            j = k - i
            key = Partition(v for v in (max(i, j), min(i, j)) if v)
            expected[key] = expected.get(key, 0) + (-1) ** (k // 2) * (-1) ** i
        expected = {key: v for key, v in expected.items() if v}
    return _differ(f"k={k} q={q}", m_to_e(two_column(k, q)), expected)


def _telescoping_failure(k, p, q):
    lhs, rhs = telescoping_pair(k, p, q)
    if lhs != rhs:
        return f"k={k} p={p} q={q}: {lhs} != {rhs}"
    if two_column_kostka(k, p, q) != kostka(two_column(k, p), two_column(k, q)):
        return f"k={k} p={p} q={q}: Kostka closed form mismatch"
    return None


def _kostka_table_failure(k):
    """kostka_rows(k), by the strip rule, against a count of the tableaux of
    every shape and weight; the zero counts must be the undominated pairs."""
    parts = partitions_of(k)
    counted = {
        lam: {mu: n for mu in parts if (n := sum(1 for _ in semistandard_tableaux(lam, mu)))}
        for lam in parts
    }
    return _differ(f"k={k}", kostka_rows(k), counted)


def verify_identities(run: VerifyRun) -> list:
    """Transition, padding, split-chain, Kostka, binomial, and factor identities."""
    rng = random.Random(run.seed)

    def padding(k, q, d):
        word = (2,) * q + (1,) * (k - 2 * q) + (0,) * q
        spec = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(d))
        lhs = sum(
            (eval_quasisym(comp, spec) for comp in distinct_permutations(word)),
            Fraction(0),
        )
        rhs = comb(d - (k - q), q) * eval_monomial(two_column(k, q), spec)
        return _differ(f"k={k} q={q} d={d}", lhs, rhs)

    def factors(k, d):
        spec = tuple(rng.randint(-4, 4) for _ in range(d))
        raw_l, closed_l = identity_leftdep(spec, k)
        raw_r, closed_r = identity_rightdep(spec, k)
        if raw_l != closed_l or raw_r != closed_r:
            return (
                f"k={k} d={d} spec={spec}: "
                f"left {raw_l}?={closed_l} right {raw_r}?={closed_r}"
            )
        return None

    rational_y = [Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3)]
    return [
        first_failure(
            "transition (em) on two-row shapes (k<=8)",
            (_em_failure(k, p) for k in range(1, 9) for p in range(k // 2 + 1)),
        ),
        first_failure(
            "transition (me) on two-column shapes (k<=8)",
            # only the stated range of the identity is checked
            (_me_failure(k, q) for k in range(1, 9) for q in range(k // 2 + 1)
             if not (2 * q > k - 2 and k % 2 == 1)),
        ),
        first_failure(
            "padding identity (k<=6, d<=8)",
            (padding(k, q, d)
             for k in range(1, 7) for q in range(k // 2 + 1) for d in range(k, 9)),
        ),
        first_failure(
            "split-chain counts (k<=6)",
            (_differ(f"k={k} l={l} q={q}",
                     split_chain_type_count(k, l, q), split_chain_count_formula(k, l, q))
             for k in range(0, 7) for l in range(k + 1) for q in range(min(l, k - l) + 1)),
        ),
        first_failure(
            "telescoping two-column Kostka identity (k<=8)",
            (_telescoping_failure(k, p, q)
             for k in range(1, 9) for p in range(k // 2 + 1) for q in range(p + 1)),
        ),
        first_failure(
            "Kostka strip rule == tableau count (k<=6)",
            map(_kostka_table_failure, range(1, 7)),
        ),
        first_failure(
            "alternating binomial identity (n<=8, y<=8)",
            (_differ(f"n={n} y={y}", *alternating_binomial_pair(n, y))
             for n in range(1, 9) for y in range(0, 9)),
        ),
        first_failure(
            "Rothe-Hagen identity (n<=8, integer and rational y)",
            (_differ(f"n={n} y={y}", *rothe_hagen_pair(n, y))
             for n in range(1, 9) for y in list(range(0, 9)) + rational_y),
        ),
        first_failure(
            "left/right factor identities (even k<=6, d<=8)",
            (factors(k, d)
             for k in range(0, 7, 2) for d in range(max(k, 2), 9) for _ in range(3)),
        ),
    ]


def _conjugation_failure(report, spec_x):
    d = report.d
    if not report.unitarity_residual_max < 1e-10:  # NaN fails too
        return f"d={d}: unitarity residual {report.unitarity_residual_max:.2e}"
    trace_over_d = float(sum(spec_x)) / d
    expected = {
        f"entry_{i}_{j}": trace_over_d if i == j else 0.0
        for i, j in itertools.product(range(1, d + 1), repeat=2)
    }
    for label in report.band_misses(expected):  # the first miss
        return f"d={d} {label}: mean {report.mean(label):.6f} vs {expected[label]:.6f}"
    return None


def verify_haar(run: VerifyRun) -> list:
    """Sampler quality: unitarity residual and mean conjugation."""
    from .montecarlo import mc_conjugation_mean, nan_max  # loads numpy

    # Each run is seeded on its own, so every d is sampled up front: the
    # passing detail reports the worst residual over all of them.
    dims, mc_n = run.mc_rows("haar")
    spectra = [tuple(range(1, d + 1)) for d in dims]
    reports = [mc_conjugation_mean(spec, mc_n, run.seed) for spec in spectra]
    worst = nan_max(r.unitarity_residual_max for r in reports)
    return [first_failure(
        f"Haar sampler: residual < 1e-10 and E[UXU*] = (tr X/d) I (n={mc_n})",
        map(_conjugation_failure, reports, spectra),
        f"max residual {worst:.2e}, d in {{{','.join(map(str, dims))}}}",
    )]


SUITES = {
    "convolution": verify_convolution,
    "flagship": verify_flagship,
    "oddk": verify_oddk,
    "weingarten": verify_weingarten,
    "immanant": verify_immanant,
    "cconst": verify_cconst,
    "identities": verify_identities,
    "haar": verify_haar,
}

# The `finfree verify` choices: named runs of suites, in SUITES order.
VERIFY_GROUPS = {
    "all": list(SUITES),
    "commutator": ["convolution", "flagship", "oddk"],
    "flagship": ["flagship"],
    "oddk": ["oddk"],
    "weingarten": ["weingarten"],
    "immanant": ["immanant"],
    "identities": ["identities", "cconst"],
    "haar": ["haar"],
}


def run_suites(names, run: VerifyRun = VerifyRun()) -> list:
    """Run the named suites in order on one record. A sample count past the
    Monte Carlo caps at a dimension they sample is refused before any runs."""
    for dims, mc_n in (run.mc_rows(name) for name in names if name in MC_SUITES):
        for d in dims:
            check_mc_caps(d, mc_n)
    return [row for name in names for row in SUITES[name](run)]
