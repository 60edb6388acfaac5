"""Named verification suites shared by the CLI and the acceptance tests.

Each suite returns CheckResult rows; every row is an independently decided
pass/fail with enough detail to localize a failure. Suites that consume the
Weingarten table take it as an argument so a deliberately corrupted table
can be shown to break them.
"""

from __future__ import annotations

import inspect
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .immanants import delta_minus, imm_delta_minus, immanant_direct, immanant_gj
from .oracle import (
    alternating_binomial_pair,
    brute_force_expected_ek,
    gram_identity_residual,
    identity_leftdep,
    identity_rightdep,
    rothe_hagen_pair,
    telescoping_pair,
    weingarten_gram_inverse,
)
from .partitions import (
    Partition,
    distinct_permutations,
    dominance_leq,
    kostka,
    partitions_of,
    split_chain_count_formula,
    split_chain_type_count,
    two_column,
    two_row,
)
from .polynomials import MonicPoly, commutator_coefficient, commutator_poly
from .symfunc import e_to_m, eval_monomial, eval_quasisym, m_to_e
from .symgroup import c_constant, c_constant_bruteforce, character, perm_of_cycle_type
from .weingarten import integrate_moment, weingarten

DEFAULT_SEED = 20260814


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

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


def _spectra_grid(d: int, entries=(-2, -1, 0, 1, 2)):
    return list(itertools.combinations_with_replacement(entries, d))


def _triple_route_failure(spec_a, spec_b, wg_fn):
    """Compare brute force, coefficient formula, and convolution for all k."""
    d = len(spec_a)
    p = MonicPoly.from_spectrum(spec_a)
    q = MonicPoly.from_spectrum(spec_b)
    conv = commutator_poly(p, q)
    for k in range(d + 1):
        brute = brute_force_expected_ek(spec_a, spec_b, k, wg_fn=wg_fn, cap=d)
        closed = commutator_coefficient(k, spec_a, spec_b)
        if brute != closed or closed != conv.coefficient(k):
            return (
                f"A={spec_a} B={spec_b} k={k}: "
                f"brute={brute} closed={closed} conv={conv.coefficient(k)}"
            )
        if k % 2 and closed != 0:
            return f"A={spec_a} B={spec_b} k={k}: odd coefficient {closed} != 0"
    return None


def verify_convolution(seed: int = DEFAULT_SEED, d4_pairs: int = 50,
                       wg_fn=weingarten) -> list:
    """Triple-route equality (and odd-k vanishing) over the spectra grids."""
    results = []
    start = time.monotonic()
    for d in (2, 3):
        grid = _spectra_grid(d)
        results.append(first_failure(
            f"triple route d={d} full grid ({len(grid) ** 2} pairs)",
            (_triple_route_failure(a, b, wg_fn) for a in grid for b in grid),
            f"entries {{-2..2}}, all 0<=k<={d}",
        ))
    rng = random.Random(seed)

    def draw():
        return tuple(sorted(rng.randint(-2, 2) for _ in range(4)))

    results.append(first_failure(
        f"triple route d=4 sampled ({d4_pairs} pairs)",
        (_triple_route_failure(draw(), draw(), wg_fn) for _ in range(d4_pairs)),
        f"seed={seed}",
    ))
    results.append(_runtime("convolution suite", start, 120))
    return results


def verify_flagship(mc_n: int = 200_000, seed: int = DEFAULT_SEED,
                    wg_fn=weingarten) -> list:
    """d=2, A=B=(1,-1): x^2 + 8/3 on three exact routes, then Monte Carlo."""
    from .montecarlo import mc_charpoly, within_band  # loads numpy

    start = time.monotonic()
    spec = (1, -1)
    target = Fraction(8, 3)
    results = []
    closed = commutator_coefficient(2, spec, spec)
    brute = brute_force_expected_ek(spec, spec, 2, wg_fn=wg_fn)
    p = MonicPoly.from_spectrum(spec)
    conv = commutator_poly(p, p)
    exact_ok = (
        closed == target
        and brute == target
        and conv.a == (Fraction(1), Fraction(0), target)
        and commutator_coefficient(1, spec, spec) == 0
    )
    results.append(
        CheckResult(
            "flagship exact x^2 + 8/3 on three routes",
            exact_ok,
            f"closed={closed} brute={brute} conv={conv.pretty()}",
        )
    )
    report = mc_charpoly(spec, spec, mc_n, seed)
    m1, m2 = report.mean("e_1"), report.mean("e_2")
    se1, se2 = report.se("e_1"), report.se("e_2")
    mc_ok = (
        within_band(0.0, m1.real, se1[0])
        and within_band(0.0, m1.imag, se1[1])
        and within_band(float(target), m2.real, se2[0])
        and within_band(0.0, m2.imag, se2[1])
    )
    results.append(
        CheckResult(
            f"flagship Monte Carlo n={mc_n}",
            mc_ok,
            f"E[e_2] = {m2.real:.5f} (target {float(target):.5f}, se {se2[0]:.2g})",
        )
    )
    results.append(_runtime("flagship", start, 30))
    return results


def verify_oddk(seed: int = DEFAULT_SEED, trials: int = 25, wg_fn=weingarten) -> list:
    """Odd coefficients vanish on every exact route, on random spectra."""
    rng = random.Random(seed)

    def trial():
        d = rng.randint(2, 4)
        spec_a = tuple(rng.randint(-3, 3) for _ in range(d))
        spec_b = tuple(rng.randint(-3, 3) for _ in range(d))
        conv = commutator_poly(
            MonicPoly.from_spectrum(spec_a), MonicPoly.from_spectrum(spec_b)
        )
        for k in range(1, d + 1, 2):
            vals = (
                commutator_coefficient(k, spec_a, spec_b),
                brute_force_expected_ek(spec_a, spec_b, k, wg_fn=wg_fn),
                conv.coefficient(k),
            )
            if any(v != 0 for v in vals):
                return f"A={spec_a} B={spec_b} k={k}: {vals}"
        return None

    return [first_failure(
        f"odd-k coefficients vanish ({trials} random spectra)",
        (trial() for _ in range(trials)),
        f"seed={seed}",
    )]


def verify_weingarten(mc_n: int = 100_000, seed: int = DEFAULT_SEED,
                      wg_fn=weingarten) -> list:
    """Closed Wg values, exact entry moments, MC bands, and the Gram oracle."""
    from .montecarlo import mc_entry_moments, within_band  # loads numpy

    def closed_values(d):
        wg = wg_fn(2, d)
        expected_id = Fraction(1, d**2 - 1)
        expected_swap = Fraction(-1, d * (d**2 - 1))
        if wg((1, 1)) != expected_id or wg((2,)) != expected_swap:
            return f"d={d}: got ({wg((1, 1))}, {wg((2,))})"
        return None

    def exact_moments(d):
        sq = integrate_moment((1,), (1,), (1,), (1,), d)
        quart = integrate_moment((1, 1), (1, 1), (1, 1), (1, 1), d)
        if sq != Fraction(1, d) or quart != Fraction(2, d * (d + 1)):
            return f"d={d}: got {sq}, {quart}"
        return None

    def sampled_moments(d):
        report = mc_entry_moments(d, mc_n, seed)
        pairs = (
            (Fraction(1, d), "abs_u11_sq"),
            (Fraction(2, d * (d + 1)), "abs_u11_4th"),
        )
        for exact, label in pairs:
            mean = report.mean(label)
            se = report.se(label)
            if not within_band(float(exact), mean.real, se[0]):
                return f"d={d} {label}: mean {mean.real:.6f} vs {float(exact):.6f}"
        return None

    def gram(k, d):
        if weingarten_gram_inverse(k, d) != wg_fn(k, d):
            return f"k={k} d={d}: Gram solve disagrees"
        residual = gram_identity_residual(k, d, wg_fn=wg_fn)
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
            f"entry moments Monte Carlo n={mc_n} for d=2..6",
            map(sampled_moments, range(2, 7)),
            f"seed={seed}",
        ),
        first_failure(
            "Gram-system oracle matches character expansion (k<=4, k<=d<=6)",
            (gram(k, d) for k in range(1, 5) for d in range(k, 7)),
            "exact rational solve",
        ),
    ]


def verify_immanant(seed: int = DEFAULT_SEED, spectra_per_k: int = 20,
                    matrices_per_n: int = 10) -> list:
    """Two-row closed form vs direct sums; multilinear route vs direct sums."""
    start = time.monotonic()
    rng = random.Random(seed)

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
            f"imm_delta_minus == immanant_direct (k<=7, {spectra_per_k} spectra each)",
            (closed_form(k) for k in range(1, 8) for _ in range(spectra_per_k)),
            f"seed={seed}",
        ),
        first_failure(
            f"immanant_gj == immanant_direct (n<=5, {matrices_per_n} matrices each)",
            (multilinear(n) for n in range(1, 6) for _ in range(matrices_per_n)),
            f"seed={seed}",
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


def verify_cconst() -> list:
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
    expected = {two_column(k, q): Fraction(comb(k - 2 * q, p - q)) for q in range(p + 1)}
    return _differ(f"k={k} p={p}", dict(e_to_m(two_row(k, p)).coeffs), expected)


def _me_failure(k, q):
    expected = {}
    if 2 * q <= k - 2:
        for r in range(q + 1):
            coeff = (-1) ** q * (-1) ** r * (
                comb(k - q - r, k - 2 * q) + comb(k - q - r - 1, k - 2 * q)
            )
            if coeff:
                expected[two_row(k, r)] = Fraction(coeff)
    else:
        for i in range(k + 1):
            j = k - i
            key = Partition(v for v in (max(i, j), min(i, j)) if v)
            expected[key] = expected.get(key, Fraction(0)) + (-1) ** (
                k // 2
            ) * (-1) ** i
        expected = {key: v for key, v in expected.items() if v}
    return _differ(f"k={k} q={q}", dict(m_to_e(two_column(k, q)).coeffs), expected)


def _telescoping_failure(k, p, q):
    lhs, rhs = telescoping_pair(k, p, q)
    if lhs != rhs:
        return f"k={k} p={p} q={q}: {lhs} != {rhs}"
    closed_term = Fraction(
        factorial(k - 2 * q) * (k - 2 * p + 1),
        factorial(p - q) * factorial(k - p - q + 1),
    )
    if closed_term != kostka(two_column(k, p), two_column(k, q)):
        return f"k={k} p={p} q={q}: Kostka closed form mismatch"
    return None


def verify_identities(seed: int = DEFAULT_SEED) -> list:
    """Transition, padding, split-chain, binomial, and factor identities."""
    rng = random.Random(seed)

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


def _conjugation_failure(report):
    from .montecarlo import within_band  # a report to check means numpy is loaded

    d = report.d
    if not report.unitarity_residual_max < 1e-10:  # NaN fails too
        return f"d={d}: unitarity residual {report.unitarity_residual_max:.2e}"
    target = report.extras["trace_over_d"]
    for i, j in itertools.product(range(1, d + 1), repeat=2):
        label = f"entry_{i}_{j}"
        mean = report.mean(label)
        se = report.se(label)
        want = target if i == j else 0.0
        if not (
            within_band(want, mean.real, se[0])
            and within_band(0.0, mean.imag, se[1])
        ):
            return f"d={d} {label}: mean {mean:.6f} vs {want:.6f}"
    return None


def verify_haar(mc_n: int = 100_000, seed: int = DEFAULT_SEED) -> list:
    """Sampler quality: unitarity residual and mean conjugation."""
    from .montecarlo import mc_conjugation_mean, nan_max  # loads numpy

    # Each run is seeded on its own, so all three are sampled up front: the
    # passing detail reports the worst residual over every d.
    reports = [mc_conjugation_mean(tuple(range(1, d + 1)), mc_n, seed) for d in (2, 3, 5)]
    worst = nan_max(r.unitarity_residual_max for r in reports)
    return [first_failure(
        f"Haar sampler: residual < 1e-10 and E[UXU*] = (tr X/d) I (n={mc_n})",
        map(_conjugation_failure, reports),
        f"max residual {worst:.2e}, d in {{2,3,5}}",
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


def run_suites(names, **overrides) -> list:
    """Run the named suites in order, passing only the kwargs each accepts."""
    results = []
    for name in names:
        suite = SUITES[name]
        accepted = inspect.signature(suite).parameters
        kwargs = {k: v for k, v in overrides.items() if k in accepted}
        results.extend(suite(**kwargs))
    return results
