"""Checks of the ops' outputs, made apart from any stored output.

Each checker takes what an op printed and returns a list of problems; an
empty list means the output is right. The expected values come from routes
the op does not take: the closed form `commutator_coefficient` (which never
calls the convolutions), algebraic properties of the commutator, and a d = 2
formula computed here.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Slack of the band re-check besides 4 standard errors: the same relative
# floor finfree.montecarlo.within_band allows, which matters only where the
# per-sample statistic is exact up to rounding, such as the real part of an
# odd e_k of a skew-Hermitian matrix.
SIGMAS = 4.0
BAND_FLOOR = 1e-9
UNITARITY_MAX = 1e-10


def coefficients(text: str) -> tuple:
    """(declared degree, a_0..a_d as Fractions) of a commutator JSON output."""
    payload = json.loads(text)
    result = payload["result"]
    return payload["d"], result["d"], [Fraction(v) for v in result["a"]]


def check_exact(text: str, d: int, spec_a, spec_b, check_k) -> list:
    """Shape, odd-coefficient and closed-form checks of one exact output."""
    from finfree.polynomials import commutator_coefficient

    problems = []
    top_d, res_d, a = coefficients(text)
    if not (top_d == res_d == d and len(a) == d + 1):
        return [f"degree: expected {d}, got d={top_d} result.d={res_d} len(a)={len(a)}"]
    if a[0] != 1:
        problems.append(f"a_0 = {a[0]}, expected 1")
    odd = [k for k in range(1, d + 1, 2) if a[k] != 0]
    if odd:
        problems.append(f"odd coefficients nonzero at k={odd[:5]}")
    for k in check_k:
        closed = commutator_coefficient(k, spec_a, spec_b)
        if a[k] != closed:
            problems.append(f"a_{k} = {a[k]}, closed form gives {closed}")
    return problems


def check_shift(base_text: str, shifted_text: str) -> list:
    """[A + cI, T] = [A, T], so shifting A leaves every coefficient alone."""
    if coefficients(base_text)[2] != coefficients(shifted_text)[2]:
        return ["shifting A by a scalar changed the polynomial"]
    return []


def check_scale(base_text: str, scaled_text: str, t: Fraction) -> list:
    """[tA, T] = t[A, T], so a_k scales by t^k."""
    base, scaled = coefficients(base_text)[2], coefficients(scaled_text)[2]
    bad = [k for k, (x, y) in enumerate(zip(base, scaled)) if y != x * t**k]
    if len(base) != len(scaled) or bad:
        return [f"scaling A by {t} broke a_k -> t^k a_k at k={bad[:5]}"]
    return []


def check_d2(text: str, spec_a, spec_b) -> list:
    """At d = 2 the commutator polynomial is x^2 + (a1-a2)^2 (b1-b2)^2 / 6."""
    (a1, a2), (b1, b2) = spec_a, spec_b
    expected = [Fraction(1), Fraction(0), Fraction((a1 - a2) ** 2 * (b1 - b2) ** 2) / 6]
    got = coefficients(text)[2]
    if got != expected:
        return [f"d=2 A={spec_a} B={spec_b}: got {got}, expected {expected}"]
    return []


def _band_ok(exact: float, mean: float, se: float) -> bool:
    return abs(mean - exact) <= SIGMAS * se + BAND_FLOOR * max(1.0, abs(exact))


def check_mc(text: str, code, d: int, n: int, spec_a, spec_b) -> list:
    """Exit code, bands_ok, an independent band re-check and unitarity."""
    from finfree.polynomials import commutator_coefficient

    problems = []
    payload = json.loads(text)
    mc = payload["mc"]
    if code != 0 or mc["bands_ok"] is not True:
        problems.append(f"exit code {code}, bands_ok {mc['bands_ok']}")
    if mc["n"] != n or mc["d"] != d:
        problems.append(f"report is for d={mc['d']} n={mc['n']}, asked d={d} n={n}")
    stats = {s["label"]: s for s in mc["statistics"]}
    for k in range(1, d + 1):
        s = stats.get(f"e_{k}")
        if s is None:
            problems.append(f"e_{k} missing")
            continue
        exact = float(commutator_coefficient(k, spec_a, spec_b))
        if not _band_ok(exact, float(s["mean_re"]), float(s["se_re"])):
            problems.append(f"Re e_{k} = {s['mean_re']} (se {s['se_re']}) misses exact {exact}")
        if not _band_ok(0.0, float(s["mean_im"]), float(s["se_im"])):
            problems.append(f"Im e_{k} = {s['mean_im']} (se {s['se_im']}) misses 0")
    residual = float(mc["unitarity_residual_max"])
    if not residual < UNITARITY_MAX:
        problems.append(f"unitarity residual {residual} >= {UNITARITY_MAX}")
    return problems


def check_verify(outputs: list, suites) -> list:
    """Every suite ran, in order, and every check of a suite that did not
    crash passed."""
    problems = []
    if [o["suite"] for o in outputs] != list(suites):
        problems.append(f"suites ran as {[o['suite'] for o in outputs]}")
    for o in outputs:
        if o["error"]:
            continue  # a crashed suite is a failed op, not a wrong output
        if not o["rows"]:
            problems.append(f"suite {o['suite']} reported no checks")
        problems += [f"suite {o['suite']}: FAIL {r['name']}: {r['detail']}"
                     for r in o["rows"] if not r["passed"]]
    return problems


def check_negative_control(code, text: str) -> list:
    """A corrupted Weingarten table must fail `verify commutator`."""
    fails = [line for line in text.splitlines() if line.startswith("FAIL ")]
    if code != 1 or not fails:
        return [f"--inject-wg-error gave exit code {code} with {len(fails)} FAIL lines"]
    return []
