"""Seeded input lists for the three workloads.

This module imports nothing from finfree, so the inputs are fixed before the
program under test is loaded. Every list is a pure function of the workload
seed and the run length, and every run attempts whole rounds.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("exact_conv", "verify_all", "mc_bands")
DEFAULT_SEED = 1

# exact_conv spectra: half of the entries of a
# spectrum are nonzero integers in [-9, 9]; the other half are p/q in lowest
# terms with 0 < |p| <= 9, with q cycling through 2, 3, 4. Every spectrum then
# has the common denominator 12 and entries of the same sizes, so the cost
# of an op depends on its degree and hardly on the seed.
EXACT_DEGREES = (20, 60, 150)
# The middle degree comes twice per round, so the median op is a d = 60 op
# and rests on twice as many samples.
EXACT_ROUND = (20, 60, 150, 60)
EXACT_DENOMINATORS = (2, 3, 4)
# Spectrum pairs at d = 2 that are only checked, never timed: the flagship
# (1, -1), (1, -1) and a few seeded pairs.
EXACT_D2_PAIRS = 4

# mc_bands: N is fixed per degree so that the ops take comparable time.
# Degrees stop at 16 because above that the sampled high-order e_k lose
# accuracy in the program. As in exact_conv, the middle degree comes twice
# per round.
MC_N = {2: 70_000, 8: 16_000, 16: 5_000}
MC_ROUND = (2, 8, 16, 8)
# The base spectra and the Monte Carlo seed of op i come from this constant,
# not from the workload seed: a 4-sigma band miss is a property of the
# sample, so a sample that depended on the workload seed would make the
# failed share differ from seed to seed.
MC_POOL_SEED = 20221001

# Nominal seconds of one round, used only to turn --seconds into a whole
# number of rounds. The count never depends on a clock reading.
ROUND_SECONDS = {"exact_conv": 0.96, "mc_bands": 1.18, "verify_all": 40.0}


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _entry(rng: random.Random, i: int):
    magnitude = rng.randint(1, 9)
    sign = rng.choice((-1, 1))
    if i % 2 == 0:
        return sign * magnitude
    q = EXACT_DENOMINATORS[(i // 2) % len(EXACT_DENOMINATORS)]
    while math.gcd(magnitude, q) != 1:
        magnitude = rng.randint(1, 9)
    return f"{sign * magnitude}/{q}"


def _spectrum(rng: random.Random, d: int) -> list:
    return [_entry(rng, i) for i in range(d)]


def as_fractions(spectrum) -> tuple:
    return tuple(Fraction(v) for v in spectrum)


def exact_ops(seed: int, rounds: int) -> list:
    """Timed exact_conv ops: dicts with d, spectra a and b, and two even k."""
    rng = random.Random(f"exact_conv/{seed}")
    ops = []
    for _ in range(rounds):
        for d in EXACT_ROUND:
            ops.append({
                "d": d,
                "a": _spectrum(rng, d),
                "b": _spectrum(rng, d),
                "check_k": sorted(rng.sample(range(2, d + 1, 2), 2)),
            })
    return ops


def exact_warmup(seed: int) -> list:
    """One untimed op per degree, drawn apart from the timed list."""
    rng = random.Random(f"exact_conv/warmup/{seed}")
    return [{"d": d, "a": _spectrum(rng, d), "b": _spectrum(rng, d)}
            for d in EXACT_DEGREES]


def exact_transforms(seed: int, ops: list) -> list:
    """Property re-runs: (op index, kind, parameter) with kind shift or scale.

    The first op of each degree is re-run with A + cI, the last with t*A.
    """
    rng = random.Random(f"exact_conv/transforms/{seed}")
    out = []
    for d in EXACT_DEGREES:
        idx = [i for i, op in enumerate(ops) if op["d"] == d]
        shift = Fraction(rng.randint(-9, 9) or 1, rng.choice(EXACT_DENOMINATORS))
        scale = Fraction(rng.choice((-3, -2, 2, 3)), rng.choice((1, 2)))
        out.append((idx[0], "shift", shift))
        out.append((idx[-1], "scale", scale))
    return out


def exact_d2_pairs(seed: int) -> list:
    rng = random.Random(f"exact_conv/d2/{seed}")
    pairs = [([1, -1], [1, -1])]
    pairs += [(_spectrum(rng, 2), _spectrum(rng, 2)) for _ in range(EXACT_D2_PAIRS - 1)]
    return pairs


def _dyadic(value: int, shift: int, sign: int):
    v = Fraction(sign * value, 2**shift)
    return v.numerator if v.denominator == 1 else str(v)


def mc_ops(seed: int, rounds: int) -> list:
    """Timed mc_bands ops: dicts with d, n, mc seed and spectra a and b.

    The workload seed scales each base spectrum by a sign and a power of two
    2^-s, s in {0, 1, 2}. Both are exact in binary floating point, so every
    sample statistic scales exactly by the same factor and its z-score is
    bit-for-bit that of the base op; the exact coefficients do change. A
    base op that passes its bands therefore passes them at every seed.
    """
    base = random.Random(MC_POOL_SEED)
    rng = random.Random(f"mc_bands/{seed}")
    ops = []
    for _ in range(rounds):
        for d in MC_ROUND:
            a = [base.randint(-3, 3) for _ in range(d)]
            b = [base.randint(-3, 3) for _ in range(d)]
            mc_seed = base.randrange(1, 2**31)
            sa, sb = rng.randint(0, 2), rng.randint(0, 2)
            ga, gb = rng.choice((-1, 1)), rng.choice((-1, 1))
            ops.append({
                "d": d,
                "n": MC_N[d],
                "mc_seed": mc_seed,
                "a": [_dyadic(v, sa, ga) for v in a],
                "b": [_dyadic(v, sb, gb) for v in b],
            })
    return ops


def mc_warmup() -> list:
    """One untimed op per degree, at a tenth of the timed sample count."""
    rng = random.Random(f"{MC_POOL_SEED}/warmup")
    return [{"d": d, "n": max(2, n // 10), "mc_seed": rng.randrange(1, 2**31),
             "a": [rng.randint(-3, 3) for _ in range(d)],
             "b": [rng.randint(-3, 3) for _ in range(d)]}
            for d, n in MC_N.items()]
