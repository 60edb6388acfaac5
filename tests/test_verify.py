import re
import sys
from fractions import Fraction

import pytest

from finfree import cli, montecarlo, symfunc
from finfree.util import CapExceededError
from finfree.verify import (
    MC_SUITES,
    SUITES,
    VERIFY_GROUPS,
    CheckResult,
    VerifyRun,
    _triple_route_failure,
    first_failure,
    run_suites,
)
from finfree.weingarten import ClassFunction, weingarten


def test_checkresult_line():
    assert CheckResult("name", True, "why").line() == "PASS name: why"
    assert CheckResult("name", False, "").line() == "FAIL name"


def test_suite_registry_complete():
    assert set(SUITES) == {
        "convolution",
        "flagship",
        "oddk",
        "weingarten",
        "immanant",
        "cconst",
        "identities",
        "haar",
    }


def test_verify_groups_name_suites():
    assert VERIFY_GROUPS["all"] == list(SUITES)
    assert all(name in SUITES for group in VERIFY_GROUPS.values() for name in group)
    for name in ("flagship", "oddk", "haar"):
        assert VERIFY_GROUPS[name] == [name]


def test_first_failure_all_pass_reports_ok_detail():
    row = first_failure("check", iter([None, None, ""]), "all fine")
    assert (row.name, row.passed, row.detail) == ("check", True, "all fine")
    assert first_failure("empty", iter([])).passed


def test_first_failure_reports_first_detail_and_stops_there():
    def cases():
        yield None
        yield "first"
        raise AssertionError("consumed past the first failure")

    row = first_failure("check", cases(), "all fine")
    assert (row.passed, row.detail) == (False, "first")


def test_injected_wg_error_details():
    # the rows the CLI's negative control fails, with the details they print
    run = VerifyRun(seed=7, mc_n=2000, wg_fn=cli._corrupted_weingarten)
    results = run_suites(["convolution", "weingarten"], run)
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed == {
        "triple route d=2 full grid (225 pairs)":
            "A=(-2, -1) B=(-2, -2) k=2: brute=2/125 closed=0 conv=0",
        "triple route d=3 full grid (1225 pairs)":
            "A=(-2, -2, -1) B=(-2, -2, -2) k=2: brute=9/125 closed=0 conv=0",
        "triple route d=4 sampled (50 pairs)":
            "A=(-2, -1, 0, 1) B=(-2, -2, 0, 2) k=2: brute=1106/75 closed=44/3 conv=44/3",
        "triple route d=5..7 sampled (one pair each)":
            "A=(-2, -1, -1, 1, 1) B=(-1, -1, 1, 1, 2) k=2: brute=1368/125 closed=54/5 conv=54/5",
        "Wg_{2,d} closed values for d=2..6": "d=2: got (1/3, -497/3000)",
        "orthogonality oracle matches character expansion (k<=d<=8); "
        "Gram residual zero (k<=4, k<=d<=6)":
            "k=1 d=1: orthogonality solve disagrees",
    }


@pytest.mark.parametrize("spec_a,spec_b", [
    ((-1, 0, 0, 1, 1), (-1, -1, -1, 0, 2)),
    ((-2, -2, 0, 1, 1, 1), (-1, 0, 0, 1, 2, 2)),
    ((-2, -2, -1, 0, 0, 0, 1), (-2, -2, -1, -1, -1, 0, 2)),
])
def test_larger_triple_route_pairs_catch_the_injected_error(spec_a, spec_b):
    # the d=5..7 pairs of the default seed: each one alone holds with the
    # true table and fails with the corrupted one
    ks = range(len(spec_a) + 1)
    assert _triple_route_failure(spec_a, spec_b, ks, weingarten) is None
    assert _triple_route_failure(spec_a, spec_b, ks, cli._corrupted_weingarten)


def test_run_suites_refuses_an_unknown_setting():
    # a misspelled setting is an error, not a run at the defaults
    with pytest.raises(TypeError):
        VerifyRun(sede=3)
    with pytest.raises(TypeError):
        run_suites(["haar"], mc=5)


@pytest.mark.parametrize("name", SUITES)
def test_the_record_reaches_every_suite(name):
    # every suite takes the record; its sample count names each Monte Carlo
    # row, and its seed each detail that prints one
    rows = SUITES[name](VerifyRun(seed=7, mc_n=2000))
    assert rows and all(r.passed for r in rows), [r.line() for r in rows]
    sizes = [n for r in rows for n in re.findall(r"\bn=(\d+)", r.name)]
    assert sizes == (["2000"] if name in MC_SUITES else [])
    assert {s for r in rows for s in re.findall(r"\bseed=(\d+)", r.detail)} <= {"7"}


def test_verify_help_prints_each_default_sample_count(capsys):
    assert cli.main(["verify", "-h"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, (_, n) in MC_SUITES.items():
        assert f"{name} (default {n})" in text


@pytest.mark.parametrize("name", MC_SUITES)
def test_a_run_without_mc_n_samples_each_suites_own_count(monkeypatch, name):
    # every sampler is asked for the table's count at each of the table's
    # dimensions, and the rows are named by it; the sampler then draws 2000
    # samples, the seed 7 runs that test_the_record_reaches_every_suite passes
    dims, n = MC_SUITES[name]
    asked, sample = [], montecarlo._sample

    def recorded(d, count, *rest):
        asked.append((d, count))
        return sample(d, 2000, *rest)

    monkeypatch.setattr(montecarlo, "_sample", recorded)
    rows = SUITES[name](VerifyRun(seed=7))
    assert all(r.passed for r in rows), [r.line() for r in rows]
    assert [s for r in rows for s in re.findall(r"\bn=(\d+)", r.name)] == [str(n)]
    assert asked == [(d, n) for d in dims]


def test_run_suites_order():
    results = run_suites(["flagship", "oddk"], VerifyRun(seed=3, mc_n=2000))
    assert [r.name for r in results] == [
        "flagship exact x^2 + 8/3 on three routes",
        "flagship Monte Carlo n=2000",
        "flagship runtime < 30 s",
        "odd-k coefficients vanish (25 random spectra)",
    ]


@pytest.fixture
def called(monkeypatch):
    """The names of the suites run, in order; each suite is a stub."""
    names = []
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda run, name=name: names.append(name) or [])
    return names


@pytest.mark.parametrize("group", ["all", "weingarten", "haar"])
def test_mc_past_the_caps_is_refused_before_any_suite_runs(called, capsys, group):
    # 3e6 samples pass the caps at d = 2 but not at d = 5, which the
    # entry-moment and Haar rows sample
    assert cli.main(["verify", group, "--mc", "3000000"]) == 2
    assert "d=5" in capsys.readouterr().err
    with pytest.raises(CapExceededError):
        run_suites(VERIFY_GROUPS[group], VerifyRun(mc_n=3_000_000))
    assert called == []


@pytest.mark.parametrize("mc_n", [0, 1])
def test_mc_below_two_samples_is_refused_before_any_suite_runs(called, mc_n):
    with pytest.raises(ValueError, match="^need n >= 2$"):
        run_suites(VERIFY_GROUPS["all"], VerifyRun(mc_n=mc_n))
    assert called == []


def test_mc_is_checked_only_where_a_suite_samples(called):
    # the exact suites sample nothing, and the flagship samples at d = 2 only
    assert run_suites(["oddk", "immanant", "flagship"], VerifyRun(mc_n=3_000_000)) == []
    assert called == ["oddk", "immanant", "flagship"]


def _corrupted(k, d):
    wg = weingarten(k, d)
    values = dict(wg.values)
    low = min(values)
    values[low] += Fraction(1, 997)
    return ClassFunction(k, values)


def test_flagship_suite_detects_corrupted_weingarten():
    # corrupting the identity class changes the brute-force value for the
    # flagship pair, so the exact-route check must fail
    results = run_suites(["flagship"], VerifyRun(mc_n=2000, wg_fn=_corrupted))
    assert any(not r.passed for r in results)


def test_convolution_suite_detects_corrupted_weingarten():
    results = run_suites(["convolution"], VerifyRun(wg_fn=_corrupted))
    assert any(not r.passed for r in results)


@pytest.mark.parametrize("factor", ["left_factor", "right_factor"])
def test_a_skewed_factor_fails_its_identity_and_the_triple_route(monkeypatch, factor):
    # a factor is its cross sum times its weight pair: every module that
    # binds the one weight function gets the skewed copy, so the identity
    # row (through the factor) and the closed route read the same fault
    weight = factor.replace("factor", "weight")
    true = getattr(symfunc, weight)

    def skewed(fact, k):
        num, den = true(fact, k)
        return (num * 1001, den * 1000) if k >= 2 else (num, den)

    bound = [m for name, m in sys.modules.items()
             if name.startswith("finfree.") and getattr(m, weight, None) is true]
    assert {m.__name__ for m in bound} == {"finfree.symfunc", "finfree.polynomials"}
    for module in bound:
        monkeypatch.setattr(module, weight, skewed)
    identities = {r.name: r.passed for r in SUITES["identities"](VerifyRun())}
    assert identities.pop("left/right factor identities (even k<=6, d<=8)") is False
    assert all(identities.values())
    rows = SUITES["convolution"](VerifyRun())
    triple = [r for r in rows if r.name.startswith("triple route")]
    assert len(triple) == 4 and not any(r.passed for r in triple)
    assert not next(r for r in rows if r.name.startswith("closed form ==")).passed
