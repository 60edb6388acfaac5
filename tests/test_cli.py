import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finfree
from finfree.cli import main
from finfree.polynomials import MonicPoly, boxtimes
from finfree.weingarten import ClassFunction, weingarten


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def poly_files(tmp_path):
    p = write_json(tmp_path, "p.json", {"d": 2, "a": ["1", "0", "-1"]})
    q = write_json(tmp_path, "q.json", {"d": 2, "a": ["1", "-3", "2"]})
    return p, q


@pytest.fixture
def spectra_files(tmp_path):
    a = write_json(tmp_path, "a.json", [1, -1])
    b = write_json(tmp_path, "b.json", ["1", "-1"])
    return a, b


# --------------------------------------------------------------------- conv

def test_conv_add(capsys, poly_files):
    p, q = poly_files
    code, out = run_cli(capsys, "conv", "add", p, p)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["a"] == ["1", "0", "-2"]
    assert payload["pretty"] == "x^2 - 2"


def test_conv_sub_self(capsys, tmp_path, poly_files):
    _, q = poly_files
    code, out = run_cli(capsys, "conv", "sub", q, q)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["a"] == ["1", "0", "-1/2"]
    # a second file with the same polynomial, and the p != q route
    copy = write_json(tmp_path, "q_copy.json", {"d": 2, "a": ["1", "-3", "2"]})
    assert run_cli(capsys, "conv", "sub", q, copy)[1] == out
    other = write_json(tmp_path, "r.json", {"d": 2, "a": ["1", "-3", "1"]})
    code, out = run_cli(capsys, "conv", "sub", q, other)
    assert code == 0
    assert json.loads(out)["result"]["a"] == ["1", "0", "-3/2"]


def test_conv_output_parses_back_as_input(capsys, tmp_path, poly_files):
    p, q = poly_files
    code, out = run_cli(capsys, "conv", "mul", p, q)
    assert code == 0
    first = json.loads(out)["result"]
    again = write_json(tmp_path, "again.json", first)
    code, out = run_cli(capsys, "conv", "mul", again, q)
    assert code == 0
    # same as multiplying q in twice
    twice = boxtimes(
        boxtimes(
            MonicPoly.from_json_dict({"d": 2, "a": ["1", "0", "-1"]}),
            MonicPoly.from_json_dict({"d": 2, "a": ["1", "-3", "2"]}),
        ),
        MonicPoly.from_json_dict({"d": 2, "a": ["1", "-3", "2"]}),
    )
    assert json.loads(out)["result"] == twice.to_json_dict()


def test_conv_pretty_format(capsys, poly_files):
    p, _ = poly_files
    code, out = run_cli(capsys, "conv", "add", p, p, "--format", "pretty")
    assert code == 0
    assert out.splitlines()[0] == "x^2 - 2"


def test_conv_missing_file(capsys, poly_files):
    p, _ = poly_files
    code = main(["conv", "add", p, "/nonexistent/q.json"])
    assert code == 2


def test_conv_degree_mismatch(capsys, tmp_path, poly_files):
    p, _ = poly_files
    q3 = write_json(tmp_path, "q3.json", {"d": 3, "a": ["1", "0", "0", "0"]})
    assert main(["conv", "add", p, q3]) == 2


def test_conv_malformed_poly(capsys, tmp_path):
    bad = write_json(tmp_path, "bad.json", {"d": 2, "a": ["2", "0", "1"]})
    assert main(["conv", "add", bad, bad]) == 2


# -------------------------------------------------------------------- zpoly

def test_zpoly(capsys):
    code, out = run_cli(capsys, "zpoly", "--d", "2")
    assert code == 0
    assert json.loads(out)["result"]["a"] == ["1", "0", "2/3"]
    assert main(["zpoly", "--d", "0"]) == 2


# --------------------------------------------------------------- commutator

def test_commutator_exact(capsys, spectra_files):
    a, b = spectra_files
    code, out = run_cli(capsys, "commutator", a, b)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["a"] == ["1", "0", "8/3"]
    assert "mc" not in payload


def test_commutator_with_mc(capsys, spectra_files):
    a, b = spectra_files
    code, out = run_cli(
        capsys, "commutator", a, b, "--mc", "20000", "--seed", "42"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mc"]["bands_ok"] is True
    assert payload["mc"]["n"] == 20000
    assert payload["mc"]["seed"] == 42
    assert set(payload["mc"]["z_scores"]) == {"e_1", "e_2"}


def test_commutator_mc_reports_are_byte_identical(capsys, spectra_files):
    a, b = spectra_files
    _, out1 = run_cli(capsys, "commutator", a, b, "--mc", "3000", "--seed", "5")
    _, out2 = run_cli(capsys, "commutator", a, b, "--mc", "3000", "--seed", "5")
    assert out1 == out2
    _, out3 = run_cli(
        capsys, "commutator", a, b, "--mc", "3000", "--seed", "5", "--chunk", "100"
    )
    assert json.loads(out3)["mc"]["chunk_size"] == 100


def test_commutator_mc_without_seed(capsys, spectra_files):
    a, b = spectra_files
    assert main(["commutator", a, b, "--mc", "100"]) == 2


def test_commutator_length_mismatch(capsys, tmp_path, spectra_files):
    a, _ = spectra_files
    b3 = write_json(tmp_path, "b3.json", [1, 2, 3])
    assert main(["commutator", a, b3]) == 2


def test_commutator_rejects_floats(capsys, tmp_path, spectra_files):
    a, _ = spectra_files
    bad = write_json(tmp_path, "bad.json", [0.5, 1.5])
    assert main(["commutator", a, bad]) == 2


def test_commutator_rejects_empty(capsys, tmp_path, spectra_files):
    a, _ = spectra_files
    bad = write_json(tmp_path, "empty.json", [])
    assert main(["commutator", a, bad]) == 2


def test_commutator_rejects_booleans(capsys, tmp_path, spectra_files):
    a, _ = spectra_files
    bad = write_json(tmp_path, "bool.json", [True, False])
    assert main(["commutator", bad, bad]) == 2
    assert main(["commutator", a, bad]) == 2


@pytest.mark.parametrize(
    "extra",
    [
        ("--mc", "-5", "--seed", "1"),
        ("--mc", "0", "--seed", "1"),
        ("--mc", "1", "--seed", "1"),
        ("--mc", "x", "--seed", "1"),
        ("--mc", "10", "--seed", "1", "--chunk", "0"),
        ("--mc", "10", "--seed", "1", "--chunk", "-3"),
    ],
)
def test_commutator_bad_mc_arguments(capsys, spectra_files, extra):
    a, b = spectra_files
    assert main(["commutator", a, b, *extra]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def _assert_mc_refused_but_exact_ok(capsys, spectrum, d):
    assert main(["commutator", spectrum, spectrum, "--mc", "4", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
    code, out = run_cli(capsys, "commutator", spectrum, spectrum)
    assert code == 0
    assert json.loads(out)["d"] == d


def test_commutator_mc_refuses_coefficients_beyond_float(capsys, tmp_path):
    # at d = 40 the exact e_40 of this commutator exceeds the float range
    big = write_json(tmp_path, "big.json", list(range(1000, 40001, 1000)))
    _assert_mc_refused_but_exact_ok(capsys, big, 40)


def test_commutator_mc_refuses_spectrum_beyond_float(capsys, tmp_path):
    # at d = 1 the exact polynomial is x, but 10^400 itself is no float
    huge = write_json(tmp_path, "huge.json", ["1" + "0" * 400])
    _assert_mc_refused_but_exact_ok(capsys, huge, 1)


def test_commutator_smallest_mc_sample(capsys, spectra_files):
    a, b = spectra_files
    code, out = run_cli(capsys, "commutator", a, b, "--mc", "2", "--seed", "1")
    assert code in (0, 1)
    assert json.loads(out)["mc"]["n"] == 2


# --------------------------------------------------------------- weingarten

def test_weingarten_roundtrip(capsys):
    code, out = run_cli(capsys, "weingarten", "--k", "3", "--d", "4")
    assert code == 0
    payload = json.loads(out)
    assert ClassFunction.from_json_dict(payload) == weingarten(3, 4)
    assert payload["d"] == 4


def test_weingarten_bad_args(capsys):
    assert main(["weingarten", "--k", "0", "--d", "3"]) == 2
    assert main(["weingarten", "--k", "11", "--d", "3"]) == 2


# ----------------------------------------------------------------- immanant

def test_immanant_both_methods(capsys, tmp_path):
    mat = write_json(tmp_path, "y.json", [[1, 2], [3, 4]])
    code, out = run_cli(capsys, "immanant", "--shape", "1,1", mat)
    assert code == 0
    assert json.loads(out)["value"] == "-2"
    code, out = run_cli(
        capsys, "immanant", "--shape", "2", mat, "--method", "multilinear"
    )
    assert code == 0
    assert json.loads(out)["value"] == "10"


def test_immanant_bracketed_shape(capsys, tmp_path):
    mat = write_json(tmp_path, "y.json", [[1, 2], [3, 4]])
    code, out = run_cli(capsys, "immanant", "--shape", "[2]", mat)
    assert code == 0
    assert json.loads(out)["value"] == "10"


def test_immanant_multilinear_default_cap(capsys, tmp_path):
    # both methods default to the one immanant cap, n = 9
    eye = [[int(i == j) for j in range(10)] for i in range(10)]
    mat = write_json(tmp_path, "eye10.json", eye)
    assert main(["immanant", "--shape", "10", mat, "--method", "multilinear"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    mat = write_json(tmp_path, "eye9.json", [row[:9] for row in eye[:9]])
    code, out = run_cli(capsys, "immanant", "--shape", "9", mat, "--method", "multilinear")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_verify_help_names_the_negative_control_rows(capsys):
    assert main(["verify", "-h"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "triple-route" in text and "Gram-system" in text
    assert "flagship and odd-k rows read the table but still pass" in text


def test_immanant_errors(capsys, tmp_path):
    mat = write_json(tmp_path, "y.json", [[1, 2], [3, 4]])
    assert main(["immanant", "--shape", "3", mat]) == 2  # size mismatch
    assert main(["immanant", "--shape", "x", mat]) == 2
    ragged = write_json(tmp_path, "ragged.json", [[1, 2], [3]])
    assert main(["immanant", "--shape", "1,1", ragged]) == 2


# ---------------------------------------------------------------- character

def test_character_single_value(capsys):
    code, out = run_cli(
        capsys, "character", "--shape", "2,1", "--cycle-type", "3"
    )
    assert code == 0
    assert json.loads(out)["value"] == -1


def test_character_full_table(capsys):
    code, out = run_cli(capsys, "character", "--k", "3")
    assert code == 0
    table = json.loads(out)["table"]
    assert table["2,1|1,1,1"] == 2
    assert len(table) == 9


def test_character_arg_validation(capsys):
    assert main(["character"]) == 2
    assert main(["character", "--shape", "2,1"]) == 2
    assert main(["character", "--shape", "2,1", "--cycle-type", "2,2"]) == 2


def test_character_negative_k_is_a_usage_error(capsys):
    assert main(["character", "--k", "-1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["error: k must be nonnegative"]
    # the one-entry table of S_0 is an answer, not an error
    code, out = run_cli(capsys, "character", "--k", "0")
    assert code == 0 and json.loads(out)["table"] == {"|": 1}


# ------------------------------------------------------------------- kostka

def test_kostka_cli(capsys):
    code, out = run_cli(capsys, "kostka", "--shape", "2,1", "--weight", "1,1,1")
    assert code == 0
    assert json.loads(out)["value"] == 2
    code, out = run_cli(
        capsys, "kostka", "--shape", "2,1", "--weight", "1,1,1", "--inverse"
    )
    assert code == 0
    assert json.loads(out)["value"] == -2


def test_kostka_size_mismatch(capsys):
    assert main(["kostka", "--shape", "2,1", "--weight", "1,1"]) == 2


# ------------------------------------------------------------------- verify

def test_verify_identities_suite(capsys):
    code, out = run_cli(capsys, "verify", "identities", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_haar_suite(capsys):
    code, out = run_cli(capsys, "verify", "haar")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS Haar sampler")
    assert lines[-1] == "1/1 checks passed"


def test_verify_negative_control(capsys):
    code, out = run_cli(
        capsys, "verify", "weingarten", "--mc", "2000", "--seed", "7",
        "--inject-wg-error",
    )
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("n", ["-1", "0", "1"])
def test_verify_bad_mc(capsys, n):
    assert main(["verify", "weingarten", "--mc", n]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 2


def test_entry_point_runs():
    # the child interpreter imports the package under test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(finfree.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "finfree", "zpoly", "--d", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pretty"] == "x^3 + 27/8*x"


# Runs in a fresh interpreter: which exact commands load numpy, and that the
# Monte Carlo names still resolve from the package.
NUMPY_PROBE = """
import json, sys, tempfile
from pathlib import Path

def write(name, payload):
    path = Path(tmp) / name
    path.write_text(json.dumps(payload))
    return str(path)

tmp = tempfile.mkdtemp()
p = write("p.json", {"d": 2, "a": ["1", "0", "-1"]})
a = write("a.json", [1, -1])
y = write("y.json", [[1, 2], [3, 4]])

from finfree.cli import main

exact = [
    ["conv", "add", p, p], ["conv", "sub", p, p], ["conv", "mul", p, p],
    ["zpoly", "--d", "3"], ["commutator", a, a],
    ["weingarten", "--k", "3", "--d", "4"],
    ["immanant", "--shape", "2", y], ["character", "--k", "4"],
    ["kostka", "--shape", "2,1", "--weight", "1,1,1"],
    ["verify", "oddk"], ["verify", "immanant"],
]
codes = [main(argv) for argv in exact]
exact_numpy = "numpy" in sys.modules
mc_code = main(["commutator", a, a, "--mc", "100", "--seed", "1"])
mc_numpy = "numpy" in sys.modules

import finfree
from finfree import mc_charpoly

resolved = [finfree.McReport.__name__, mc_charpoly.__module__]
print(json.dumps([codes, exact_numpy, mc_code, mc_numpy, resolved]))
"""


def test_exact_commands_do_not_load_numpy():
    env = {**os.environ, "PYTHONPATH": str(Path(finfree.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    codes, exact_numpy, mc_code, mc_numpy, resolved = json.loads(
        proc.stdout.splitlines()[-1]
    )
    assert codes == [0] * 11 and not exact_numpy
    assert mc_code == 0 and mc_numpy
    assert resolved == ["McReport", "finfree.montecarlo"]


def test_package_resolves_only_its_own_names():
    assert finfree.within_band is finfree.montecarlo.within_band
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        finfree.no_such_name
