import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import finfree
from finfree import cli
from finfree.cli import COMMANDS, main
from finfree.partitions import Partition
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


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("error:")
    return line


@pytest.mark.parametrize(
    "document",
    [
        {"a": "13"},  # a string, which would be read character by character
        {"d": 1.5, "a": [1, 2]},
        {"d": True, "a": [1, 2]},
    ],
)
def test_conv_refuses_malformed_documents(capsys, tmp_path, document):
    bad = write_json(tmp_path, "bad.json", document)
    good = write_json(tmp_path, "good.json", {"a": [1, 2]})
    assert main(["conv", "add", bad, good]) == 2
    _assert_one_error_line(capsys)


def test_undecodable_file_is_named(capsys, tmp_path):
    # a UTF-16 byte-order mark: not UTF-8, so json cannot even read the text
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe[1, 2]")
    assert main(["commutator", str(path), str(path)]) == 2
    line = _assert_one_error_line(capsys)
    assert str(path) in line and "is not UTF-8 text" in line


def test_overlong_int_in_file_is_named(capsys, tmp_path):
    # valid JSON, but past Python's 4300-digit int/str limit, so json.load
    # raises a plain ValueError rather than a JSONDecodeError
    path = tmp_path / "big.json"
    path.write_text("[1" + "0" * 5000 + ", 2]")
    assert main(["commutator", str(path), str(path)]) == 2
    line = _assert_one_error_line(capsys)
    assert str(path) in line and "4300 digits" in line


def test_result_past_digit_limit_names_the_coefficient(capsys, tmp_path):
    # a 1201-digit root: the inputs print, but a_2 of the commutator has
    # more digits than Python's 4300-digit int/str limit lets str() print
    path = write_json(tmp_path, "big.json", ["1" + "0" * 1200, 2, 3, 4])
    assert main(["commutator", path, path]) == 2
    line = _assert_one_error_line(capsys)
    assert "result coefficient a_2 has 4801 digits" in line and "4300" in line


# Documents that are not objects with an "a" list: each is refused with the
# same message, exit 2
@pytest.mark.parametrize("document", [{}, [1, 2], None, {"a": "13"}], ids=json.dumps)
def test_non_polynomial_document_is_named(capsys, tmp_path, document):
    path = write_json(tmp_path, "p.json", document)
    assert main(["conv", "add", path, path]) == 2
    line = _assert_one_error_line(capsys)
    assert line == (f"error: {path} is not a polynomial document: "
                    'need a JSON object whose "a" is a list of coefficients')


# Each library refusal that main reports as exit 2, by command; {p3} is a
# cubic, {p}, {m} a quadratic and a 3 x 3 matrix, {p1001}, {s1001} a
# polynomial and a spectrum one past the degree cap, and {s200} a spectrum
# whose 4096-sample Monte Carlo chunk is past the chunk cap.
REFUSED_ARGUMENTS = [
    ["conv", "add", "{p}", "{p3}"],
    ["zpoly", "--d", "0"],
    ["zpoly", "--d", "100000000"],
    ["conv", "mul", "{p1001}", "{p1001}"],
    ["commutator", "{s1001}", "{s1001}"],
    ["commutator", "{sexp}", "{s2}"],
    ["commutator", "{s200}", "{s200}", "--mc", "4096", "--seed", "1"],
    ["weingarten", "--k", "11", "--d", "3"],
    ["immanant", "--shape", "2,2", "{m}"],
    ["character", "--k", "11"],
    ["character", "--shape", "2,1", "--cycle-type", "2,2"],
    ["kostka", "--shape", "2,1", "--weight", "1,1"],
    ["verify", "haar", "--mc", "1000000000"],
]


@pytest.mark.parametrize("argv", REFUSED_ARGUMENTS, ids=lambda argv: " ".join(argv[:3]))
def test_library_refusals_exit_2_with_one_error_line(capsys, tmp_path, argv):
    files = {
        "{p}": write_json(tmp_path, "p.json", {"d": 2, "a": ["1", "0", "-1"]}),
        "{p3}": write_json(tmp_path, "p3.json", {"d": 3, "a": ["1", "0", "0", "1"]}),
        "{m}": write_json(tmp_path, "m.json", [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        "{p1001}": write_json(tmp_path, "p1001.json", {"d": 1001, "a": [1] + [0] * 1001}),
        "{s1001}": write_json(tmp_path, "s1001.json", [1] * 1001),
        "{s200}": write_json(tmp_path, "s200.json", [1] * 100 + [-1] * 100),
        "{sexp}": write_json(tmp_path, "sexp.json", ["1e3000000", 1]),
        "{s2}": write_json(tmp_path, "s2.json", [1, 2]),
    }
    assert main([files.get(arg, arg) for arg in argv]) == 2
    _assert_one_error_line(capsys)


# A size refusal is the library's own message, bare: no file is named as
# malformed, whichever command loaded the document
@pytest.mark.parametrize("argv, line", [
    (["conv", "add", "{p1001}", "{p1001}"], "polynomial degree 1001 exceeds cap 1000"),
    (["commutator", "{s1001}", "{s1001}"], "polynomial degree 1001 exceeds cap 1000"),
    (["immanant", "--shape", "10", "{m10}"], "immanant size 10 exceeds cap 9"),
], ids=["conv", "commutator", "immanant"])
def test_size_refusals_are_bare(capsys, tmp_path, argv, line):
    files = {
        "{p1001}": write_json(tmp_path, "p1001.json", {"d": 1001, "a": [1] + [0] * 1001}),
        "{s1001}": write_json(tmp_path, "s1001.json", ["1/3"] * 1001),
        "{m10}": write_json(tmp_path, "m10.json", [["1/2"] * 10] * 10),
    }
    assert main([files.get(arg, arg) for arg in argv]) == 2
    assert _assert_one_error_line(capsys) == f"error: {line}"


# Per command: an argv that parses, one missing a required argument, and one
# with a value its parser refuses ({f} is an existing file). Each is run
# through main as is and with "--bogus" appended, along with -h and no
# arguments at all.
PARSER_PROBES = {
    "conv": (["add", "{f}", "{f}"], ["add", "{f}"], ["add", "{f}", "{f}", "--format", "xml"]),
    "zpoly": (["--d", "2"], ["--format", "json"], ["--d", "x"]),
    "commutator": (["{f}", "{f}"], ["{f}"], ["{f}", "{f}", "--mc", "1"]),
    "weingarten": (["--k", "2", "--d", "2"], ["--k", "2"], ["--k", "x", "--d", "2"]),
    "immanant": (["--shape", "2", "{f}"], ["--shape", "2"],
                 ["--shape", "2", "{f}", "--method", "x"]),
    "character": (["--k", "2"], ["--shape"], ["--k", "0"]),
    "kostka": (["--shape", "1", "--weight", "1"], ["--shape", "1"],
               ["--shape", "1", "--weight", "1", "--format", "xml"]),
    "verify": (["oddk"], ["--seed", "1"], ["oddk", "--seed", "x"]),
}


def test_one_command_parser_matches_full_parser(capsys, monkeypatch, spectra_files):
    assert sorted(PARSER_PROBES) == sorted(COMMANDS)
    f, _ = spectra_files
    argvs = []
    for command, (parses, missing, bad) in PARSER_PROBES.items():
        tails = [["-h"], [], missing, bad, [*parses, "--bogus"]]
        argvs += [[command, *(f if arg == "{f}" else arg for arg in tail)] for tail in tails]
    full_parser = cli.build_parser

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    one_command = [run(argv) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    for argv, seen in zip(argvs, one_command):
        assert run(argv) == seen, argv
        assert seen[0] in (0, 2) and "Traceback" not in seen[2]


def test_main_builds_only_the_invoked_command(capsys, monkeypatch):
    built, add_parser = [], argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    for argv, count in [(["commutator", "a", "b"], 1), (["-h"], 8), (["comutator"], 8)]:
        built.clear()
        assert main(argv) in (0, 2)
        assert len(built) == count, argv


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


def test_commutator_mc_without_seed(capsys, spectra_files):
    a, b = spectra_files
    assert main(["commutator", a, b, "--mc", "100"]) == 2


@pytest.mark.parametrize(
    "spectrum, extra",
    [
        ([1, -1], ("--mc", "100")),  # no seed
        ([1] * 100 + [-1] * 100, ("--mc", "4096", "--seed", "1")),  # chunk cap
        ([1, -1], ("--mc", str(2**25 + 1), "--seed", "1")),  # work cap, n*d^3
    ],
    ids=["seed", "chunk", "work"],
)
def test_commutator_refuses_bad_mc_before_the_exact_work(
        monkeypatch, capsys, tmp_path, spectrum, extra):
    def exact_work(*args):
        raise AssertionError("commutator_poly reached")

    monkeypatch.setattr(cli, "commutator_poly", exact_work)
    path = write_json(tmp_path, "s.json", spectrum)
    assert main(["commutator", path, path, *extra]) == 2
    _assert_one_error_line(capsys)


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
        ("--mc", "100", "--seed", "1", "--chunk", "100"),  # the flag is gone
    ],
)
def test_commutator_bad_mc_arguments(capsys, spectra_files, extra):
    a, b = spectra_files
    assert main(["commutator", a, b, *extra]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["commutator", "{f}", "{f}", "--mc", "100", "--seed", "-1"],
        ["verify", "immanant", "--seed", "-1"],
        ["verify", "all", "--seed", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_negative_seed_is_a_usage_error(capsys, spectra_files, argv):
    f, _ = spectra_files
    assert main([f if arg == "{f}" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "argument --seed: must be at least 0, got -1" in captured.err


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
    values = {Partition(e["cycle_type"]): Fraction(e["rational"]) for e in payload["values"]}
    assert ClassFunction(payload["k"], values) == weingarten(3, 4)
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
    # both methods refuse past the one immanant cap, n = 9, with one message,
    # before the shape or any entry is read
    mat = write_json(tmp_path, "big.json", [["1/2"] * 10] * 10)
    for method in ("direct", "multilinear"):
        assert main(["immanant", "--shape", "5,4", mat, "--method", method]) == 2
        assert _assert_one_error_line(capsys) == "error: immanant size 10 exceeds cap 9"
    eye = [[int(i == j) for j in range(9)] for i in range(9)]
    mat = write_json(tmp_path, "eye9.json", eye)
    code, out = run_cli(capsys, "immanant", "--shape", "9", mat, "--method", "multilinear")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_verify_help_names_the_negative_control_rows(capsys):
    assert main(["verify", "-h"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "triple-route" in text and "orthogonality rows" in text
    assert "flagship and odd-k rows read the table but still pass" in text


# Documents whose iteration would not give the rows and entries of a
# matrix: a mapping (its keys), a list of strings (their characters), null
@pytest.mark.parametrize("document, shape", [
    ({"12": 0, "34": 0}, "2"), (["12", "34"], "1,1"), (None, "2"),
], ids=json.dumps)
def test_immanant_refuses_non_matrix_documents(capsys, tmp_path, document, shape):
    path = write_json(tmp_path, "d.json", document)
    for method in ("direct", "multilinear"):
        assert main(["immanant", "--shape", shape, path, "--method", method]) == 2
        assert _assert_one_error_line(capsys) == (
            f"error: {path} is not a rational matrix: "
            "need a list of rows, each a list of rationals")


@pytest.mark.parametrize("document", ["12", {"a": [1, 2]}, 3, None], ids=json.dumps)
def test_commutator_refuses_non_spectrum_documents(capsys, tmp_path, document):
    path = write_json(tmp_path, "s.json", document)
    good = write_json(tmp_path, "good.json", [1, 2])
    assert main(["commutator", good, path]) == 2
    assert _assert_one_error_line(capsys) == (
        f"error: {path} is not a spectrum: need a list of rationals")


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
    # --k takes k >= 1, the way weingarten --k does
    for k in ("0", "-1"):
        assert main(["character", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


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


# Generated argv for the commands that never sample. Files hold spectra,
# polynomial documents or junk, or are missing; values include bad flags,
# huge ints and unparsable text. A huge int goes only where a cap or a size
# check meets it, or where it is a parameter (the d of Wg). Polynomial
# degrees and spectrum lengths reach past the degree cap.
_HUGE = str(10**23)
_SMALL_RATIONAL = st.one_of(st.integers(-9, 9), st.sampled_from(["1/2", "-7/3", "0/5"]))
_FUZZ_DOCUMENT = st.one_of(
    st.lists(_SMALL_RATIONAL, min_size=1, max_size=8),
    st.lists(_SMALL_RATIONAL, min_size=1, max_size=8).map(
        lambda tail: {"d": len(tail), "a": [1, *tail]}
    ),
    st.sampled_from([
        [True, False], [[1, 2], [3]], ["1/0"], [10**400, 1], [0.5, 1], [], {},
        None, "1/2", {"a": "13"}, {"d": True, "a": [1, 2]}, {"d": 2, "a": [2, 0, 1]},
        {"d": 1, "a": ["1", "1/0"]}, [1] * 1001, {"d": 1001, "a": [1] + [0] * 1001},
        # exponent strings at and past Python's 4300-digit int/str limit
        ["1e4299", 1], {"d": 1, "a": [1, "1e4299"]}, ["1e5000"],
        {"d": 1, "a": [1, "1e-3000000"]},
    ]),
)
# bytes are a file's contents, None a path that does not exist; a JSON
# document comes twice as often as raw bytes or a missing file
_FUZZ_JSON_FILE = _FUZZ_DOCUMENT.map(lambda doc: json.dumps(doc).encode())
_FUZZ_FILE = st.one_of(
    _FUZZ_JSON_FILE,
    _FUZZ_JSON_FILE,
    st.sampled_from([b"", b"\xff\xfe[1]", b"[1, 2", ("[" + "7" * 5000 + "]").encode()]),
    st.none(),
)
_DEGREE_TEXT = st.one_of(
    st.integers(-2, 8).map(str), st.sampled_from(["x", "", "1.5", "1001", "100000000"]),
)
_K_TEXT = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["x", _HUGE]))
_PARTITION_TEXT = st.one_of(
    st.lists(st.integers(-1, 2), max_size=3).map(lambda parts: ",".join(map(str, parts))),
    st.sampled_from(["[2,1]", "x", "", _HUGE]),
)
_FUZZ_OPTIONS = {
    "conv": {"--format": st.sampled_from(["json", "pretty", "xml"])},
    "commutator": {"--format": st.sampled_from(["json", "pretty"])},
    "zpoly": {
        "--d": st.one_of(_DEGREE_TEXT, st.just(_HUGE)),
        "--format": st.sampled_from(["json", "pretty"]),
    },
    "weingarten": {
        "--k": _K_TEXT, "--d": st.one_of(_DEGREE_TEXT, st.just(_HUGE)),
    },
    "character": {
        "--k": _K_TEXT, "--shape": _PARTITION_TEXT, "--cycle-type": _PARTITION_TEXT,
    },
    "kostka": {
        "--shape": _PARTITION_TEXT, "--weight": _PARTITION_TEXT, "--inverse": st.none(),
    },
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    # about one argv in ten names no command, so main builds the full parser
    lead = draw(st.sampled_from([command] * 27 + [command[:-1], "--format", ""]))
    argv = [lead]
    if command == "conv":
        argv.append(draw(st.sampled_from(["add", "sub", "mul", "div"])))
    if command in ("conv", "commutator"):
        count = draw(st.sampled_from([2, 2, 2, 0, 1, 3]))
        files = draw(st.lists(_FUZZ_FILE, min_size=count, max_size=count))
        if count >= 2 and draw(st.booleans()):
            files[1] = files[0]  # equal contents, so degrees and lengths agree
        argv += files
    options = _FUZZ_OPTIONS[command]
    for flag in sorted(options):
        if not draw(st.sampled_from([True] * 4 + [False])):  # left out one time in five
            continue
        value = draw(options[flag])
        argv += [flag] if value is None else [flag, value]
    extra = draw(st.sampled_from([None] * 12 + ["--bogus", "--mc", "-x", "extra"]))
    return argv if extra is None else [*argv, extra]


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
def test_fuzzed_argv_exit_0_or_2_without_traceback(tmp_path_factory, template):
    directory = tmp_path_factory.getbasetemp() / "fuzz"
    directory.mkdir(exist_ok=True)
    argv = []
    for i, item in enumerate(template):
        if isinstance(item, bytes):
            path = directory / f"file{i}.json"
            path.write_bytes(item)
            item = str(path)
        elif item is None:
            item = str(directory / "missing.json")
        argv.append(item)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# Runs in a fresh interpreter: which exact commands load numpy, and that the
# Monte Carlo names still resolve from the package.
NUMPY_PROBE = """
import json, sys, tempfile
from fractions import Fraction
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
    ["verify", "oddk", "--mc", "3000000"],  # no suite samples, so no refusal
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


def _fresh(probe: str, *args):
    """The JSON last line a probe prints in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(finfree.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_commands_do_not_load_numpy():
    codes, exact_numpy, mc_code, mc_numpy, resolved = _fresh(NUMPY_PROBE)
    assert codes == [0] * 12 and not exact_numpy
    assert mc_code == 0 and mc_numpy
    assert resolved == ["McReport", "finfree.montecarlo"]


def test_package_resolves_only_its_own_names():
    assert finfree.within_band is finfree.montecarlo.within_band
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        finfree.no_such_name


CONVOLUTION_PROBE = """
import json, sys, tempfile
from pathlib import Path

tmp = Path(tempfile.mkdtemp())
(tmp / "p.json").write_text(json.dumps({"d": 2, "a": ["1", "0", "-1"]}))
(tmp / "a.json").write_text(json.dumps([1, -1]))
p, a = str(tmp / "p.json"), str(tmp / "a.json")

from finfree.cli import main

codes = [main(argv) for argv in (
    ["commutator", a, a], ["conv", "add", p, p], ["conv", "sub", p, p],
    ["conv", "mul", p, p], ["zpoly", "--d", "3"],
)]
print(json.dumps([codes, sorted(sys.modules)]))
"""


def test_convolution_commands_load_only_their_layers():
    codes, loaded = _fresh(CONVOLUTION_PROBE)
    assert codes == [0] * 5
    unused = {f"finfree.{m}" for m in ("verify", "oracle", "immanants", "weingarten",
                                       "montecarlo")}
    unused |= {"dataclasses", "inspect", "numpy"}  # @dataclass loads the first two
    assert unused.isdisjoint(loaded)
    assert {"finfree.polynomials", "finfree.symfunc"} <= set(loaded)


# The package's public names, by the submodule that defines them.
PUBLIC_NAMES = {
    "partitions": ["Partition", "dominance_leq", "hooks_and_contents", "kostka",
                   "partitions_of", "semistandard_tableaux", "set_partitions",
                   "set_partitions_of_type", "split_chains", "two_column", "two_row"],
    "symgroup": ["c_constant", "c_constant_bruteforce", "character", "character_table",
                 "cycle_type", "dim_irrep", "inverse_kostka", "perm_sign"],
    "symfunc": ["e_to_m", "eval_monomial", "eval_quasisym", "m_to_e", "schur_principal"],
    "weingarten": ["ClassFunction", "integrate_moment", "weingarten"],
    "immanants": ["delta_minus", "imm_delta_minus", "immanant_direct", "immanant_gj"],
    "polynomials": ["MonicPoly", "boxminus", "boxplus", "boxtimes", "commutator_coefficient",
                    "commutator_poly", "z_poly"],
    "oracle": ["alternating_binomial_pair", "brute_force_expected_ek",
               "gram_identity_residual", "identity_leftdep", "identity_rightdep",
               "rothe_hagen_pair", "telescoping_pair", "weingarten_gram_inverse"],
    "util": ["CapExceededError"],
    "montecarlo": ["McReport", "mc_charpoly", "mc_conjugation_mean", "mc_entry_moments",
                   "within_band"],
}

NAMESPACE_PROBE = """
import json, sys
if sys.argv[1] == "verify-first":
    import finfree.verify
import finfree
from finfree import weingarten

public = json.loads(sys.argv[2])
wrong = [name for home, names in public.items() for name in names
         if getattr(finfree, name) is not getattr(sys.modules["finfree." + home], name)]
wrong += [home for home in public if home != "weingarten"
          if getattr(finfree, home) is not sys.modules["finfree." + home]]
try:
    finfree.no_such_name
except AttributeError as exc:
    missing = str(exc)
star = {}
exec("from finfree import *", star)
print(json.dumps([wrong, weingarten.__module__, finfree.weingarten is weingarten,
                  dir(finfree), missing, finfree.__version__, sorted(star)]))
"""


@pytest.mark.parametrize("order", ["package-first", "verify-first"])
def test_package_names_resolve_in_either_import_order(order):
    wrong, wg_module, same_wg, listed, missing, version, star = _fresh(
        NAMESPACE_PROBE, order, json.dumps(PUBLIC_NAMES))
    assert wrong == []
    assert wg_module == "finfree.weingarten" and same_wg  # the function, not the module
    assert {name for names in PUBLIC_NAMES.values() for name in names} <= set(listed)
    assert set(PUBLIC_NAMES) <= set(listed)
    assert missing == "module 'finfree' has no attribute 'no_such_name'"
    assert version == "0.1.0"
    # a star import binds every exact-layer name, and no Monte Carlo one
    assert set(star) - {"__builtins__"} == {
        name for home, names in PUBLIC_NAMES.items() if home != "montecarlo" for name in names}
