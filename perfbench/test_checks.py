"""Self-test of the benchmark's checks: each must accept a right output and
reject a deliberately wrong one.

    python3 perfbench/test_checks.py        # or: python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from worker import cli_op  # noqa: E402

from finfree.cli import main  # noqa: E402
from finfree.verify import SUITES  # noqa: E402

A = (Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2))
B = (Fraction(1), Fraction(1), Fraction(-2), Fraction(5, 3))


def _commutator(tmp_path, a, b, *extra):
    paths = []
    for name, spec in (("A", a), ("B", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps([str(v) for v in spec]))
        paths.append(str(path))
    code, text, error = cli_op(main, ["commutator", *paths, *extra])
    assert error is None, error
    return code, text


def _edit(text, change):
    payload = json.loads(text)
    change(payload)
    return json.dumps(payload)


def test_exact_checks(tmp_path):
    code, text = _commutator(tmp_path, A, B)
    assert code == 0
    assert checks.check_exact(text, 4, A, B, [2, 4]) == []

    def odd_nonzero(p):
        p["result"]["a"][3] = "1/7"
    assert checks.check_exact(_edit(text, odd_nonzero), 4, A, B, [2, 4])

    def even_off(p):
        p["result"]["a"][4] = str(Fraction(p["result"]["a"][4]) + 1)
    assert checks.check_exact(_edit(text, even_off), 4, A, B, [4])

    def lead_off(p):
        p["result"]["a"][0] = "2"
    assert checks.check_exact(_edit(text, lead_off), 4, A, B, [2])
    assert checks.check_exact(text, 5, A, B, [2])


def test_property_checks(tmp_path):
    _, base = _commutator(tmp_path, A, B)
    _, shifted = _commutator(tmp_path, [v + Fraction(7, 3) for v in A], B)
    _, scaled = _commutator(tmp_path, [v * -2 for v in A], B)
    assert checks.check_shift(base, shifted) == []
    assert checks.check_scale(base, scaled, Fraction(-2)) == []
    assert checks.check_shift(base, scaled)
    assert checks.check_scale(base, scaled, Fraction(3))


def test_d2_check(tmp_path):
    code, text = _commutator(tmp_path, (1, -1), (1, -1))
    assert code == 0 and json.loads(text)["pretty"] == "x^2 + 8/3"
    assert checks.check_d2(text, (1, -1), (1, -1)) == []
    assert checks.check_d2(text, (1, -1), (2, -1))


def test_mc_checks(tmp_path):
    code, text = _commutator(tmp_path, A, B, "--mc", "4000", "--seed", "3")
    assert code == 0
    assert checks.check_mc(text, code, 4, 4000, A, B) == []

    def e2_off(p):
        s = p["mc"]["statistics"][1]
        s["mean_re"] = repr(float(s["mean_re"]) + 10 * float(s["se_re"]))
    assert checks.check_mc(_edit(text, e2_off), code, 4, 4000, A, B)

    def e3_imag_off(p):
        s = p["mc"]["statistics"][2]
        s["mean_im"] = repr(float(s["mean_im"]) + 10 * float(s["se_im"]) + 1e-6)
    assert checks.check_mc(_edit(text, e3_imag_off), code, 4, 4000, A, B)

    def not_unitary(p):
        p["mc"]["unitarity_residual_max"] = "1e-6"
    assert checks.check_mc(_edit(text, not_unitary), code, 4, 4000, A, B)

    def band_failed(p):
        p["mc"]["bands_ok"] = False
    assert checks.check_mc(_edit(text, band_failed), 1, 4, 4000, A, B)


def test_verify_checks():
    outputs = [{"suite": s, "error": None,
                "rows": [{"name": f"{s} check", "passed": True, "detail": ""}]}
               for s in SUITES]
    assert checks.check_verify(outputs, SUITES) == []
    assert checks.check_verify(outputs[:-1], SUITES)
    outputs[4]["rows"][0]["passed"] = False
    assert checks.check_verify(outputs, SUITES)

    code, text, _ = cli_op(main, ["verify", "commutator", "--inject-wg-error"])
    assert checks.check_negative_control(code, text) == []
    assert checks.check_negative_control(0, text)
    assert checks.check_negative_control(1, text.replace("FAIL ", "PASS "))


if __name__ == "__main__":
    import tempfile

    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as tmp:
                args = [Path(tmp)] if test.__code__.co_argcount else []
                test(*args)
            print(f"ok {name}")
