"""Self-test of the tracer.

    python3 perfbench/test_tracer.py        # or: python3 -m pytest perfbench/test_tracer.py
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402


def test_self_times():
    """A parent span's self time excludes the time its children cover."""
    names = ["outer", "inner"]
    spans = {"name_id": [0, 1, 1], "parent": [tracer.NO_PARENT, 0, 0],
             "start": [0.0, 1.0, 4.0], "end": [10.0, 3.0, 5.0]}
    assert tracer.self_times(names, spans) == {"outer": (7.0, 1), "inner": (3.0, 2)}


def traced_calls(work: Path) -> dict:
    """Install the tracer before any finfree module is loaded, as the worker
    does, then run one `commutator --mc` call and the oddk suite."""
    t = tracer.Tracer()
    t.install()
    from finfree.cli import main
    from finfree.verify import run_suites
    from worker import cli_op

    for name in ("A", "B"):
        (work / f"{name}.json").write_text(json.dumps([3, "-1/2", 0, 2]))
    before = t.cache_stats()
    t.active = True
    code, _, error = cli_op(main, ["commutator", str(work / "A.json"), str(work / "B.json"),
                                   "--mc", "200", "--seed", "1"])
    cli_calls = Counter(t.names[i] for i in t.name_id)
    run_suites(["oddk"])
    t.active = False
    after = t.cache_stats()
    return {
        "code": code, "error": error, "cli_calls": cli_calls,
        "calls": Counter(t.names[i] for i in t.name_id),
        "wg_lookups": sum(after[f"weingarten.weingarten.cache_{k}"]
                          - before[f"weingarten.weingarten.cache_{k}"]
                          for k in ("hits", "misses")),
    }


def test_tracer_reaches_every_importer(tmp_path):
    """Names imported into other modules (cli.main, the CLI's within_band)
    and default arguments (wg_fn=weingarten) are wrapped too."""
    proc = subprocess.run([sys.executable, __file__, "--traced-calls", str(tmp_path)],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["code"] == 0, got["error"]
    cli_calls = Counter(got["cli_calls"])
    assert cli_calls["cli.main"] == 1 and cli_calls["polynomials.commutator_poly"] == 1
    assert cli_calls["montecarlo.within_band"] == 2 * 4  # real and imaginary part per k
    assert got["calls"]["weingarten.weingarten"] == got["wg_lookups"] > 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--traced-calls"]:
        print(json.dumps(traced_calls(Path(sys.argv[2]))))
    else:
        import tempfile

        test_self_times()
        with tempfile.TemporaryDirectory() as tmp:
            test_tracer_reaches_every_importer(Path(tmp))
        print("ok")
