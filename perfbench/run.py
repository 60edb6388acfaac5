"""finfree benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {exact_conv,verify_all,mc_bands}
                             [--seed N] [--seconds T] [--trace 0|1]

Run from anywhere; it measures the finfree sources in ../src of this file.
Each workload is a closed loop with one caller in one process. The measured
processes (worker.py) run with BLAS pinned to one thread. A run attempts a
fixed list of whole rounds of ops; --seconds sets how many rounds, through a
nominal round length, and never cuts a run short.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics setup_s, ops_per_s, op_p50_ms and peak_rss_mb; with --trace 1 the
functions of every finfree layer are wrapped (tracer.py) and it holds the
per-layer metrics. Times in the metrics are at reference pace (pace.py):
each is scaled by how long a fixed reference routine took next to it, so
that the drift of a shared host cancels. The wall-clock figures are printed
as comments and kept in the record. Every run checks the ops' outputs
(checks.py) outside the timed window and writes its figures and provenance
to .perfbench_out/.
"""

import os

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Set before numpy is imported here by the checks, and passed to the workers.
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up is timed this many times per run (the measured processes included)
# and reported as the median, because bare interpreter start-up alone varies
# by tens of percent on a shared machine.
SETUP_SAMPLES = {"exact_conv": 5, "mc_bands": 9, "verify_all": 15}
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not be measured: exit nonzero without a result."""


def _worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(args, work: Path, tag: str, setup_only: bool, deadline: float) -> dict:
    """Run one worker; return its result with setup_s filled in."""
    result_path = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", str(work / tag),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd.append("--trace")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_worker_env(), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["setup_wall_s"] = result["setup_end"] - started
    result["setup_s"] = pace.scale(result["setup_wall_s"],
                                   statistics.median(result["setup_pace"]))
    result["work"] = work / tag
    return result


def measure(args, work: Path) -> tuple:
    """(set-up samples, measured worker results); a set-up sample is a
    (reference pace, wall) pair of seconds."""
    deadline = time.monotonic() + DEADLINE_S
    passes = workloads.rounds_for(args.workload, args.seconds) \
        if args.workload == "verify_all" else 1
    probes = 0 if args.trace else max(0, SETUP_SAMPLES[args.workload] - passes)
    probed = [_spawn(args, work, f"probe{i}", True, deadline) for i in range(probes)]
    # verify_all runs each pass in a fresh interpreter, so caches start cold.
    results = [_spawn(args, work, f"pass{i}", False, deadline) for i in range(passes)]
    return [(r["setup_s"], r["setup_wall_s"]) for r in probed + results], results


def scaled_latencies(result: dict) -> list:
    """Each op's latency at reference pace, by the mean of the reference
    samples taken just before and just after it."""
    paces = result["pace"]
    return [pace.scale(t, (paces[i] + paces[i + 1]) / 2)
            for i, t in enumerate(result["latencies"])]


def _outputs(results: list) -> list:
    outs = []
    for r in results:
        outs += json.loads((r["work"] / "outputs.json").read_text())
    return outs


def _write_spectrum(path: Path, values) -> str:
    path.write_text(json.dumps([str(Fraction(v)) for v in values]))
    return str(path)


def check_exact_conv(args, outputs: list, work: Path) -> list:
    from finfree.cli import main
    from worker import cli_op

    ops = workloads.exact_ops(args.seed, workloads.rounds_for(args.workload, args.seconds))
    problems = []
    for op, out in zip(ops, outputs):
        if out["code"] == 0:
            a, b = workloads.as_fractions(op["a"]), workloads.as_fractions(op["b"])
            problems += checks.check_exact(out["stdout"], op["d"], a, b, op["check_k"])
    for idx, kind, param in workloads.exact_transforms(args.seed, ops):
        if outputs[idx]["code"] != 0:
            continue
        a = workloads.as_fractions(ops[idx]["a"])
        moved = [v + param for v in a] if kind == "shift" else [v * param for v in a]
        argv = ["commutator", _write_spectrum(work / f"{kind}{idx}_A.json", moved),
                outputs[idx]["argv"][2]]
        code, text, error = cli_op(main, argv)
        if code != 0:
            problems.append(f"{kind} re-run of op {idx} failed: {code} {error or ''}")
        elif kind == "shift":
            problems += checks.check_shift(outputs[idx]["stdout"], text)
        else:
            problems += checks.check_scale(outputs[idx]["stdout"], text, param)
    for i, (a, b) in enumerate(workloads.exact_d2_pairs(args.seed)):
        argv = ["commutator", _write_spectrum(work / f"d2_{i}_A.json", a),
                _write_spectrum(work / f"d2_{i}_B.json", b)]
        code, text, error = cli_op(main, argv)
        if code != 0:
            problems.append(f"d=2 pair {a} {b} failed: {code} {error or ''}")
        else:
            problems += checks.check_d2(text, workloads.as_fractions(a),
                                        workloads.as_fractions(b))
    return problems


def check_mc_bands(args, outputs: list, work: Path) -> list:
    from finfree.cli import main
    from worker import cli_op

    ops = workloads.mc_ops(args.seed, workloads.rounds_for(args.workload, args.seconds))
    problems = []
    for op, out in zip(ops, outputs):
        if out["code"] == 0:
            problems += checks.check_mc(out["stdout"], out["code"], op["d"], op["n"],
                                        workloads.as_fractions(op["a"]),
                                        workloads.as_fractions(op["b"]))
    # The same (d, n, seed, chunk) must print the same bytes, here in
    # another process than the one that ran the op.
    for d in workloads.MC_N:
        idx = next(i for i, op in enumerate(ops) if op["d"] == d)
        if outputs[idx]["code"] == 0:
            _, text, _ = cli_op(main, outputs[idx]["argv"])
            if text != outputs[idx]["stdout"]:
                problems.append(f"op {idx} (d={d}) printed different JSON when repeated")
    return problems


def check_verify_all(args, outputs: list, work: Path) -> list:
    from finfree.cli import main
    from finfree.verify import SUITES
    from worker import cli_op

    problems = []
    for i in range(0, len(outputs), len(SUITES)):
        problems += checks.check_verify(outputs[i:i + len(SUITES)], SUITES)
    code, text, _ = cli_op(main, ["verify", "commutator", "--inject-wg-error"])
    return problems + checks.check_negative_control(code, text)


CHECKS = {"exact_conv": check_exact_conv, "mc_bands": check_mc_bands,
          "verify_all": check_verify_all}


def end_to_end(setups: list, results: list, scaled: bool = True) -> dict:
    """The end-to-end metrics, at reference pace or, with scaled=False, in
    wall-clock time."""
    if scaled:
        latencies = [t for r in results for t in scaled_latencies(r)]
    else:
        latencies = [t for r in results for t in r["latencies"]]
    return {
        "setup_s": {"value": statistics.median(s[0 if scaled else 1] for s in setups),
                    "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "op/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_rss_kib"] for r in results) / 1024.0,
                        "unit": "MiB"},
    }


def per_layer(results: list, outputs: list) -> dict:
    metrics = {}
    totals = {}
    for r in results:
        names, spans = tracer.read_spans(r["work"] / "spans")
        for name, (self_s, calls) in tracer.self_times(names, spans).items():
            acc = totals.setdefault(name, [0.0, 0])
            acc[0] += self_s
            acc[1] += calls
    for name in tracer.span_names():
        self_s, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
    suite_s = dict.fromkeys(tracer.SUITES, 0.0)
    latencies = [t for r in results for t in scaled_latencies(r)]
    for out, t in zip(outputs, latencies):
        if "suite" in out:
            suite_s[out["suite"]] += t
    for suite, s in suite_s.items():
        metrics[f"verify.{suite}.s"] = {"value": s, "unit": "s"}
    for r in results:
        for name, count in r["cache_stats"].items():
            metrics.setdefault(name, {"value": 0, "unit": "count"})
            metrics[name]["value"] += count
    metrics["trace.window_s"] = {"value": sum(latencies), "unit": "s"}
    return {name: metrics[name] for name in tracer.per_layer_metric_names()}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def provenance() -> dict:
    import finfree
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "finfree": finfree.__version__,
        "commit": _git_commit(),
        "env": THREAD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="finfree benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default {workloads.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=20,
                        help="nominal run length; sets the number of rounds (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "finfree" / "__init__.py").is_file():
        print(f"error: no finfree sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"tmp-{args.workload}-{os.getpid()}"
    try:
        setups, results = measure(args, work)
        outputs = _outputs(results)
        problems = CHECKS[args.workload](args, outputs, work)
        metrics = per_layer(results, outputs) if args.trace else end_to_end(setups, results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, setups, results, outputs, problems, metrics)


def report(args, setups, results, outputs, problems, metrics) -> int:
    attempted = len(outputs)
    failed = sum(1 for o in outputs if o["code"] != 0)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for o in outputs:
        if o["code"] != 0:
            print(f"op failed: code {o['code']} {o.get('error') or ''}", file=sys.stderr)
    wall = {} if args.trace else end_to_end(setups, results, scaled=False)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), "attempted": attempted,
        "failed": failed, "problems": problems,
        "reference_s": pace.REFERENCE_S, "setup_samples_s": setups,
        "latencies_s": [t for r in results for t in r["latencies"]],
        "pace_samples_s": [r["pace"] for r in results],
        "metrics": metrics, "wall_clock_metrics": wall,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"# {args.workload} seed={args.seed} ops={attempted} failed={failed} "
          f"-> {path.relative_to(ROOT)}")
    print(f"# {json.dumps(record['provenance'])}")
    for name, m in wall.items():
        print(f"# wall clock: {name} {m['value']} {m['unit']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
