"""The measured process: one closed-loop caller running a fixed op list.

Started by run.py with BLAS pinned to one thread and finfree on PYTHONPATH;
the worker pins itself to one CPU.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --work DIR --result FILE [--trace] [--setup-only]

exact_conv and mc_bands run every op in this process through
finfree.cli.main with stdout captured, after one untimed warm-up op per
degree. verify_all runs one pass of the suites of `finfree verify all` in
this fresh interpreter, so the lru_cache tables start cold. The result file
records when set-up ended (time.monotonic, comparable with the parent's
clock), the reference samples of pace.py taken then, before the first op and
after every op, each op's latency and the peak RSS. The ops' outputs and
exit codes go to DIR for the checks, which run later in the parent, outside
the timed window.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time
import traceback
from pathlib import Path

import pace
import workloads

# Reference samples taken when set-up ends; set-up time is scaled by their
# median.
SETUP_PACE_SAMPLES = 3


def _write_spectra(work: Path, tag: str, op: dict) -> tuple:
    a_path, b_path = work / f"{tag}_A.json", work / f"{tag}_B.json"
    a_path.write_text(json.dumps(op["a"]))
    b_path.write_text(json.dumps(op["b"]))
    return str(a_path), str(b_path)


def _argv(workload: str, paths: tuple, op: dict) -> list:
    argv = ["commutator", *paths]
    if workload == "mc_bands":
        argv += ["--mc", str(op["n"]), "--seed", str(op["mc_seed"])]
    return argv


def cli_op(main, argv: list) -> tuple:
    """Run one CLI call in-process: (exit code, captured stdout, error)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception:  # a crashing op is counted as failed, the run goes on
        return None, buf.getvalue(), traceback.format_exc(limit=3)
    return code, buf.getvalue(), None


def _in_process(args, work: Path) -> dict:
    tracer = _tracer(args.trace)
    from finfree.cli import main  # after the tracer, which may wrap it

    rounds = workloads.rounds_for(args.workload, args.seconds)
    if args.workload == "exact_conv":
        ops, warmup = workloads.exact_ops(args.seed, rounds), workloads.exact_warmup(args.seed)
    else:
        ops, warmup = workloads.mc_ops(args.seed, rounds), workloads.mc_warmup()
    argvs = [_argv(args.workload, _write_spectra(work, f"op{i}", op), op)
             for i, op in enumerate(ops)]
    warm_argvs = [_argv(args.workload, _write_spectra(work, f"warm{i}", op), op)
                  for i, op in enumerate(warmup)]
    for argv in warm_argvs:
        cli_op(main, argv)  # untimed and unchecked; only the timed ops count
    setup = _setup_end()
    if args.setup_only:
        return setup

    def run_one(argv):
        code, text, error = cli_op(main, argv)
        return {"argv": argv, "code": code, "stdout": text, "error": error}

    return _timed_window(setup, argvs, run_one, tracer, work)


def _verify_pass(args, work: Path) -> dict:
    from finfree.verify import SUITES, run_suites

    tracer = _tracer(args.trace)
    setup = _setup_end()
    if args.setup_only:
        return setup

    def run_one(name):
        try:
            rows = [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in run_suites([name])]
        except Exception:  # a crashing suite is counted as failed
            return {"suite": name, "rows": [], "code": None,
                    "error": traceback.format_exc(limit=3)}
        return {"suite": name, "rows": rows, "code": 0, "error": None}

    return _timed_window(setup, list(SUITES), run_one, tracer, work)


def _setup_end() -> dict:
    """When set-up ended, and the host's pace right after it."""
    setup_end = time.monotonic()
    return {"setup_end": setup_end,
            "setup_pace": [pace.sample() for _ in range(SETUP_PACE_SAMPLES)]}


def _timed_window(setup, ops, run_one, tracer, work: Path) -> dict:
    """Run the ops back to back, the tracer recording, with a reference
    sample before the first op and after each; save the ops' outputs."""
    latencies, outputs = [], []
    paces = [pace.sample()]
    if tracer:
        tracer.active = True
    for op in ops:
        t0 = time.perf_counter()
        outputs.append(run_one(op))
        latencies.append(time.perf_counter() - t0)
        paces.append(pace.sample())
    if tracer:
        tracer.active = False
    result = {
        **setup,
        "latencies": latencies,
        "pace": paces,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    (work / "outputs.json").write_text(json.dumps(outputs))
    if tracer:
        tracer.write(work / "spans")
        result["cache_stats"] = tracer.cache_stats()
    return result


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def main(argv=None) -> int:
    # One CPU for the whole run: moving between CPUs roughly doubled the
    # op-to-op spread of a one-second suite on a 2-vCPU machine.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    run = _verify_pass if args.workload == "verify_all" else _in_process
    args.result.write_text(json.dumps(run(args, args.work)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
