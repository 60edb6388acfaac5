"""Alternating parent/change benchmark pairs, and the BENCH_<n>.json file
that records them.

    python3 tools/bench_record.py run --parent DIR --change DIR \\
        --workload mc_bands --seed 1 --log LOG
    python3 tools/bench_record.py fresh --parent DIR --change DIR --log LOG \\
        -- commutator a.json b.json
    python3 tools/bench_record.py write --log LOG --out BENCH_33.json

`run` runs `perfbench/run.py` of two checkouts in turn, PAIRS times each,
the parent first in even pairs and the change first in odd ones, and copies each run's
`.perfbench_out/<workload>-seed<N>-trace0.json` record into LOG, numbered
in the order the runs were made. `write` reads every record in LOG and
writes, per workload and seed, each side's median and quartiles of each
end-to-end metric of BENCHMARK.json, the pairs the change won on it, the
order of each pair, the failed ops and both sides' provenance, and under
"fresh" every `fresh` report in LOG. Only the standard library is used, and
nothing under perfbench/ is changed.

`fresh` times one CLI argv as one-shot `python -m finfree` processes, which
perfbench does not: it calls the CLI in-process after a warm-up. It runs
FRESH_RUNS alternating pairs of the two checkouts, after one untimed run of
each, in two bytecode modes, and prints and saves to LOG each side's median
and quartiles of wall time in ms and of each child's peak RSS in MiB
(`ru_maxrss` from `os.wait4`), the pairs the change won on each, both
sides' exit codes, whether their outputs matched, and provenance. It sets two
variables for its child processes and nothing else: "no_cache" sets
PYTHONDONTWRITEBYTECODE=1, so finfree is compiled from source in every
process (unless a checkout holds its own __pycache__), and "cache" points
PYTHONPYCACHEPREFIX at a new temporary directory that the untimed runs fill.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# alternating pairs per workload and seed: the fewest that can show a
# change winning nine pairs in ten
PAIRS = 10
# alternating one-shot process pairs per bytecode mode
FRESH_RUNS = 21
FRESH_MODES = ("no_cache", "cache")
# the keys every BENCH_*.json holds, at each level
TOP_KEYS = {"metrics", "workloads"}
SEED_KEYS = {"pairs", "pair_order", "metrics", "failed", "provenance"}
METRIC_KEYS = {"parent", "change", "pairs_won"}
SUMMARY_KEYS = {"median", "q1", "q3"}


def run_pairs(args) -> int:
    log = Path(args.log)
    log.mkdir(parents=True, exist_ok=True)
    seq = len(list(log.glob("*.json")))
    record = f"{args.workload}-seed{args.seed}-trace0.json"
    for pair in range(PAIRS):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            checkout = Path(getattr(args, side)).resolve()
            cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", str(args.seed)]
            code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
            if code not in (0, 1):  # 1: a check failed, and the record says so
                print(f"error: {side} run exited {code}", file=sys.stderr)
                return code
            shutil.copy(checkout / ".perfbench_out" / record,
                        log / f"{seq:04d}-{side}-{record}")
            seq += 1
    return 0


def _one_shot(checkout: Path, argv: list, env: dict) -> tuple:
    """(wall ms, peak RSS MiB, exit code, stdout bytes) of one
    `python -m finfree argv`."""
    env = {**env, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "finfree", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        ms = (time.perf_counter() - start) * 1000
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ms, usage.ru_maxrss / 1024, proc.returncode, out  # ru_maxrss is in KiB


def _commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fresh_report(checkouts: dict, argv: list) -> dict:
    """The `fresh` report of argv on checkouts, {side: Path}."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    figures = {"wall_ms": {}, "peak_rss_mb": {}}
    codes, outputs = {s: set() for s in SIDES}, {s: set() for s in SIDES}
    with tempfile.TemporaryDirectory() as cache:
        envs = {"no_cache": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
                "cache": {**base, "PYTHONPYCACHEPREFIX": cache}}
        for mode in FRESH_MODES:
            runs = {s: {metric: [] for metric in figures} for s in SIDES}
            for pair in range(-1, FRESH_RUNS):  # pair -1 is the untimed run
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    ms, rss, code, out = _one_shot(checkouts[side], argv, envs[mode])
                    codes[side].add(code)
                    outputs[side].add(out)
                    if pair >= 0:
                        runs[side]["wall_ms"].append(ms)
                        runs[side]["peak_rss_mb"].append(rss)
            for metric, by_mode in figures.items():
                won = sum(c < p for p, c in zip(runs["parent"][metric], runs["change"][metric]))
                by_mode[mode] = {s: _summary(runs[s][metric]) for s in SIDES} | {"pairs_won": won}
    return {
        "argv": argv,
        "pairs": FRESH_RUNS,
        **figures,
        "exit_codes": {s: sorted(codes[s]) for s in SIDES},
        "same_stdout": len(outputs["parent"] | outputs["change"]) == 1,
        "provenance": {"python": platform.python_version(),
                       **{s: _commit(checkouts[s]) for s in SIDES}},
    }


def run_fresh(args) -> int:
    log = Path(args.log)
    log.mkdir(parents=True, exist_ok=True)
    report = fresh_report({s: Path(getattr(args, s)).resolve() for s in SIDES}, args.argv)
    text = json.dumps(report, indent=1)
    (log / f"fresh-{len(list(log.glob('fresh-*.json'))):04d}.json").write_text(text + "\n")
    print(text)
    return 0


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def assemble(log: Path, end_to_end: list) -> dict:
    """The BENCH record of the runs saved in log: end_to_end is the
    BENCHMARK.json list of metrics. The i-th run of a side at a workload and
    seed is paired with the other side's i-th; a workload and seed whose
    sides hold unequal numbers of runs, or fewer than two each, is refused
    with a ValueError naming it."""
    runs = {}
    for path in sorted(log.glob("[0-9]*.json")):
        side = path.name.split("-")[1]
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["seed"]), {s: [] for s in SIDES})[side].append(
            (path.name, rec))
    workloads = {}
    for (workload, seed), sides in sorted(runs.items()):
        counts = [len(sides[s]) for s in SIDES]
        if counts[0] != counts[1] or min(counts) < 2:
            raise ValueError(f"{workload} seed {seed}: {counts[0]} parent and "
                             f"{counts[1]} change runs; need equal counts of at least 2")
        pairs = list(zip(sides["parent"], sides["change"]))
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            values = {s: [rec["metrics"][name]["value"] for _, rec in sides[s]]
                      for s in SIDES}
            lower = spec["better"] == "lower"
            won = sum((c < p) if lower else (c > p)
                      for p, c in zip(values["parent"], values["change"]))
            metrics[name] = {s: _summary(values[s]) for s in SIDES} | {"pairs_won": won}
        workloads.setdefault(workload, {})[str(seed)] = {
            "pairs": len(pairs),
            "pair_order": ["parent-first" if p[0] < c[0] else "change-first"
                           for p, c in pairs],
            "metrics": metrics,
            "failed": {s: [[rec["failed"], rec["attempted"]] for _, rec in sides[s]]
                       for s in SIDES},
            "provenance": {s: _distinct(rec["provenance"] for _, rec in sides[s])
                           for s in SIDES},
        }
    return {"metrics": {spec["name"]: {k: spec[k] for k in ("unit", "better", "bound")}
                        for spec in end_to_end},
            "workloads": workloads,
            "fresh": [json.loads(p.read_text()) for p in sorted(log.glob("fresh-*.json"))]}


def _distinct(records) -> list:
    out = []
    for rec in records:
        if rec not in out:
            out.append(rec)
    return out


def missing_keys(bench: dict) -> list:
    """The keys a BENCH record lacks, as paths; empty when it is whole."""
    missing = [k for k in TOP_KEYS if k not in bench]
    for workload, seeds in bench.get("workloads", {}).items():
        for seed, entry in seeds.items():
            where = f"{workload}/{seed}"
            missing += [f"{where}/{k}" for k in SEED_KEYS if k not in entry]
            for name in bench.get("metrics", {}):
                metric = entry.get("metrics", {}).get(name)
                if metric is None:
                    missing.append(f"{where}/metrics/{name}")
                    continue
                missing += [f"{where}/{name}/{k}" for k in METRIC_KEYS if k not in metric]
                missing += [f"{where}/{name}/{s}/{k}" for s in SIDES
                            for k in SUMMARY_KEYS if k not in metric.get(s, {})]
            missing += [f"{where}/provenance/{s}" for s in SIDES
                        if s not in entry.get("provenance", {})]
    return sorted(missing)


def write(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        bench = assemble(Path(args.log), spec["end_to_end"])
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run alternating pairs and save their records")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--log", required=True, help="directory the records are copied to")
    fresh = commands.add_parser("fresh", help="time one-shot CLI processes in pairs")
    fresh.add_argument("--parent", required=True, help="checkout of the parent commit")
    fresh.add_argument("--change", required=True, help="checkout of the change")
    fresh.add_argument("--log", required=True, help="directory the report is saved to")
    fresh.add_argument("argv", nargs="+", help="the finfree arguments, after --")
    out = commands.add_parser("write", help="write the BENCH record of saved runs")
    out.add_argument("--log", required=True)
    out.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return {"run": run_pairs, "fresh": run_fresh, "write": write}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
