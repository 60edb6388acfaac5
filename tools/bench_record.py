"""Alternating parent/change benchmark pairs, and the BENCH_<n>.json file
that records them.

    python3 tools/bench_record.py run --parent DIR --change DIR \\
        --workload mc_bands --seed 1 --log LOG
    python3 tools/bench_record.py write --log LOG --out BENCH_33.json

`run` runs `perfbench/run.py` of two checkouts in turn, PAIRS times each,
the parent first in even pairs and the change first in odd ones, and copies each run's
`.perfbench_out/<workload>-seed<N>-trace0.json` record into LOG, numbered
in the order the runs were made. `write` reads every record in LOG and
writes, per workload and seed, each side's median and quartiles of each
end-to-end metric of BENCHMARK.json, the pairs the change won on it, the
order of each pair, the failed ops and both sides' provenance. Only the
standard library is used, and nothing under perfbench/ is changed.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# alternating pairs per workload and seed: the fewest that can show a
# change winning nine pairs in ten
PAIRS = 10
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
    for path in sorted(log.glob("*.json")):
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
            "workloads": workloads}


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
    out = commands.add_parser("write", help="write the BENCH record of saved runs")
    out.add_argument("--log", required=True)
    out.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return run_pairs(args) if args.command == "run" else write(args)


if __name__ == "__main__":
    sys.exit(main())
