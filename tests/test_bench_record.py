"""The committed benchmark trajectory: every BENCH_*.json at the repo root
parses and holds the keys tools/bench_record.py writes, and the script
pairs and summarizes saved perfbench records as it says."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_a_bench_record_is_committed():
    assert sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_has_every_key(path):
    bench = json.loads(path.read_text())
    assert bench["workloads"], path.name
    assert set(bench["metrics"]) == {spec["name"] for spec in END_TO_END}
    assert bench_record.missing_keys(bench) == []
    for seeds in bench["workloads"].values():
        for entry in seeds.values():
            assert len(entry["pair_order"]) == entry["pairs"] > 0
            assert all(entry["provenance"][side] for side in bench_record.SIDES)


def _record(workload, seed, rss, ops, commit):
    metrics = {spec["name"]: {"value": 1.0} for spec in END_TO_END}
    metrics["peak_rss_mb"] = {"value": rss}
    metrics["ops_per_s"] = {"value": ops}
    return {"workload": workload, "seed": seed, "attempted": 4, "failed": 0,
            "metrics": metrics, "provenance": {"commit": commit}}


def test_assemble_pairs_runs_in_the_order_they_were_made(tmp_path):
    # pair 0 ran parent first, pair 1 change first, pair 2 parent first
    runs = [("parent", 65.0, 9.0), ("change", 53.0, 9.5),
            ("change", 52.0, 8.0), ("parent", 66.0, 9.0),
            ("parent", 64.0, 9.0), ("change", 54.0, 9.1)]
    for seq, (side, rss, ops) in enumerate(runs):
        rec = _record("mc_bands", 7, rss, ops, side)
        (tmp_path / f"{seq:04d}-{side}-mc_bands-seed7-trace0.json").write_text(json.dumps(rec))
    # the host record `run` saves beside the runs; one of another seed is not read
    host = {"cpu": "x", "openblas_core": {"parent": "SkylakeX", "change": "SkylakeX"}}
    (tmp_path / "host-mc_bands-seed7-0000.json").write_text(json.dumps(host))
    (tmp_path / "host-mc_bands-seed1-0000.json").write_text(json.dumps({"cpu": "y"}))
    bench = bench_record.assemble(tmp_path, END_TO_END)
    assert bench_record.missing_keys(bench) == []
    entry = bench["workloads"]["mc_bands"]["7"]
    assert entry["pairs"] == 3
    assert entry["pair_order"] == ["parent-first", "change-first", "parent-first"]
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"median": 65.0, "q1": 64.5, "q3": 65.5}
    assert rss["change"]["median"] == 53.0 and rss["pairs_won"] == 3
    assert entry["metrics"]["ops_per_s"]["pairs_won"] == 2  # higher is better
    assert entry["metrics"]["setup_s"]["pairs_won"] == 0  # ties win nothing
    assert entry["provenance"] == {"parent": [{"commit": "parent"}],
                                   "change": [{"commit": "change"}], "host": [host]}
    assert entry["failed"]["change"] == [[0, 4]] * 3


@pytest.mark.parametrize("sides", [("parent", "change", "parent"), ("parent", "change")],
                         ids=["unpaired-run", "one-pair"])
def test_assemble_refuses_unequal_or_too_few_runs(tmp_path, sides):
    for seq, side in enumerate(sides):
        rec = _record("mc_bands", 7, 60.0, 9.0, side)
        (tmp_path / f"{seq:04d}-{side}-mc_bands-seed7-trace0.json").write_text(json.dumps(rec))
    with pytest.raises(ValueError, match="mc_bands seed 7"):
        bench_record.assemble(tmp_path, END_TO_END)


def test_missing_keys_names_what_is_absent():
    bench = {"metrics": {"peak_rss_mb": {}},
             "workloads": {"mc_bands": {"1": {"pairs": 1, "pair_order": ["parent-first"],
                                              "metrics": {"peak_rss_mb": {"pairs_won": 1}},
                                              "failed": {}, "provenance": {"parent": []}}}}}
    assert bench_record.missing_keys(bench) == sorted(
        ["mc_bands/1/peak_rss_mb/parent", "mc_bands/1/peak_rss_mb/change",
         "mc_bands/1/provenance/change"]
        + [f"mc_bands/1/peak_rss_mb/{side}/{key}" for side in ("parent", "change")
           for key in ("median", "q1", "q3")])


def test_fresh_reports_one_shot_pairs_in_both_bytecode_modes(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_record, "FRESH_RUNS", 2)
    log = tmp_path / "log"
    code = bench_record.main(["fresh", "--parent", str(ROOT), "--change", str(ROOT),
                              "--log", str(log), "--", "zpoly", "--d", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["argv"] == ["zpoly", "--d", "3"] and report["pairs"] == 2
    for metric in ("wall_ms", "peak_rss_mb"):
        assert set(report[metric]) == set(bench_record.FRESH_MODES)
        for mode in report[metric].values():
            assert 0 <= mode["pairs_won"] <= 2
            for side in bench_record.SIDES:
                assert set(mode[side]) == bench_record.SUMMARY_KEYS
    # ru_maxrss of each child in MiB: a Python process holds a few MiB at
    # least, and a d = 3 zpoly far less than a GiB
    for mode in report["peak_rss_mb"].values():
        for side in bench_record.SIDES:
            assert 1 < mode[side]["q1"] <= mode[side]["q3"] < 1024
    assert report["exit_codes"] == {"parent": [0], "change": [0]}
    assert report["same_stdout"]
    provenance = report["provenance"]
    assert set(provenance) == {"python", "cpu", "openblas_core", *bench_record.SIDES}
    assert provenance["cpu"] and set(provenance["openblas_core"]) == set(bench_record.SIDES)
    assert all(provenance["openblas_core"].values())
    # the saved report goes into the BENCH record, beside the perfbench pairs
    (saved,) = log.glob("fresh-*.json")
    assert json.loads(saved.read_text()) == report
    assert bench_record.assemble(log, END_TO_END)["fresh"] == [report]


@pytest.mark.parametrize("fake_numpy", ["raise ImportError('no numpy')\n", ""],
                         ids=["numpy-missing", "no-openblas"])
def test_openblas_core_is_unknown_without_the_library(tmp_path, fake_numpy):
    # a numpy.py first on the checkout's PYTHONPATH: one that fails to
    # import, and one that maps no OpenBLAS into the child
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "numpy.py").write_text(fake_numpy)
    assert bench_record.openblas_core(tmp_path) == "unknown"


def test_run_saves_the_host_beside_the_runs_and_write_reports_it(monkeypatch, tmp_path):
    # two checkouts whose perfbench/run.py writes a fixed record
    metrics = {spec["name"]: {"value": 1.0} for spec in END_TO_END}
    checkouts = {}
    for side in bench_record.SIDES:
        rec = {"workload": "exact_conv", "seed": 3, "attempted": 1, "failed": 0,
               "metrics": metrics, "provenance": {"commit": side}}
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            "from pathlib import Path\n"
            "out = Path(__file__).resolve().parent.parent / '.perfbench_out'\n"
            "out.mkdir(exist_ok=True)\n"
            f"(out / 'exact_conv-seed3-trace0.json').write_text({json.dumps(rec)!r})\n")
        checkouts[side] = str(tmp_path / side)
    monkeypatch.setattr(bench_record, "PAIRS", 2)
    log = tmp_path / "log"
    assert bench_record.main(["run", "--parent", checkouts["parent"], "--change",
                              checkouts["change"], "--workload", "exact_conv",
                              "--seed", "3", "--log", str(log)]) == 0
    (saved,) = log.glob("host-*.json")
    host = json.loads(saved.read_text())
    assert set(host) == {"cpu", "openblas_core"} and host["cpu"]
    # the fake checkouts hold no numpy.py, so each child reads the real one
    assert set(host["openblas_core"]) == set(bench_record.SIDES)
    entry = bench_record.assemble(log, END_TO_END)["workloads"]["exact_conv"]["3"]
    assert entry["pairs"] == 2 and entry["provenance"]["host"] == [host]


def _bench(parent_median, change_median, won, host=None):
    """A one-metric BENCH record of exact_conv seed 1."""
    provenance = {side: [{"nproc": 2, "cpus_usable": 2}] for side in bench_record.SIDES}
    if host is not None:
        provenance["host"] = [host]
    metric = {"parent": {"median": parent_median}, "change": {"median": change_median},
              "pairs_won": won}
    return {"metrics": {"op_p50_ms": {"better": "lower"}},
            "workloads": {"exact_conv": {"1": {"pairs": 10, "metrics": {"op_p50_ms": metric},
                                               "provenance": provenance}}}}


def test_trend_chains_ratios_and_marks_gaps_and_hosts(tmp_path, capsys):
    same = {"cpu": "x", "openblas_core": {"parent": "SkylakeX", "change": "SkylakeX"}}
    differ = {"cpu": "x", "openblas_core": {"parent": "SkylakeX", "change": "Haswell"}}
    # PR 29 comes before the trajectory's first PR, 31; PRs 31 and 34 wrote none
    files = {29: _bench(1.0, 1.0, 5), 32: _bench(2.0, 1.5, 9), 33: _bench(1.5, 1.5, 4, same),
             35: _bench(1.5, 1.2, 10, differ), 36: _bench(1.0, 2.0, 0, same)}
    for pr, bench in files.items():
        (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps(bench))
    (tmp_path / "BENCH_notes.json").write_text("{}")  # not BENCH_<n>.json: not read
    benches = bench_record.read_benches(tmp_path)
    assert sorted(benches) == [29, 32, 33, 35, 36]
    (series,) = bench_record.trend(benches).items()
    key, entry = series
    assert key == ("exact_conv", "1", "op_p50_ms")
    assert entry["chain"] == pytest.approx(1.0 * 0.75 * 1.0 * 0.8 * 2.0)
    assert entry["missing"] == [31, 34]
    assert [(link["pr"], link["after_gap"], link["hosts"], link["pairs_won"])
            for link in entry["links"]] == [
        (29, False, "unknown", 5), (32, True, "unknown", 9), (33, False, "same", 4),
        (35, True, "differ", 10), (36, False, "same", 0)]
    # sides whose CPU counts differ ran on different hosts
    files[33]["workloads"]["exact_conv"]["1"]["provenance"]["change"][0]["cpus_usable"] = 1
    assert bench_record._hosts(files[33]["workloads"]["exact_conv"]["1"]) == "differ"
    assert bench_record.main(["trend", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("exact_conv seed 1 op_p50_ms (lower is better): chained "
                      "change/parent 1.2000 over 5 links; no entry for PRs 31, 34")
    assert out[1:] == ["  PR 29: 1.0000, 5/10 pairs won; hosts unknown",
                       "  PR 32: 0.7500, 9/10 pairs won; after a gap, hosts unknown",
                       "  PR 33: 1.0000, 4/10 pairs won",
                       "  PR 35: 0.8000, 10/10 pairs won; after a gap, hosts differ",
                       "  PR 36: 2.0000, 0/10 pairs won"]
    assert bench_record.main(["trend", "--dir", str(tmp_path / "none")]) == 2


def test_trend_of_the_committed_files():
    benches = {pr: bench for pr, bench in bench_record.read_benches(ROOT).items() if pr <= 37}
    assert sorted(benches) == [33, 34, 35, 37]
    series = bench_record.trend(benches)
    runs = {(w, seed) for b in benches.values() for w, seeds in b["workloads"].items()
            for seed in seeds}
    assert len(series) == len(runs) * len(END_TO_END)
    for workload, seed in [("exact_conv", "1"), ("verify_all", "1"), ("mc_bands", "1")]:
        entry = series[(workload, seed, "op_p50_ms")]
        # PRs 31 and 32 wrote no file, and PR 36 was refused
        assert entry["missing"] == [31, 32, 36]
        assert [(link["pr"], link["after_gap"]) for link in entry["links"]] == [
            (33, True), (34, False), (35, False), (37, True)]
        # only PR 37's file holds host records, and both sides ran on SkylakeX
        assert [link["hosts"] for link in entry["links"]] == ["unknown"] * 3 + ["same"]
        ratios = [benches[pr]["workloads"][workload][seed]["metrics"]["op_p50_ms"]
                  for pr in (33, 34, 35, 37)]
        assert entry["chain"] == pytest.approx(
            math.prod(m["change"]["median"] / m["parent"]["median"] for m in ratios))
    # seed 7 of exact_conv first ran in PR 34
    assert series[("exact_conv", "7", "setup_s")]["missing"] == [31, 32, 33, 36]
