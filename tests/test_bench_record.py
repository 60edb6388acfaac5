"""The committed benchmark trajectory: every BENCH_*.json at the repo root
parses and holds the keys tools/bench_record.py writes, and the script
pairs and summarizes saved perfbench records as it says."""

import importlib.util
import json
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
                                   "change": [{"commit": "change"}]}
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
    assert set(report["wall_ms"]) == set(bench_record.FRESH_MODES)
    for mode in report["wall_ms"].values():
        assert 0 <= mode["pairs_won"] <= 2
        for side in bench_record.SIDES:
            assert set(mode[side]) == bench_record.SUMMARY_KEYS
    assert report["exit_codes"] == {"parent": [0], "change": [0]}
    assert report["same_stdout"]
    assert set(report["provenance"]) == {"python", *bench_record.SIDES}
    # the saved report goes into the BENCH record, beside the perfbench pairs
    (saved,) = log.glob("fresh-*.json")
    assert json.loads(saved.read_text()) == report
    assert bench_record.assemble(log, END_TO_END)["fresh"] == [report]
