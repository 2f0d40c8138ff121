"""Tests of the benchmark harness itself, at tiny input sizes."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer, by_name, layer_self_times, read_spans, self_times
from workloads import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(id, parent, name, start, end):
    return {"id": id, "parent": parent, "name": name, "workload": "w", "start": start, "end": end,
            "counters": {}, "maxrss_mb": 1.0}


def test_self_times_on_hand_made_tree():
    spans = [
        _span(0, None, "cli.root", 0.0, 10.0),
        _span(1, 0, "complexes.a", 1.0, 4.0),
        _span(2, 0, "holonomy.b", 3.0, 6.0),    # overlaps a
        _span(3, 0, "holonomy.c", 9.0, 12.0),   # sticks out of the root
        _span(4, 1, "holonomy.d", 2.0, 3.0),
        _span(5, 1, "holonomy.d", 2.5, 3.5),    # overlaps its sibling
    ]
    selfs = self_times(spans)
    # root: 10 minus the union [1, 6] and [9, 10]
    assert selfs == pytest.approx({0: 4.0, 1: 1.5, 2: 3.0, 3: 3.0, 4: 1.0, 5: 1.0})
    agg = by_name(spans)
    assert agg["holonomy.d"]["total_s"] == pytest.approx(2.0)
    assert agg["holonomy.d"]["self_s"] == pytest.approx(2.0)
    assert layer_self_times(spans) == pytest.approx({"cli": 4.0, "complexes": 1.5, "holonomy": 8.0})


def test_span_file_round_trip(tmp_path):
    tr = Tracer("grow")
    with tr.span("cli.build"):
        with tr.span("complexes.grow_until", pants=4) as c:
            c["surgeries"] = 1
    path = tmp_path / "spans.jsonl"
    tr.write(path)
    spans = read_spans(path)
    assert spans == tr.spans
    assert [s["parent"] for s in spans] == [None, 0]
    assert spans[1]["counters"] == {"pants": 4, "surgeries": 1}
    assert all(s["workload"] == "grow" and s["end"] >= s["start"] and s["maxrss_mb"] > 0 for s in spans)


def test_benchmark_json_matches_harness():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for m in BENCHMARK["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]][0]
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.PER_LAYER[m["name"]][0]


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    # repetitions only steady the medians; one of each keeps the tests quick
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "STARTUP_REPS", 1)


def _result(capsys, argv, **kw):
    rc = run.main(argv, sizes=SMOKE, **kw)
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(capsys, trace, section):
    for workload in WORKLOADS:
        rc, result = _result(capsys, ["--workload", workload, "--seconds", "0", "--trace", str(trace)])
        assert rc == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload,path,value", [
    ("grow", ("grown_complex", "sha256"), "0" * 64),
    ("homology", ("homology_complex", "torsion"), [2]),
])
def test_planted_wrong_reference_is_caught(capsys, workload, path, value):
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    planted = copy.deepcopy(reference)
    planted["smoke"][path[0]][path[1]] = value
    rc, result = _result(capsys, ["--workload", workload, "--seconds", "0"], reference=planted)
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grow", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
