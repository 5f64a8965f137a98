"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``.

The count tests run every workload once untraced and twice traced (about two
minutes on two cores).
"""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, layer_metrics
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_metric_tables():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    entries = doc["workloads"] + doc["end_to_end"] + doc["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(e["unit"]) for e in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_self_time_subtracts_child_spans():
    spans = {
        "names": np.array(["a", "b"]),
        "name_id": np.array([0, 1, 1]),
        "start": np.array([0.0, 1.0, 3.0]),
        "end": np.array([10.0, 2.0, 5.0]),
        "parent": np.array([-1, 0, 0]),
    }
    summary = tracer.summarize(spans)
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0, "max_s": 10.0}
    assert summary["b"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0, "max_s": 2.0}


def test_missing_hook_is_reported_not_raised():
    t = tracer.Tracer(run_id=0)
    t._hook("scheme.gone", "smfv.scheme:_helper_that_does_not_exist")
    t._hook("scheme.gone", "no_such_module_anywhere:f")
    assert t.missing == ["smfv.scheme:_helper_that_does_not_exist", "no_such_module_anywhere:f"]
    values = layer_metrics({}, {}, t.missing, 0, 1.0, 1.0)
    assert values["trace.missing_hooks"] == 2


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "conv1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_repeat_counts_and_outputs(name, tmp_path):
    workload = WORKLOADS[name]

    def rep(run_id, kind):
        return run.run_rep(run.ROOT, workload, kind, run_id, tmp_path)

    reps = [rep(0, "timed"), rep(1, "traced"), rep(2, "traced")]
    assert [r["failures"] for r in reps] == [[], [], []]
    assert reps[1]["missing_hooks"] == reps[2]["missing_hooks"] == []
    for r in reps[1:]:
        r["layers"] = layer_metrics(r["summary"], r["counters"], r["missing_hooks"],
                                    0, r["wall_s"], reps[0]["wall_s"])
        assert r["outputs"] == reps[0]["outputs"]
    for key in EXACT_COUNTS:
        assert reps[1]["layers"][key] == reps[2]["layers"][key], key
    assert run._trace_failures(reps) == []
    assert reps[1]["layers"]["scheme.newton_iters"] > 0
    assert reps[1]["layers"]["scheme.lu_fill_nnz"] > 0


def test_setup_repetition_stops_at_first_step(tmp_path):
    rec = run.run_rep(run.ROOT, WORKLOADS["decay1d"], "setup", 0, tmp_path)
    assert rec["failures"] == []
    assert 0 < rec["setup_s"] and 0 < rec["raw_setup_s"] < rec["duration_s"]
    assert "wall_s" not in rec and "peak_rss_mb" not in rec


def test_memory_repetition_gives_only_peak_rss(tmp_path):
    rec = run.run_rep(run.ROOT, WORKLOADS["conv1d"], "memory", 0, tmp_path)
    assert rec["failures"] == []
    assert rec["peak_rss_mb"] > 0
    assert "wall_s" not in rec and "setup_s" not in rec
