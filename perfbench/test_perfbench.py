"""Tests of the sweep benchmark on its smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
from checks import check_bundle, nondominated_2d
from tracing import LAYER_METRICS, Tracer
from workloads import ROOT, WORKLOADS, import_package, write_inputs

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _missing(proc: subprocess.CompletedProcess) -> dict:
    line = next(line for line in proc.stdout.splitlines() if line.startswith("missing "))
    return json.loads(line.removeprefix("missing "))


def _run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    return proc, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(workload):
    proc, result = _run(workload, trace=0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    stamp = json.loads(proc.stdout.splitlines()[0].removeprefix("stamp "))
    assert {"nproc", "cpu", "python", "numpy", "commit", "seed"} <= set(stamp)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_layers_do_work_where_the_table_says(workload):
    proc, result = _run(workload, trace=1)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    missing = _missing(proc)
    for metric in LAYER_METRICS:
        if metric.name in missing:
            assert metrics[metric.name]["value"] == 0
        if metric.work and workload in metric.on:
            assert metric.name not in missing and metrics[metric.name]["value"] > 0, metric.name
    if workload != "seq-sweep":
        assert "edit_distance never called" in missing["metrics.edist_pairs"]


def test_benchmark_json_lists_the_layer_table():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS
    ] + [("trace.overhead_s", "s", "lower")]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ff-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_nondominated_2d_matches_brute_force():
    rng = np.random.default_rng(0)
    points = np.round(rng.random((300, 2)), 1)  # coarse grid: many ties and duplicates
    le = np.all(points[:, None, :] <= points[None, :, :], axis=-1)
    lt = np.any(points[:, None, :] < points[None, :, :], axis=-1)
    expected = ~np.any(le & lt, axis=0)
    assert np.array_equal(nondominated_2d(points), expected)


def _smoke_bundle(tmp_path, name: str) -> Path:
    cli = import_package()
    config = write_inputs(WORKLOADS[name]["smoke"], 5, tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", str(config), "--seed", "5"]) == 0
    return config.parent / "out"


def test_bundle_check_catches_a_wrong_front_flag(tmp_path):
    out = _smoke_bundle(tmp_path, "ff-sweep")
    assert check_bundle(WORKLOADS["ff-sweep"]["smoke"], out).errors == []
    fronts = out / "fronts.csv"
    lines = fronts.read_text().splitlines()
    lines[1] = lines[1][:-1] + ("0" if lines[1].endswith("1") else "1")
    fronts.write_text("\n".join(lines) + "\n")
    errors = check_bundle(WORKLOADS["ff-sweep"]["smoke"], out).errors
    assert any("non_dominated" in e for e in errors)


def test_bundle_check_catches_a_short_chain(tmp_path):
    out = _smoke_bundle(tmp_path, "grid-aggregate")
    trajectories = next((out / "cells").glob("pcebm_*")) / "trajectories.csv"
    trajectories.write_text("".join(trajectories.read_text().splitlines(keepends=True)[:-1]))
    errors = check_bundle(WORKLOADS["grid-aggregate"]["smoke"], out).errors
    assert any("end at a step" in e for e in errors)


def test_missing_wrap_targets_are_named_not_zero(monkeypatch):
    import_package()
    monkeypatch.setitem(tracing.TARGETS, "moo.min_norm", (("paretoebm.moo:solve_min_norm_gone",), None))
    tracer = Tracer()
    with tracer.installed():
        pass
    assert "solve_min_norm_gone not found" in tracer.missing["moo.min_norm"]
    assert "never called" in tracer.missing["energy.eval"]
    value = next(m for m in LAYER_METRICS if m.name == "moo.min_norm_calls").value(tracer, None)
    assert isinstance(value, tracing.Missing)


def test_tracer_restores_the_package():
    import_package()
    import paretoebm.samplers

    original = paretoebm.samplers.solve_min_norm
    with Tracer().installed():
        assert paretoebm.samplers.solve_min_norm is not original
    assert paretoebm.samplers.solve_min_norm is original
