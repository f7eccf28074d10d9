"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import crossdiff  # noqa: E402
import crossdiff.solver  # noqa: E402
from crossdiff.harness import ExperimentConfig, InitialDataSpec  # noqa: E402

import bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CHECKS_PER_PASS = {"battery-1d": 40, "pipeline-2d": 8, "sweeps-2d": 3}


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds inner [1, 3] (kept as a span) and inner [4, 4.5]
    # (aggregated only); inner holds nothing.
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    t = tr.Tracer("w", clock=lambda: next(ticks))
    t.active = True

    def outer():
        t.call("inner", lambda: None, (), {})
        t.call("inner", lambda: None, (), {}, keep=False)

    with t.span("outer"):
        outer()
    assert t.stats["outer"] == [1, 10.0, 7.5]
    assert t.stats["inner"] == [2, 2.5, 2.5]
    spans = t.span_records()
    assert [(s["name"], s["start"], s["end"]) for s in spans] == [("outer", 0.0, 10.0), ("inner", 1.0, 3.0)]
    assert spans[0]["parent"] is None and spans[1]["parent"] == spans[0]["id"]
    assert {s["workload"] for s in spans} == {"w"}


def test_substep_count_matches_imex_solve_on_two_segment_grid(monkeypatch):
    tg = crossdiff.TimeGrid(np.array([0.0, 0.1, 0.25]))
    dt = 0.03
    assert tr.imex_substeps(tg.times, dt) == 4 + 5

    grid = crossdiff.make_grid(1, 8)
    h = crossdiff.generate_initial_data(InitialDataSpec("uniform"), grid, 3, 0.05)
    model = ExperimentConfig(N=8).reduced_model()
    calls = []
    real = crossdiff.solver.from_coeffs
    monkeypatch.setattr(crossdiff.solver, "from_coeffs", lambda *a: calls.append(1) or real(*a))
    crossdiff.imex_solve(h, model, tg, dt=dt)
    # each substep transforms the state and each gradient component back;
    # each output node adds one more
    assert len(calls) == 9 * (1 + grid.n) + (len(tg) - 1)
    monkeypatch.undo()

    tracer = tr.Tracer("w")
    patches = tr.install(tracer)
    tracer.active = True
    try:
        crossdiff.imex_solve(h, model, tg, dt=dt)
    finally:
        tracer.active = False
        tr.uninstall(patches)
    assert tracer.counters["solver.imex.substeps"] == 9
    assert tracer.stats["solver.imex"][0] == 1
    assert crossdiff.solver.from_coeffs is real


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = bench.layer_metrics({}, {}, {})
    per_layer = {name: unit for name, (_, unit) in layer.items()} | {"trace.overhead_s": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for name, unit in [*per_layer.items(), *bench.END_TO_END_UNITS.items()]:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    for name in wl.WORKLOADS:
        assert NAME.match(name), name


def _tiny(workload):
    return replace(workload, config=lambda seed: workload.config(seed).with_overrides(
        N=16, kmax=4, levels=3, steps_per_level=4, sweep_samples=2, stability_pairs=2))


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_each_workload_at_tiny_config(name, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {False: {m["name"] for m in spec["end_to_end"]},
                True: {m["name"] for m in spec["per_layer"]}}
    for trace in (False, True):
        record = bench.run(_tiny(wl.WORKLOADS[name]), 2024, 0.0, trace, tmp_path)
        assert set(record["metrics"]) == expected[trace]
        assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
        assert record["result"]["attempted"] >= 1
        assert record["repeats_bit_identical"]
        assert not record["missing"]
        assert len(record["passes"]) == (2 if trace else 1)
        if not trace:
            # the check list does not depend on grid size
            assert record["metrics"]["checks_total"]["value"] == CHECKS_PER_PASS[name]
    assert record["spans"], "the traced pass recorded no spans"
    assert not list(tmp_path.glob("traj-*")), "trajectory directory left behind"


def test_exits_nonzero_without_crossdiff_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "battery-1d"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
