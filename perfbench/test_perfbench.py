"""The benchmark's own tests, at tiny horizons.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

# Shortest horizons at which every workload still reaches the omega-limit
# polish in analyze (it needs eight late snapshots).
TINY = {"ac1d_quench": 0.05, "ch2d_spinodal": 0.006, "nl2d_equilibrium": 0.002}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    for name, t_max in TINY.items():
        d = tmp_path_factory.mktemp(name)
        inputs = workloads.generate(name, 1, d / "inputs", t_max)
        rep = run.run_pipeline(name, inputs, d / "rep", True, run._now() + 170.0)
        out[name] = (rep, d / "rep", inputs)
    return out


def test_benchmark_json_names_and_units():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    for key in ("end_to_end", "per_layer"):
        for m in bench[key]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]), m
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]+", m["unit"]), m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"])


def test_inputs_follow_the_seed():
    a = workloads.initial_values("ch2d_spinodal", 7)
    b = workloads.initial_values("ch2d_spinodal", 7)
    c = workloads.initial_values("ch2d_spinodal", 8)
    base, _ = workloads.base_profile(workloads.WORKLOADS["ch2d_spinodal"]["sections"])
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert np.max(np.abs(a - base)) == pytest.approx(workloads.PERTURBATION)
    assert abs(a.mean() - base.mean()) < 1e-15


def test_gate_passes_and_layers_report(traced):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_s"}
    for name, (rep, _, _) in traced.items():
        assert rep["problems"] == {}, (name, rep["problems"])
        assert rep["attempted"] == 3 + len(run.REFERENCE[name])
        assert layer_names <= set(rep["layer"]), layer_names - set(rep["layer"])
        assert all(rep["e2e"][k] > 0 for k in ("setup_s", "simulate_s", "pipeline_s"))


def test_spans_nest_and_self_times_are_nonnegative(traced):
    for name, (rep, _, _) in traced.items():
        recs = spans.read(rep["spans"])
        by_id = {r[0]: r for r in recs}
        for r in recs:
            if r[1] >= 0:
                parent = by_id[r[1]]
                assert parent[3] <= r[3] and r[4] <= parent[4], (name, parent, r)
        assert min(spans.self_times(recs)) >= 0.0
        roots = {r[2] for r in recs if r[1] < 0}
        assert {"cli.cmd_simulate", "cli.cmd_analyze", "cli.cmd_equilibrium"} <= roots


def test_kernel_is_called_only_by_the_nonlocal_workload(traced):
    for name, (rep, _, _) in traced.items():
        calls = rep["layer"]["grid.kernel_apply.calls"]
        assert (calls > 0) == (name == "nl2d_equilibrium"), (name, calls)


def _corrupt_copy(traced, tmp_path, name):
    rep, repdir, inputs = traced[name]
    copy = tmp_path / "rep"
    shutil.copytree(repdir, copy)
    return copy, json.loads((repdir / "result.json").read_text()), inputs


def test_corrupted_diagnostics_trip_the_gate(traced, tmp_path):
    copy, result, inputs = _corrupt_copy(traced, tmp_path, "ac1d_quench")
    csv = copy / "run" / "diagnostics.csv"
    lines = csv.read_text().splitlines()
    row = lines[5].split(",")
    row[2] = repr(float(row[2]) + 1e-6)  # energy rises across one step
    lines[5] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    _, problems = run.check_pipeline("ac1d_quench", copy, result, inputs["t_max"])
    assert "simulate" in problems


def test_corrupted_equilibrium_trips_the_gate(traced, tmp_path):
    copy, result, inputs = _corrupt_copy(traced, tmp_path, "ch2d_spinodal")
    path = copy / "eq" / "equilibria.json"
    seeds = json.loads(path.read_text())
    seeds[1]["delta"] += 1e-3
    path.write_text(json.dumps(seeds))
    (copy / "run" / "report.json").unlink()
    _, problems = run.check_pipeline("ch2d_spinodal", copy, result, inputs["t_max"])
    assert set(problems) == {f"seed:{seeds[1]['seed_id']}", "analyze"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ac1d_quench",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
