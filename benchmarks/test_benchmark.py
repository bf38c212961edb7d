"""Tests of the benchmark itself.  Run with ``python -m pytest benchmarks``.

The short runs take a few seconds per workload, because a pass holds at
least 100 items whatever ``--seconds`` says.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import fjpower.perception as perception  # noqa: E402
import fjpower.scenario as scenario  # noqa: E402
import fjpower.simkit as simkit  # noqa: E402

ITEMS_PER_PASS = sum(count for _, _, count in workloads.DIST_PLAN)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads_and_metrics_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert _units("end_to_end") == run.END_TO_END_UNITS
    for name, unit in _units("per_layer").items():
        assert run.unit_of(name) == unit, name


def _short_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    result = _short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_a_corrupted_distributed_path_counts_as_a_failure(monkeypatch):
    real = simkit.run_distributed
    calls = []

    def corrupting(net, mode, p0, gamma=None, **kwargs):
        traj = real(net, mode, p0, gamma, **kwargs)
        calls.append(mode)
        if len(calls) % ITEMS_PER_PASS != 5:
            return traj
        path = traj.path.copy()
        path[-1, 0] = np.nextafter(path[-1, 0], np.inf)
        return perception.Trajectory(path, traj.status, traj.timescale, traj.tol)

    monkeypatch.setattr(simkit, "run_distributed", corrupting)
    m = run.run_workload("distributed_rounds", seed=3, seconds=0.1, trace=False)
    passes = len(m["pass_s"]) + 1  # timed passes plus the warm-up
    assert m["failed"] == passes
    assert m["failed_frac"] == passes / m["attempted"]
    assert m["result"]["correct"] is False
    assert m["result"]["metrics"]["ok_frac"]["value"] == 1.0 - m["failed_frac"]
    assert all("differs from the centralized" in msg for msg in m["failures"])


def test_tracer_wraps_names_imported_by_callers_and_restores_them(tmp_path):
    originals = (scenario.run_to_convergence, perception.run_to_convergence)
    assert originals[0] is originals[1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scenario.run_to_convergence is not originals[0]
        assert scenario.run_to_convergence is perception.run_to_convergence
        scn = scenario.load_scenario(HERE.parent / "scenarios" / "three_node_ra.yaml")
        scenario.run_scenario(scn, out_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert scenario.run_to_convergence is originals[0]
    assert perception.run_to_convergence is originals[0]
    totals = tracer.take()
    assert totals["spans"]["perception.run_to_convergence"][0] == 1
    steps = totals["spans"]["perception.step_perception_ra"][0]
    assert steps == totals["counts"]["perception.iterations"] > 0
