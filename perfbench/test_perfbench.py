"""The benchmark's own tests: seeded inputs, exact counts, metric spec.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(wl) -> dict:
    """Everything a workload hands the program, as comparable values."""
    if isinstance(wl, workloads.CliCold):
        return {"commands": wl.commands,
                "files": {p.name: p.read_text()
                          for p in sorted(Path(wl.commands["frt_quantum"][2])
                                          .parent.iterdir())}}
    out = {}
    for key, value in vars(wl).items():
        if isinstance(value, workloads.ClassicalScan):
            value = _inputs(value)
        elif isinstance(value, dict):
            value = {k: v.tobytes() if isinstance(v, np.ndarray) else v
                     for k, v in value.items()}
        elif key == "state":
            value = value.amplitudes.tobytes()
        out[key] = value
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_seed_gives_identical_inputs_and_counts(name, tmp_path):
    results = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        wl = workloads.make(name, 5, ROOT, workdir)
        inputs = _inputs(wl)
        wl.prepare()
        ctx, _ = harness.run_pass(harness.Tracer(), 0, wl.units())
        assert ctx.failed == 0, ctx.first_failure
        if name == "cli-cold":
            inputs["commands"] = {k: [a.replace(str(workdir), "W") for a in v]
                                  for k, v in inputs["commands"].items()}
        results.append((inputs, ctx.checks, ctx.counts, ctx.outputs))
    assert results[0] == results[1]
    other = workloads.make(name, 6, ROOT, tmp_path / "0")
    assert _inputs(other) != results[0][0]


def test_counts_are_the_issue_bases():
    wl = workloads.make("uf-operator", 5, ROOT, None)
    wl.prepare()
    ctx, _ = harness.run_pass(harness.Tracer(), 0, wl.units())
    counts = ctx.counts
    assert counts["unitary_compile.rotations"] >= sum(
        d * (d - 1) // 2 for d in workloads.UfOperator.MESH_DIMS)
    assert counts["sca_core.frt_check.held"] == 3 * workloads.ClassicalScan.HELD
    assert counts["sca_core.frt_check.attempts"] > counts[
        "sca_core.frt_check.held"]


def test_metric_names_and_units_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_a_unit(trace):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-cold",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(spec)
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uf-operator",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert "{" not in res.stdout


def test_affine_destinations_match_the_gate_kernels():
    from qsca import Circuit, Cn, Not, StateVector, apply_circuit
    gates = [("X", 1, 0), ("CN", 1, 3), ("CN", 3, 2), ("X", 2, 0),
             ("CN", 2, 1)]
    circuit = Circuit(3, tuple(Not(a) if k == "X" else Cn(a, b)
                               for k, a, b in gates))
    amp = np.arange(1, 9, dtype=complex)
    out = apply_circuit(StateVector(3, amp), circuit).amplitudes
    assert np.array_equal(out[oracle.affine_destinations(3, gates)], amp)
