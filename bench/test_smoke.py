"""Tiny-size smoke test of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest -q bench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import inputs
import oracle
import run
import worker
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def _corrupt_indicator_values(monkeypatch):
    real = oracle.indicator_values

    def corrupted(*args):
        values = real(*args)
        values[("rho3", "pair")] += 1e-6
        return values

    monkeypatch.setattr(oracle, "indicator_values", corrupted)


def _corrupt_expected_sets(monkeypatch):
    real = oracle.BackdoorOracle.expected_sets
    monkeypatch.setattr(
        oracle.BackdoorOracle, "expected_sets", lambda self, c: real(self, c) + [["Tire type"]]
    )


CORRUPTIONS = {
    "indicators": _corrupt_indicator_values,
    "adjust": _corrupt_expected_sets,
    "pipeline": _corrupt_indicator_values,
}


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = run.ROOT / ".bench_work" / f"smoke-{request.node.name}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_gate_rejects_a_corrupted_reference(workload, corrupt, workdir, monkeypatch):
    manifest = inputs.make_inputs(workload, 1, workdir)
    program = worker.import_program()
    if corrupt:
        CORRUPTIONS[workload](monkeypatch)
    wl = workloads.WORKLOADS[workload](manifest, workdir, program)
    result = worker.run_loop(wl, program.cli.main, count=2)
    result["peak_rss_kb"] = 1
    ratio = run.end_to_end(result, setup=[1.0])["completed_ratio"][0]
    if corrupt:
        assert ratio < 1.0 and result["completed"] == 0
    else:
        assert ratio == 1.0, result["failures"]
