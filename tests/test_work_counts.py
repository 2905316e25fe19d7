"""Deterministic inference work on the benchmark's requests, pinned.

Wall times on a shared machine cannot resolve a few percent, so this pins
what the inference does instead: for the 99 seed-7 ``indicators`` requests
and the first 20 seed-7 ``pipeline`` requests of ``bench/inputs.py``, the
number of ``model._plan`` calls (plan-cache misses), ``model.joint_tables``
calls and ``model._contract`` calls (one per replayed step), the summed
step work, and the traffic of two fast paths: ``model._closure_within``
calls (closure walks, which ``model._check_closure`` skips on a model with
every CPD) and ``io._check_model`` calls (whole-file schema checks, which a
file that repeats a declaration in use skips through ``io._DECLARED``). A step's work is the product of the state counts of the distinct
axis characters in its subscripts, read from its operands' shapes; a change
to the elimination shows here as work saved or added.

Each workload runs in a fresh interpreter, so no plan that another test
cached is replayed, and the requests go through ``cli.main`` in order, as
the benchmark issues them. ``bench/`` is only read.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

_SCRIPT = """
import contextlib, io, json, math, sys
from pathlib import Path
from types import SimpleNamespace

workload, bench, workdir, limit = sys.argv[1], sys.argv[2], Path(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, bench)
import inputs
import workloads
from causalcrit import cli, fixtures, graph, model
from causalcrit import io as model_io

counts = {"plan": 0, "joint_tables": 0, "contract": 0, "work": 0, "closure_within": 0, "check_model": 0}
plan, joint_tables, contract = model._plan, model.joint_tables, model._contract
closure_within, check_model = model._closure_within, model_io._check_model

def counted_plan(*args):
    counts["plan"] += 1
    return plan(*args)

def counted_joint_tables(*args, **kwargs):
    counts["joint_tables"] += 1
    return joint_tables(*args, **kwargs)

def counted_contract(subscripts, *arrays):
    counts["contract"] += 1
    states = {}
    for axes, array in zip(subscripts.split("->")[0].split(","), arrays):
        states.update(zip(axes, array.shape))
    counts["work"] += math.prod(states.values())
    return contract(subscripts, *arrays)

def counted_closure_within(*args):
    counts["closure_within"] += 1
    return closure_within(*args)

def counted_check_model(*args):
    counts["check_model"] += 1
    return check_model(*args)

# Each is read as a module global at call time: joint_tables by model._run,
# its one caller, _plan and _contract by joint_tables, _closure_within by
# _check_closure, _plan and estimate_cpds, and _check_model by the model reader.
model._plan, model.joint_tables, model._contract = counted_plan, counted_joint_tables, counted_contract
model._closure_within, model_io._check_model = counted_closure_within, counted_check_model

program = SimpleNamespace(cli=cli, fixtures=fixtures, graph=graph)
requests = workloads.WORKLOADS[workload](inputs.make_inputs(workload, 7, workdir), workdir, program)
codes = []
for k in range(limit):
    for argv in requests.argvs(k):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
print(json.dumps({"codes": sorted(set(codes)), **counts}))
"""


def _counts(workload: str, requests: int, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, workload, str(BENCH), str(workdir), str(requests)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "workload, requests, expected",
    [
        # Without _check_closure's name check, indicators makes 1,980 closure
        # walks; without io._DECLARED, 198 schema checks.
        ("indicators", 99, {"plan": 198, "joint_tables": 396, "contract": 9908, "work": 238640,
                            "closure_within": 198, "check_model": 99}),
        ("pipeline", 20, {"plan": 4, "joint_tables": 80, "contract": 600, "work": 3680,
                          "closure_within": 44, "check_model": 2}),
    ],
)
def test_work_counts_are_pinned(workload, requests, expected, tmp_path):
    counts = _counts(workload, requests, tmp_path)
    assert counts.pop("codes") == [0]
    assert counts == expected
