"""Deterministic inference work on the benchmark's requests, pinned.

Wall times on a shared machine cannot resolve a few percent, so this pins
what the inference does instead: for the 99 seed-7 ``indicators`` requests
and the first 20 seed-7 ``pipeline`` requests of ``bench/inputs.py``, the
number of ``model._plan`` calls (plan-cache misses), ``model.joint_tables``
calls and ``model._contract`` calls (one per replayed step), and the summed
step work. A step's work is the product of the state counts of the distinct
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

counts = {"plan": 0, "joint_tables": 0, "contract": 0, "work": 0}
plan, joint_tables, contract = model._plan, model.joint_tables, model._contract

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

# Each is read as a module global at call time: joint_tables by model._run,
# its one caller, and _plan and _contract by joint_tables.
model._plan, model.joint_tables, model._contract = counted_plan, counted_joint_tables, counted_contract

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
        ("indicators", 99, {"plan": 198, "joint_tables": 396, "contract": 9908, "work": 238640}),
        ("pipeline", 20, {"plan": 4, "joint_tables": 80, "contract": 600, "work": 3680}),
    ],
)
def test_work_counts_are_pinned(workload, requests, expected, tmp_path):
    counts = _counts(workload, requests, tmp_path)
    assert counts.pop("codes") == [0]
    assert counts == expected
