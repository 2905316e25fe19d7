"""One workload process: a single client issuing CLI requests in a closed loop.

Usage: python3 bench/worker.py MANIFEST COUNT [--trace SPANS] [--setup-probes N]

Runs ``WARMUP`` untimed requests, then COUNT timed ones through the
program's own ``cli.main(argv)`` with stdout captured. The next request
starts only after the previous one has been checked. With ``--trace`` the
layer tracer is installed first and its spans are written to SPANS at the
end. ``--setup-probes`` spreads N set-up measurements, each in a fresh
interpreter, evenly between the requests, so that the set-up median sees
the machine over the whole run rather than in one moment. Before each
request, outside its timer, the fixed calibration work is timed too, so
that ``run.py`` can rescale the run's times to a reference machine speed.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP = 2
MAX_FAILURE_NOTES = 5
CALIBRATION_LOOPS = 40_000
CALIBRATION_ROUNDS = 20
CALIBRATION_ARRAY = np.arange(65536.0)

# Cold start of one CLI call: import the package with its CLI, then load the
# workload's input models (file paths or fixture ids) through the program.
PROBE = """
import sys, time
t0 = time.perf_counter()
import causalcrit.cli
from causalcrit import fixtures, io
for ref in sys.argv[1:]:
    fixtures.fixture(ref) if ref in fixtures.FIXTURE_IDS else io.load_model(ref)
print(repr(time.perf_counter() - t0))
"""


def setup_seconds(models: list[str]) -> float:
    """Set-up time of one fresh interpreter, which inherits this process's environment."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *models],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def calibration_ns() -> int:
    """Wall time of fixed work that uses no code of the program, about 5 ms.

    The speed of a shared host drifts by a fifth and more over minutes, with
    neighbours' load rather than with anything this process does. The work
    slows with it, so its timings around a request measure the machine's
    speed at that moment. It mixes an interpreter loop with array arithmetic
    on a 65,536-cell vector because the workloads mix the two, and the two
    slow by different amounts under the same load.
    """
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    for _ in range(CALIBRATION_ROUNDS):
        scaled = CALIBRATION_ARRAY * 1.0001
        scaled += 0.5
        scaled.sum()
    return time.perf_counter_ns() - t0


def import_program() -> SimpleNamespace:
    """Import causalcrit from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import causalcrit
    import causalcrit.cli
    import causalcrit.fixtures
    import causalcrit.graph

    where = Path(causalcrit.__file__).resolve().parent
    if where != (SRC / "causalcrit").resolve():
        raise SystemExit(f"causalcrit imported from {where}, not from {SRC}")
    return SimpleNamespace(
        package=causalcrit, cli=causalcrit.cli, fixtures=causalcrit.fixtures, graph=causalcrit.graph
    )


def run_request(main, argvs) -> tuple[list, list[str], str, int]:
    """Issue the request's CLI calls; return exit codes, stdouts, stderr and wall ns."""
    outs = [io.StringIO() for _ in argvs]
    err = io.StringIO()
    codes: list = []
    saved = sys.stdout, sys.stderr
    sys.stderr = err
    try:
        t0 = time.perf_counter_ns()
        for argv, out in zip(argvs, outs):
            sys.stdout = out
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception:
                # A crash fails the request; the loop goes on to the next one.
                codes.append("exception")
                err.write(traceback.format_exc())
        t1 = time.perf_counter_ns()
    finally:
        sys.stdout, sys.stderr = saved
    return codes, [o.getvalue() for o in outs], err.getvalue(), t1 - t0


def run_loop(workload, main, count: int, tracer: Tracer | None = None, probe=None, probes: int = 0) -> dict:
    """Warm up, then issue ``count`` timed requests, each checked after its timer stops.

    ``probe()`` is called ``probes`` times, spread evenly between requests.
    """
    pool = len(workload.entries)
    schedule = [j * count // probes for j in range(probes)]
    setup = []
    for i in range(WARMUP):
        run_request(main, workload.argvs(pool - 1 - i))
    if tracer is not None:
        tracer.reset()
    latencies, calibration, failures = [], [], []
    for i in range(count):
        k = i % pool
        setup += [probe() for _ in range(schedule.count(i))]
        gc.collect()
        calibration.append(calibration_ns())
        if tracer is not None:
            tracer.request = i
        codes, outs, err, ns = run_request(main, workload.argvs(k))
        latencies.append(ns)
        if tracer is not None:
            tracer.enabled = False
        try:
            workload.check(k, codes, outs)
        except Exception as exc:
            failures.append(f"request {i} (input {k}): {type(exc).__name__}: {exc} {err[-500:]}")
        finally:
            if tracer is not None:
                tracer.enabled = True
    return {
        "attempted": count,
        "completed": count - len(failures),
        "failures": failures[:MAX_FAILURE_NOTES],
        "latencies_ns": latencies,
        "calibration_ns": calibration,
        "setup_s": setup,
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest", type=Path)
    parser.add_argument("count", type=int)
    parser.add_argument("--trace", type=Path, metavar="SPANS")
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args(argv)
    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    workdir = args.manifest.parent
    program = import_program()
    workload = workloads.WORKLOADS[manifest["workload"]](manifest, workdir, program)
    models = workloads.setup_models(manifest["workload"], manifest, workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(program.package, roots=[(program.cli, "main")])
    result = run_loop(
        workload, program.cli.main, args.count, tracer,
        probe=lambda: setup_seconds(models), probes=args.setup_probes,
    )
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["functions"] = tracer.summary()
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
