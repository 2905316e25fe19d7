"""End-to-end benchmark of the causalcrit CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {indicators,adjust,pipeline} --seed N \\
        --seconds S --trace {0,1}

Each workload drives the program as its users do: ``cli.main(argv)`` calls
on generated model files and CSVs, with stdout captured, from one client in
a closed loop. The request count is ``S * 1000 / NOMINAL_MS`` and never
depends on the clock. The workload runs in its own fresh interpreter with
``PYTHONHASHSEED`` and the BLAS thread count pinned, so the order of work
repeats. Every request is checked after its timer stops (see
``workloads.py``).

Every time the benchmark reports is rescaled to a reference machine speed:
multiplied by ``REFERENCE_CALIBRATION_MS`` over the time of
``worker.calibration_ns()``, fixed work timed before each request. A
request's latency is rescaled by the median of the calibrations taken
within ``CALIBRATION_WINDOW`` requests of it; set-up and per-layer times by
the median of the run. On a shared 2-vCPU host, speed drifts by up to a
fifth over seconds to minutes as neighbours' load comes and goes: over ten
consecutive runs of the same code, raw ops_per_s, p50 and p90 spread by
0.05-0.14 of their medians, the rescaled ones by 0.02-0.09 (see
``spread.json``).
The details line keeps the raw figures and the calibration median.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced and then twice traced, each for a
third of the requests, reports the per-layer metrics of the two traced
runs together, requires their exact counters to agree, and writes their
spans to ``.bench_work/trace/<workload>-{a,b}.jsonl``.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
input digest, sample counts and failure notes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import FIELDS  # noqa: E402

SETUP_REPEATS = 7
# Typical median of worker.calibration_ns() on a 2-vCPU x86_64 VM
# (Python 3.11, numpy 2.4); reported times are those of a machine this fast.
REFERENCE_CALIBRATION_MS = 5.5
CALIBRATION_WINDOW = 2
DEADLINE_S = 170
LAYERS = ("cli", "io", "graph", "model", "engine", "indicators")

# Per-function metrics of the traced run, named function.quantity. Counts
# (calls, cells, rows, sets) are exact; the rest are times.
QUANTITIES = {
    "calls_per_op": ("calls/op", lambda f, ops: f["calls"] / ops),
    "self_ms_per_op": ("ms/op", lambda f, ops: f["self_ns"] / 1e6 / ops),
    "incl_ms_per_op": ("ms/op", lambda f, ops: f["incl_ns"] / 1e6 / ops),
    "self_us_per_call": ("us/call", lambda f, ops: f["self_ns"] / 1e3 / f["calls"] if f["calls"] else 0.0),
    "max_cells": ("cells", lambda f, ops: f["count_max"]),
    "cells_per_op": ("cells/op", lambda f, ops: f["count_sum"] / ops),
    "rows_per_s": ("rows/s", lambda f, ops: f["count_sum"] / (f["incl_ns"] / 1e9) if f["incl_ns"] else 0.0),
}
FUNCTION_METRICS = (
    "graph.backdoor_admissible.calls_per_op",
    "graph.backdoor_admissible.self_us_per_call",
    "graph.enumerate_adjustment_sets.self_ms_per_op",
    "graph.build_structure.self_ms_per_op",
    "io.load_model.incl_ms_per_op",
    "io.parse_model_text.incl_ms_per_op",
    "model.joint_table.calls_per_op",
    "model.joint_table.max_cells",
    "model.joint_table.cells_per_op",
    "model.joint_table.self_ms_per_op",
    "engine.interventional_truncated.calls_per_op",
    "indicators.rho3.incl_ms_per_op",
    "indicators.causal_influence.calls_per_op",
    "model.sample.self_ms_per_op",
    "model.sample.rows_per_s",
    "model.estimate_cpds.self_ms_per_op",
    "io.load_dataset.self_ms_per_op",
    "io.load_dataset.rows_per_s",
    "io.save_dataset.self_ms_per_op",
    "io.canonical_json.self_ms_per_op",
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # Bytecode caches must be written by the warm import and stay in the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    def __init__(self, started: float):
        self.started = started
        self.env = child_env()

    def run(self, args: list[str]) -> str:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left < 1:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out after {left:.0f} s: {args[:2]}") from None
        if proc.returncode != 0:
            raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout.strip().splitlines()[-1]

    def warm_import(self, models: list[str]) -> None:
        """Untimed cold start: rewrites bytecode caches a checkout switch left stale."""
        self.run(["-c", worker.PROBE, *models])

    def worker(self, manifest: Path, count: int, spans: Path | None = None, setup_probes: int = 0) -> dict:
        args = [str(BENCH / "worker.py"), str(manifest), str(count), "--setup-probes", str(setup_probes)]
        if spans is not None:
            args += ["--trace", str(spans)]
        return json.loads(self.run(args))


def calibration_ms(result: dict) -> float:
    return statistics.median(result["calibration_ns"]) / 1e6


def speed_scale(result: dict) -> float:
    """Factor that rescales the times of a whole run to the reference machine speed."""
    return REFERENCE_CALIBRATION_MS / calibration_ms(result)


def request_scales(result: dict) -> list[float]:
    """Per request, the factor that rescales its latency to the reference speed."""
    cal, w = result["calibration_ns"], CALIBRATION_WINDOW
    return [
        REFERENCE_CALIBRATION_MS / (statistics.median(cal[max(0, i - w):i + w + 1]) / 1e6)
        for i in range(len(cal))
    ]


def latencies_ms(result: dict, rescale: bool = True) -> list[float]:
    scales = request_scales(result) if rescale else [1.0] * len(result["latencies_ns"])
    return [ns / 1e6 * s for ns, s in zip(result["latencies_ns"], scales)]


def ops_per_s(result: dict, rescale: bool = True) -> float:
    return result["completed"] / (sum(latencies_ms(result, rescale)) / 1e3)


def end_to_end(result: dict, setup: list[float], rescale: bool = True) -> dict:
    """End-to-end metrics, with times rescaled to the reference speed unless ``rescale`` is off."""
    deciles = statistics.quantiles(latencies_ms(result, rescale), n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup) * (speed_scale(result) if rescale else 1.0), "s"),
        "ops_per_s": (ops_per_s(result, rescale), "1/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "completed_ratio": (result["completed"] / result["attempted"], "1"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def exact_counters(functions: dict) -> dict:
    return {
        name: (f["calls"], f["errors"], f["count_sum"], f["count_max"])
        for name, f in functions.items()
    }


def merge(passes: list[dict]) -> dict:
    """One result for several traced passes over the same requests."""
    functions = {}
    for name in passes[0]["functions"]:
        parts = [p["functions"][name] for p in passes]
        functions[name] = {key: sum(part[key] for part in parts) for key in parts[0]}
        functions[name]["count_max"] = max(part["count_max"] for part in parts)
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "completed": sum(p["completed"] for p in passes),
        "latencies_ns": [ns for p in passes for ns in p["latencies_ns"]],
        "calibration_ns": [ns for p in passes for ns in p["calibration_ns"]],
        "functions": functions,
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    ops = traced["attempted"]
    scale = speed_scale(traced)
    fns = {
        name: f | {"self_ns": f["self_ns"] * scale, "incl_ns": f["incl_ns"] * scale}
        for name, f in traced["functions"].items()
    }
    zero = dict.fromkeys(FIELDS, 0)
    out = {}
    for layer in LAYERS:
        mine = [v for k, v in fns.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.self_ms_per_op"] = (sum(v["self_ns"] for v in mine) / 1e6 / ops, "ms/op")
        out[f"{layer}.errors_per_op"] = (sum(v["errors"] for v in mine) / ops, "errors/op")
    for name in FUNCTION_METRICS:
        function, quantity = name.rsplit(".", 1)
        unit, value = QUANTITIES[quantity]
        out[name] = (value(fns.get(function, zero), ops), unit)
    checks = fns.get("graph.backdoor_admissible", zero)["calls"]
    found = fns.get("graph.enumerate_adjustment_sets", zero)["count_sum"]
    out["graph.admissible_ratio"] = (found / checks if checks else 0.0, "1")
    out["trace.overhead_ratio"] = (ops_per_s(traced) / ops_per_s(untraced), "1")
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, started: float) -> tuple[dict, dict]:
    """Return (result line, details line)."""
    runner = Runner(started)
    workdir = ROOT / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
    try:
        manifest = inputs.make_inputs(workload, seed, workdir)
        manifest_path = workdir / "manifest.json"
        count = workloads.request_count(workload, seconds)
        details = {
            "workload": workload,
            "seed": seed,
            "inputs_sha256": manifest["sha256"],
            "python": platform.python_version(),
            "machine": f"{platform.machine()} nproc={os.cpu_count()}",
        }
        runner.warm_import(workloads.setup_models(workload, manifest, workdir))
        if not trace:
            result = runner.worker(manifest_path, count, setup_probes=SETUP_REPEATS)
            metrics = end_to_end(result, result["setup_s"])
            raw = end_to_end(result, result["setup_s"], rescale=False)
            details["raw"] = {name: raw[name][0] for name in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms")}
            details["calibration_ms"] = calibration_ms(result)
            details["samples"] = {"setup_s": len(result["setup_s"]), "latency": count, "requests": count}
            results = [result]
        else:
            third = max(3, math.ceil(count / 3))
            spans_dir = ROOT / ".bench_work" / "trace"
            spans_dir.mkdir(parents=True, exist_ok=True)
            untraced = runner.worker(manifest_path, third)
            traced = [
                runner.worker(manifest_path, third, spans=spans_dir / f"{workload}-{tag}.jsonl")
                for tag in ("a", "b")
            ]
            metrics = per_layer(merge(traced), untraced)
            counters = [exact_counters(t["functions"]) for t in traced]
            details["exact_counters_repeat"] = counters[0] == counters[1]
            details["samples"] = {"requests_per_pass": third, "passes": 3}
            results = [untraced, *traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["attempted"] - r["completed"] for r in results)
    details["failures"] = [note for r in results for note in r["failures"]]
    correct = failed == 0 and details.get("exact_counters_repeat", True)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return line, details


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if not (SRC / "causalcrit" / "__init__.py").is_file():
        print(f"error: no causalcrit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        line, details = measure(args.workload, args.seed, args.seconds, args.trace == "1", started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
