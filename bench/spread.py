"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout):

    python3 bench/spread.py --seconds 20 --seeds 1 2 3 4 5 6 7 8 9 10 \\
        [--workloads indicators adjust pipeline] [--out bench/spread.json]

Runs ``bench/run.py --trace 0`` once per workload and seed, one run at a
time, and reports for every metric its median, its quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median. The raw times and
the calibration median of each run, from its details line, are summarized
the same way under ``raw``, to show what the rescaling to a reference
machine speed removes, together with the wall time of each whole run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Return the run's metrics and the raw figures of its details line."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True, timeout=600,
    )
    *_, details, line = (json.loads(text) for text in proc.stdout.strip().splitlines())
    if not line["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stdout}")
    wall = time.monotonic() - started
    return line["metrics"], details["raw"] | {"calibration_ms": details["calibration_ms"], "run_wall_s": wall}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(inputs.WORKLOADS), choices=inputs.WORKLOADS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    report = {
        "seconds": args.seconds,
        "seeds": args.seeds,
        "machine": f"{platform.machine()} nproc={os.cpu_count()} python={platform.python_version()}",
        "workloads": {},
    }
    for workload in args.workloads:
        runs, raws = [], []
        for seed in args.seeds:
            metrics, raw = run_once(workload, seed, args.seconds)
            runs.append(metrics)
            raws.append(raw)
            values = " ".join(f"{name}={m['value']:.4f}" for name, m in metrics.items())
            print(f"{workload} seed {seed}: {values} calibration_ms={raw['calibration_ms']:.4f} "
                  f"run_wall_s={raw['run_wall_s']:.1f}", flush=True)
        summary = {
            name: summarize([r[name]["value"] for r in runs]) | {"unit": runs[0][name]["unit"]}
            for name in runs[0]
        }
        raw = {name: summarize([r[name] for r in raws]) for name in raws[0]}
        report["workloads"][workload] = summary | {"raw": raw}
        for name, s in summary.items():
            print(f"{workload:10} {name:20} median {s['median']:12.4f} {s['unit']:4} "
                  f"spread {s['spread']:.4f}", flush=True)
        for name, s in raw.items():
            print(f"{workload:10} {'raw ' + name:20} median {s['median']:12.4f}      "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
