"""The three workloads: the CLI requests each one issues and their correctness gates.

A request is one or more ``cli.main(argv)`` calls, timed together. Its gate
runs afterwards, outside the timed interval, and raises
:class:`oracle.CheckFailed` (or any other exception) when the output is wrong.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import inputs
import oracle

TOLERANCE = 1e-9

# Typical wall time of one turn of the request loop (the request, its
# calibration and its correctness check) on a 2-vCPU x86_64 VM (Python
# 3.11, numpy 2.4). A run issues seconds * 1000 / NOMINAL_MS requests, so
# it measures for about --seconds, but its work is fixed by --seconds and
# never by the clock.
NOMINAL_MS = {"indicators": 115, "adjust": 130, "pipeline": 175}


def request_count(workload: str, seconds: int) -> int:
    return max(3, round(seconds * 1000 / NOMINAL_MS[workload]))


def setup_models(workload: str, manifest: dict, workdir: Path) -> list[str]:
    """The model arguments one request of the workload loads."""
    if workload == "indicators":
        e = manifest["entries"][0]
        return [str(workdir / e["reference"]), str(workdir / e["candidate"])]
    if workload == "adjust":
        return ["friction-relation"]
    return ["heavy-rain-reality", "heavy-rain-model"]


def _codes_ok(codes) -> None:
    if any(c != 0 for c in codes):
        raise oracle.CheckFailed(f"exit codes {codes}")


class Indicators:
    """``indicators REF CAND --set S --format json`` on a random 16-node binary pair."""

    def __init__(self, manifest: dict, workdir: Path, program):
        self.entries = manifest["entries"]
        self.workdir = workdir
        self._expected: dict[int, dict] = {}

    def argvs(self, k: int) -> list[list[str]]:
        e = self.entries[k]
        return [[
            "indicators",
            str(self.workdir / e["reference"]),
            str(self.workdir / e["candidate"]),
            "--set", ",".join(e["set"]),
            "--format", "json",
        ]]

    def expected(self, k: int) -> dict:
        if k not in self._expected:
            e = self.entries[k]
            nets = [
                oracle.net_from_payload(json.loads((self.workdir / e[role]).read_text(encoding="utf-8")))
                for role in ("reference", "candidate")
            ]
            self._expected[k] = oracle.indicator_values(*nets, e["set"])
        return self._expected[k]

    def check(self, k: int, codes, outs) -> None:
        _codes_ok(codes)
        oracle.check_indicator_report(json.loads(outs[0]), self.expected(k), TOLERANCE)


class Adjust:
    """``adjust friction-relation`` over 8 of the 12 measurable pool variables."""

    def __init__(self, manifest: dict, workdir: Path, program):
        self.entries = manifest["entries"]
        payload = json.loads(program.fixtures.fixture_text("friction-relation"))
        x, y = inputs.FRICTION_X, inputs.FRICTION_Y
        self.oracle = oracle.BackdoorOracle(oracle.Dag.from_payload(payload), x, y, inputs.FRICTION_POOL)
        # The program's own d-separation on the structure with x's out-edges
        # removed; a second check of every returned set.
        self.d_separated = program.graph.d_separated
        self.pruned = program.graph.build_structure(
            nodes=[v["name"] for v in payload["variables"]],
            directed=[(a, b) for a, b in payload["edges"] if a != x],
            latent=[v["name"] for v in payload["variables"] if v["latent"]],
        )

    def argvs(self, k: int) -> list[list[str]]:
        return [[
            "adjust", "friction-relation",
            "-x", inputs.FRICTION_X,
            "-y", inputs.FRICTION_Y,
            "--max", str(inputs.ADJUST_MAX),
            "--candidates", ",".join(self.entries[k]["candidates"]),
            "--format", "json",
        ]]

    def check(self, k: int, codes, outs) -> None:
        _codes_ok(codes)
        sets = json.loads(outs[0])["adjustment_sets"]
        want = self.oracle.expected_sets(self.entries[k]["candidates"])
        if sets != want:
            raise oracle.CheckFailed(f"{len(sets)} sets returned, scan expects {len(want)}: {sets} vs {want}")
        x, y = self.oracle.x, self.oracle.y
        for s in sets:
            if set(s) & self.oracle.banned:
                raise oracle.CheckFailed(f"{s} holds x, y, a latent node or a descendant of x")
            if not self.d_separated(self.pruned, {x}, {y}, s).separated:
                raise oracle.CheckFailed(f"{s} leaves a back-door path open")


class Pipeline:
    """``sample`` reality and model, then ``indicators --data`` on the two CSVs."""

    def __init__(self, manifest: dict, workdir: Path, program):
        self.entries = manifest["entries"]
        self.csv = (str(workdir / "reference.csv"), str(workdir / "candidate.csv"))
        self.payloads = [
            json.loads(program.fixtures.fixture_text(f))
            for f in ("heavy-rain-reality", "heavy-rain-model")
        ]
        self._expected: dict[str, dict] = {}

    def argvs(self, k: int) -> list[list[str]]:
        e = self.entries[k]
        n = str(inputs.PIPELINE_ROWS)
        return [
            ["sample", "heavy-rain-reality", "-n", n, "--seed", str(e["seed_reference"]), "-o", self.csv[0]],
            ["sample", "heavy-rain-model", "-n", n, "--seed", str(e["seed_candidate"]), "-o", self.csv[1]],
            [
                "indicators", "heavy-rain-reality", "heavy-rain-model",
                "--data", *self.csv,
                "--set", ",".join(inputs.PIPELINE_SET),
                "--format", "json",
            ],
        ]

    def expected(self) -> dict:
        """Reference values counted from the two CSVs, cached by their contents."""
        digest = hashlib.sha256()
        for path in self.csv:
            digest.update(Path(path).read_bytes())
        key = digest.hexdigest()
        if key not in self._expected:
            nets = []
            for payload, path in zip(self.payloads, self.csv):
                net, rows = oracle.net_from_csv(payload, Path(path))
                if rows != inputs.PIPELINE_ROWS:
                    raise oracle.CheckFailed(f"{path}: {rows} rows, expected {inputs.PIPELINE_ROWS}")
                nets.append(net)
            self._expected[key] = oracle.indicator_values(*nets, inputs.PIPELINE_SET)
        return self._expected[key]

    def check(self, k: int, codes, outs) -> None:
        _codes_ok(codes)
        oracle.check_indicator_report(json.loads(outs[2]), self.expected(), TOLERANCE)


WORKLOADS = {"indicators": Indicators, "adjust": Adjust, "pipeline": Pipeline}
