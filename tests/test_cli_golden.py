"""Golden CLI output: exact stdout bytes and exit codes on the shipped fixtures.

Every invocation in ``CASES`` is replayed through ``cli.main`` and compared
byte for byte with ``tests/data/cli_golden.json``. A change to any printed
number, route label or exit code fails here. Argument lists may name
``{tmp}``, which stands for a per-test directory holding the two CSVs written
by ``sample -n 5000`` with seeds 3 and 4, and ``{data}``, which stands for
``tests/data``.

Regenerate the data file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from causalcrit.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"

REF_CSV = "{tmp}/ref.csv"
CAND_CSV = "{tmp}/cand.csv"
PAIR = ("heavy-rain-reality", "heavy-rain-model")
SET = ("--set", "V1,V2,X")
FRICTION_X = "Coefficient of friction"
FRICTION_Y = "Aggregate of BTN_DT and STN_DT"
# X <-> W, W -> phi, X -> phi: semi-Markovian, X's effect needs the set {W}.
CONFOUNDED = "{data}/confounded_pair.json"


def _effect_cases() -> list[tuple[str, ...]]:
    cases = []
    for model, backdoor_set in (("heavy-rain-reality", "V1,V3"), ("heavy-rain-model", "V2")):
        routes = (
            ("--route", "auto"),
            ("--route", "truncated"),
            ("--route", "parents"),
            ("--route", "backdoor", "--adjust-set", backdoor_set),
            ("--route", "backdoor"),
        )
        for route in routes:
            for do, target in (
                ("", "phi"),  # observational
                ("X=CP", "phi"),
                ("X=notCP", "phi"),
                ("X=CP,V2=Fast", "phi"),  # multi-node do()
                ("X=CP", "X"),  # target inside the do()
                ("V1=Winter", "X"),
            ):
                cases.append(("effect", model, "--do", do, "--target", target, *route))
    cases.append(("effect", "heavy-rain-model", "--do", "X=CP,V1=Summer", "--target", "V2"))
    cases.append(
        ("effect", "friction-relation", "--do", f"{FRICTION_X}=reduced", "--target", FRICTION_Y)
    )
    for target in ("phi", "W", "X"):
        cases.append(("effect", CONFOUNDED, "--do", "X=b", "--target", target))
    cases.append(("effect", CONFOUNDED, "--do", "", "--target", "phi", "--route", "truncated"))
    return cases


CASES: list[tuple[str, ...]] = [
    ("validate", "heavy-rain-reality"),
    ("validate", "heavy-rain-model"),
    ("validate", "friction-relation"),
    ("adjust", "heavy-rain-model", "-x", "X", "-y", "phi"),
    *_effect_cases(),
    ("sp", "heavy-rain-reality", "--sp", "V2=Slow"),
    ("sp", "heavy-rain-reality", "--sp", "X=notCP"),
    ("sp", "heavy-rain-model", "--sp", "V1=Winter,V2=Fast", "--name", "two-node"),
    ("indicators", *PAIR),
    ("indicators", *PAIR, *SET),
    ("indicators", *PAIR, *SET, "--bits"),
    ("indicators", *PAIR, *SET, "--rho3-restricted"),
    ("indicators", *PAIR, *SET, "--rho3-restricted", "--bits"),
    ("indicators", "heavy-rain-model", "heavy-rain-reality", "--set", "V2,X,phi"),
    ("indicators", *PAIR, "--data", REF_CSV, CAND_CSV, *SET),
    ("indicators", *PAIR, "--data", REF_CSV, CAND_CSV, *SET,
     "--alpha", "1", "--rho3-restricted", "--bits"),
]


def _invocations():
    """Every case in JSON and human format."""
    for case in CASES:
        yield (*case, "--format", "json")
        yield (*case, "--format", "human")


def _run(argv: tuple[str, ...], tmp: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{tmp}", tmp).replace("{data}", str(DATA.parent)) for a in argv])
    assert code != 0 or err.getvalue() == "", f"{' '.join(argv)} wrote to stderr: {err.getvalue()!r}"
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def _write_csvs(tmp: str) -> None:
    for model, seed, path in (
        ("heavy-rain-reality", "3", REF_CSV),
        ("heavy-rain-model", "4", CAND_CSV),
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["sample", model, "-n", "5000", "--seed", seed,
                         "-o", path.replace("{tmp}", tmp)])
        assert code == 0


def record(tmp: str) -> list[dict]:
    _write_csvs(tmp)
    return [_run(argv, tmp) for argv in _invocations()]


@pytest.mark.filterwarnings("error")
def test_cli_output_matches_golden(tmp_path):
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    actual = record(str(tmp_path))
    assert [e["argv"] for e in expected] == [a["argv"] for a in actual]
    for exp, act in zip(expected, actual):
        assert act == exp, " ".join(exp["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = record(tmp)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(records)} invocations to {DATA}\n")
