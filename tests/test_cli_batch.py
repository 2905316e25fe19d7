"""The one-pass argument parse and ``causalcrit batch``.

``main`` hands the arguments after a known command name straight to that
command's parser. The argparse-level cases below pin that it behaves as the
two-level parse (the top-level parser, then the command's), exit code,
stdout and stderr alike, both called directly and as ``batch`` lines.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

import causalcrit
from causalcrit import cli
from causalcrit.cli import build_parser, main
from causalcrit.fixtures import fixture_text

from test_cli_golden import DATA, _write_csvs

SRC = str(Path(causalcrit.__file__).resolve().parents[1])
ADJUST = ["adjust", "heavy-rain-model", "-x", "X", "-y", "phi"]

# Each argv as the user types it; {tmp} stands for a per-test directory.
ARGPARSE_CASES = {
    "no-command": [],
    "unknown-command": ["frobnicate", "heavy-rain-model"],
    "help": ["-h"],
    "command-help": ["validate", "-h"],
    "missing-required": ["adjust", "heavy-rain-model", "-x", "X"],
    "bad-int": [*ADJUST, "--max", "q"],
    "stray-positional": ["validate", "heavy-rain-model", "extra"],
    "bad-choice": ["validate", "heavy-rain-model", "--format", "xml"],
    "unknown-option": ["validate", "heavy-rain-model", "--bogus"],
    "option-before-command": ["--format", "json", "validate", "heavy-rain-model"],
    "abbreviation": [*ADJUST, "--form", "json"],
    "double-dash": ["validate", "--", "heavy-rain-model"],
    "negative-number": ["sample", "heavy-rain-reality", "-n", "-3", "-o", "{tmp}/never.csv"],
    "ambiguous-abbreviation": ["metrics", "--t", "a.txt", "--field", "f.txt"],
}


def _call(argv, stdin: str = "") -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``, a SystemExit included."""
    out, err = StringIO(), StringIO()
    saved = sys.stdin
    sys.stdin = StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _batch(*lines: str) -> list[dict]:
    code, out, err = _call(["batch"], "".join(line + "\n" for line in lines))
    assert (code, err) == (0, "")
    return [json.loads(line) for line in out.splitlines()]


def _fill(argv, tmp_path) -> list[str]:
    return [a.replace("{tmp}", str(tmp_path)) for a in argv]


@pytest.mark.parametrize("argv", ARGPARSE_CASES.values(), ids=ARGPARSE_CASES.keys())
def test_argparse_outcome_is_the_two_level_parse(argv, tmp_path, monkeypatch):
    argv = _fill(argv, tmp_path)
    direct = _call(argv)
    with monkeypatch.context() as patch:
        # An empty command map sends every argv through build_parser().parse_args.
        patch.setattr(cli, "_parser", lambda: (build_parser(), {}))
        reference = _call(argv)
    assert direct == reference
    (line,) = _batch(json.dumps(argv))
    assert (line["exit"], line["stdout"], line["stderr"]) == reference
    assert not Path(tmp_path, "never.csv").exists()


def test_argparse_cases_reach_each_outcome(tmp_path):
    codes = {name: _call(_fill(argv, tmp_path))[0] for name, argv in ARGPARSE_CASES.items()}
    assert codes == {
        **dict.fromkeys(ARGPARSE_CASES, 2),
        "help": 0,
        "command-help": 0,
        "abbreviation": 0,
        "double-dash": 0,
    }
    # Left-over arguments are reported by the top-level parser, as before.
    err = _call(ARGPARSE_CASES["stray-positional"])[2]
    assert err.startswith("usage: causalcrit [-h]\n")
    assert err.endswith("causalcrit: error: unrecognized arguments: extra\n")
    # A missing required option is reported with the command's own usage.
    assert _call(ARGPARSE_CASES["missing-required"])[2].startswith("usage: causalcrit adjust ")


def test_a_file_repeating_a_fixture_declaration_reports_as_the_files_do(tmp_path):
    # The candidate repeats heavy-rain-reality's declaration with V2's CPD
    # changed. Against the fixture id it is read through the fixture's
    # relation, and its report is the two files' report but for the
    # reference field, called directly and as batch lines alike.
    ref, cand = tmp_path / "ref.json", tmp_path / "cand.json"
    ref.write_text(fixture_text("heavy-rain-reality"), encoding="utf-8")
    payload = json.loads(fixture_text("heavy-rain-reality"))
    next(c for c in payload["cpds"] if c["child"] == "V2")["table"] = [[0.25, 0.75]]
    cand.write_text(json.dumps(payload), encoding="utf-8")
    tail = [str(cand), "--set", "V1,V2,X", "--format", "json"]
    files, fixture = ["indicators", str(ref), *tail], ["indicators", "heavy-rain-reality", *tail]
    direct = [_call(files), _call(fixture)]
    assert [(code, err) for code, _, err in direct] == [(0, ""), (0, "")]
    by_files, by_fixture = (json.loads(out) for _, out, _ in direct)
    assert (by_files.pop("reference"), by_fixture.pop("reference")) == (str(ref), "heavy-rain-reality")
    assert by_fixture == by_files
    lines = _batch(json.dumps(files), json.dumps(fixture))
    assert [(line["exit"], line["stdout"]) for line in lines] == [(0, out) for _, out, _ in direct]


def test_a_bad_line_does_not_stop_the_batch():
    ok = json.dumps(["validate", "friction-relation"])
    results = _batch(
        ok,
        "",
        "not json",
        '{"argv": ["validate"]}',
        '["validate", 1]',
        "[" * 100_000,
        '["batch"]',
        json.dumps(["adjust", "heavy-rain-model", "-x", "X"]),  # argparse: exit 2
        json.dumps(["validate", "no-such-file.json"]),  # IO error: exit 2
        json.dumps(["effect", str(DATA.parent / "confounded_pair.json"), "--do", "X=b",
                    "--target", "phi", "--route", "backdoor"]),  # finding: exit 1
        ok,
    )
    assert [r["exit"] for r in results] == [0, 2, 2, 2, 2, 2, 2, 2, 1, 0]
    assert results[0] == results[-1] == {"exit": 0, "stderr": "", "stdout": "no violations\n"}
    # Messages name the line's number in the input, blank lines counted.
    assert results[1]["stderr"].startswith("error: line 3: not JSON: Expecting value")
    assert results[2]["stderr"] == "error: line 4: not a JSON array of strings\n"
    assert results[3]["stderr"] == "error: line 5: not a JSON array of strings\n"
    assert results[4]["stderr"].startswith("error: line 6: not JSON: ")
    assert results[5]["stderr"] == "error: line 7: batch cannot run inside batch\n"
    assert results[8]["stderr"].startswith("NotAdmissible: ")


def test_a_crashing_line_does_not_stop_the_batch(monkeypatch):
    def crash(relation):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "validate_causal_relation", crash)
    crashed, after = _batch(json.dumps(["validate", "friction-relation"]), json.dumps(ADJUST))
    assert crashed["exit"] == 1
    assert crashed["stderr"].startswith("Traceback (most recent call last):\n")
    assert crashed["stderr"].endswith("RuntimeError: boom\n")
    assert after["exit"] == 0


def test_batch_output_is_one_compact_json_line_per_call():
    code, out, err = _call(["batch"], json.dumps(["validate", "friction-relation", "--format", "json"]) + "\n")
    (line,) = out.splitlines(keepends=True)
    result = json.loads(line)
    assert line == json.dumps(result, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
    assert (code, err, result["exit"], result["stderr"]) == (0, "", 0, "")
    assert json.loads(result["stdout"])["violations"] == []


def _subprocess(*argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "causalcrit.cli", *argv],
        input=stdin, env=env, capture_output=True, text=True, timeout=300,
    )


def test_every_golden_invocation_through_one_batch_process(tmp_path):
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    _write_csvs(str(tmp_path))
    argvs = [
        [a.replace("{tmp}", str(tmp_path)).replace("{data}", str(DATA.parent)) for a in g["argv"]]
        for g in golden
    ]
    proc = _subprocess("batch", stdin="".join(json.dumps(argv) + "\n" for argv in argvs))
    assert (proc.returncode, proc.stderr) == (0, "")
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(golden)
    for g, r in zip(golden, results):
        assert (r["exit"], r["stdout"]) == (g["exit"], g["stdout"]), " ".join(g["argv"])
        assert g["exit"] != 0 or r["stderr"] == "", " ".join(g["argv"])


def test_each_line_prints_its_warnings_as_a_fresh_process(tmp_path):
    # Three records leave parent configurations unseen; each unseen row warns.
    csv = str(tmp_path / "tiny.csv")
    assert main(["sample", "heavy-rain-reality", "-n", "3", "--seed", "1", "-o", csv]) == 0
    argv = ["indicators", "heavy-rain-reality", "heavy-rain-reality", "--data", csv, csv]
    fresh = _subprocess(*argv)
    assert "UnseenParentConfigurationWarning" in fresh.stderr
    proc = _subprocess("batch", stdin=(json.dumps(argv) + "\n") * 2)
    assert proc.returncode == 0
    for result in map(json.loads, proc.stdout.splitlines()):
        assert result == {"exit": fresh.returncode, "stderr": fresh.stderr, "stdout": fresh.stdout}
