"""A damaged input file ends in exit 0, 1 or 2, never in a traceback.

The first case mutates one field of a shipped model file (a type swap, a
deletion, a non-finite or oversized number, or a wrong nesting) and runs the
result through every subcommand that reads a model file. The second damages
the bytes of trajectory, field and dataset files and runs them through
``metrics`` and ``indicators --data``. Both run in process, so an escaping
exception fails the test with its traceback. ``--hypothesis-profile ci``
(tests/conftest.py) runs each case at 2,000 examples.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit.cli import main
from causalcrit.fixtures import FIXTURE_IDS, fixture_text

EXIT_CODES = (0, 1, 2)

# Wrong types, non-finite numbers and an integer past the range of a double,
# which json.dumps writes out digit by digit.
REPLACEMENTS = [
    None, True, 0, 3, -1, 2.7, "s", "1.5", "", [], {}, [[1]], {"ref": "a.b"},
    math.nan, math.inf, -math.inf, 10**400,
]


def _paths(node, path=()):
    """Every (key or index) path into a JSON document, parents first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = {fid: list(_paths(json.loads(fixture_text(fid)))) for fid in FIXTURE_IDS}


@st.composite
def mutated_models(draw):
    fid = draw(st.sampled_from(FIXTURE_IDS))
    doc = json.loads(fixture_text(fid))
    *head, last = draw(st.sampled_from(PATHS[fid]))
    parent = doc
    for key in head:
        parent = parent[key]
    kind = draw(st.sampled_from(["replace", "delete", "wrap", "unwrap"]))
    if kind == "delete":
        del parent[last]
    elif kind == "wrap":
        parent[last] = [parent[last]]
    elif kind == "unwrap" and isinstance(parent[last], (list, dict)) and parent[last]:
        inner = parent[last]
        parent[last] = inner[0] if isinstance(inner, list) else next(iter(inner.values()))
    else:
        parent[last] = draw(st.sampled_from(REPLACEMENTS))
    return json.dumps(doc)


def _run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutation")


@settings(deadline=None)
@given(text=mutated_models(), as_reference=st.booleans())
def test_mutated_model_file_exits_cleanly(workdir, text, as_reference):
    path = workdir / "mutant.json"
    path.write_text(text, encoding="utf-8")
    pair = [str(path), "heavy-rain-model"] if as_reference else ["heavy-rain-reality", str(path)]
    for argv in (
        ["validate", str(path)],
        ["effect", str(path), "--do", "X=CP", "--target", "phi"],
        ["indicators", *pair, "--set", "V1,V2,X"],
        ["sp", str(path), "--sp", "V2=Slow"],
    ):
        assert _run(*argv) in EXIT_CODES, argv


# x = 20 t, y = 0 for t in [0, 1]; the one 40 m cell covers x in [0, 20].
TRAJECTORY = "".join(f"{k / 10} {2.0 * k} 0.0\n" for k in range(11)).encode()
FIELD = b"1 1 0.0 0.0 40.0 1.0\n-8.0 5.0\n"
SNIPPETS = [b"-", b".", b"e", b"nan", b"inf", b"1e999", b"1e308", b"1e-308", b"-1", b" ", b"\t", b"\n", b",", b"x", b"0", b"\xff", b"\xc3"]


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """One to three edits: a snippet spliced in at a byte offset over up to
    three bytes, a whitespace- or comma-separated token swapped for a
    snippet, or a token negated."""
    for _ in range(draw(st.integers(1, 3))):
        tokens = [m.span() for m in re.finditer(rb"[^\s,]+", data)]
        edit = draw(st.sampled_from(["splice", "swap", "negate"] if tokens else ["splice"]))
        if edit == "splice":
            start = draw(st.integers(0, len(data)))
            end = start + draw(st.integers(0, 3))
        else:
            start, end = draw(st.sampled_from(tokens))
        new = b"-" + data[start:end] if edit == "negate" else draw(st.sampled_from([b""] + SNIPPETS))
        data = data[:start] + new + data[end:]
    return data


@pytest.fixture(scope="module")
def datasets(workdir):
    out = {}
    for fid in ("heavy-rain-reality", "heavy-rain-model"):
        path = workdir / f"{fid}.csv"
        assert _run("sample", fid, "-n", "30", "--seed", "3", "-o", str(path)) == 0
        out[fid] = path.read_bytes()
    return out


@settings(deadline=None)
@given(data=st.data(), target=st.sampled_from(["trajectory", "field", "reference", "candidate"]))
def test_damaged_data_files_exit_cleanly(workdir, datasets, data, target):
    files = {
        "trajectory": TRAJECTORY,
        "field": FIELD,
        "reference": datasets["heavy-rain-reality"],
        "candidate": datasets["heavy-rain-model"],
    }
    files[target] = data.draw(damaged(files[target]), label=target)
    paths = {}
    for name, content in files.items():
        paths[name] = workdir / f"damaged-{name}"
        paths[name].write_bytes(content)
    if target in ("trajectory", "field"):
        argv = ["metrics", "--trajectories", str(paths["trajectory"]), "--field", str(paths["field"])]
    else:
        argv = ["indicators", "heavy-rain-reality", "heavy-rain-model",
                "--data", str(paths["reference"]), str(paths["candidate"])]
    assert _run(*argv) in EXIT_CODES, argv
