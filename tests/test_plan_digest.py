"""The planner's output on a seeded corpus of queries, pinned by digest.

``model._plan`` decides every elimination that ``model.joint_tables``
replays. This test plans 2,000 queries drawn from ``random.Random(11)`` and
pins the SHA-256 of every plan's fields, so a change to the planner that
changes any plan shows here, even where the numbers it computes stay within
tolerance. A change that alters plans on purpose updates ``PLANS_SHA256``
and says why in CHANGES.md.

Each query is a DAG of 2-14 nodes, each with up to 3 parents among the
nodes before it and 1-3 labels; node names are drawn apart from that order,
so name order and topological order differ. It asks for 1-4 scopes of 1-3
nodes and, on about a third of the queries, sets 1-2 nodes on 1-3 do()
rows. Plans depend only on the structure, the cardinalities and the scopes,
so every CPD is uniform. The digest is also computed in two subprocesses,
under PYTHONHASHSEED 1 and 3, so no plan may depend on the order in which
a set of names is iterated.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from causalcrit import model
from causalcrit.graph import build_structure
from causalcrit.model import VariableSpec, build_model, make_cpd

QUERIES = 2000
PLANS_SHA256 = "2605be955d6f274a7fc199043e44d95f50473fd6d52dbc1da56cf955148a25cd"


def _corpus(rng: random.Random):
    """(model, sorted scopes, do() row count per intervened node) per query."""
    for _ in range(QUERIES):
        n = rng.randint(2, 14)
        names = [f"V{k}" for k in rng.sample(range(100), n)]
        cards = [rng.randint(1, 3) for _ in names]
        edges = [
            (names[i], names[j])
            for j in range(1, n)
            for i in sorted(rng.sample(range(j), rng.randint(0, min(3, j))))
        ]
        specs = {
            name: VariableSpec(name=name, domain=tuple(f"c{k}" for k in range(card)), codes=(0.0,) * card)
            for name, card in zip(names, cards)
        }
        s = build_structure(names, edges)
        cpds = []
        for name, card in zip(names, cards):
            parents = tuple(sorted(s.parents(name)))
            rows = math.prod(specs[p].cardinality for p in parents)
            cpds.append(make_cpd(name, parents, [[1 / card] * card] * rows, specs))
        scopes = [tuple(sorted(rng.sample(names, rng.randint(1, min(3, n))))) for _ in range(rng.randint(1, 4))]
        do = {}
        if rng.random() < 1 / 3:
            n_rows = rng.randint(1, 3)
            do = {d: n_rows for d in sorted(rng.sample(names, rng.randint(1, 2)))}
        yield build_model(s, specs, cpds), tuple(dict.fromkeys(scopes)), do


def _digest() -> str:
    digest = hashlib.sha256()
    for m, scopes, do in _corpus(random.Random(11)):
        digest.update(repr(tuple(model._plan(m, scopes, do))).encode())
    return digest.hexdigest()


def test_every_plan_of_the_seeded_corpus_is_pinned():
    assert _digest() == PLANS_SHA256


def test_the_digest_does_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", "import test_plan_digest; print(test_plan_digest._digest())"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", PLANS_SHA256 + "\n"), seed
