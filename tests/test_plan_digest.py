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
so every CPD is uniform.
"""

import hashlib
import math
import random

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


def test_every_plan_of_the_seeded_corpus_is_pinned():
    digest = hashlib.sha256()
    for m, scopes, do in _corpus(random.Random(11)):
        digest.update(repr(tuple(model._plan(m, scopes, do))).encode())
    assert digest.hexdigest() == PLANS_SHA256
