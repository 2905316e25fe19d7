import itertools

import pytest
from hypothesis import settings

from causalcrit.fixtures import FRICTION_MEASURABLE_POOL, fixture
from causalcrit.graph import build_structure, d_separated

from oracles import brute_reachable

# `pytest --hypothesis-profile ci` runs every property test that does not fix
# its own example count at 2,000 examples (tests/test_mutation.py).
settings.register_profile("ci", max_examples=2000)


@pytest.fixture(scope="session")
def heavy_rain_reality():
    return fixture("heavy-rain-reality")


@pytest.fixture(scope="session")
def heavy_rain_model():
    return fixture("heavy-rain-model")


@pytest.fixture(scope="session")
def friction_relation():
    return fixture("friction-relation")


@pytest.fixture(scope="session")
def reality_model(heavy_rain_reality):
    return heavy_rain_reality[1]


@pytest.fixture(scope="session")
def candidate_model(heavy_rain_model):
    return heavy_rain_model[1]


@pytest.fixture(scope="session")
def friction_scan(friction_relation):
    """What ``adjust`` must list for the friction relation over the whole
    measurable pool, found without the back-door check: the subsets, in
    (size, names) order, that hold no latent node, x, y or descendant of x
    and d-separate x from y once x's out-edges are removed, then pa(x)."""
    relation, model = friction_relation
    s, x, y = model.structure, relation.phenomenon.variable, relation.metric
    pruned = build_structure(
        s.nodes, [(a, b) for a, b in s.directed if a != x], latent=s.latent
    )
    banned = brute_reachable(s.directed, x) | {x, y} | s.latent
    pool = sorted(set(FRICTION_MEASURABLE_POOL) - banned)
    sets = [
        frozenset(adj)
        for size in range(len(pool) + 1)
        for adj in itertools.combinations(pool, size)
        if d_separated(pruned, {x}, {y}, adj).separated
    ]
    parents = frozenset(a for a, b in s.directed if b == x)
    return sets + [parents] if parents not in sets else sets
