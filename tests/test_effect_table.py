"""One effect table per (model, intervened node, target).

``engine.plan_effect`` with one do() row per label l of x returns
P(target | do(x = l)) for every label as rows of one computation. Each row
must equal the brute-force truncated joint of the full model on every route
that answers, and a route that refuses must raise the error that an
independent reading of the graph and the CPDs predicts. Rows that set
several nodes each are rows of one computation too, and each row must equal
its own brute-force truncated joint. ``cli indicators`` must read ACE, RCE and sigma
of each model from one such table.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit import engine, indicators, model
from causalcrit.cli import main
from causalcrit.engine import plan_effect
from causalcrit.errors import (
    CausalCritError,
    InsufficientInstantiation,
    InvalidQuery,
    NotAdmissible,
    NotMarkovian,
    ParentsNotInstantiated,
)
from causalcrit.graph import build_structure, descendants
from causalcrit.model import build_model

from oracles import brute_backdoor_admissible, brute_missing_cpds, brute_truncated
from test_engine import random_binary_model


def expected_error(m, x, target, route, adjustment):
    """The error ``route`` must raise for P(target | do(x)), or None."""
    confounded = {n for arc in m.structure.bidirected for n in arc}
    if route == "truncated":
        if confounded:
            return NotMarkovian
        return InsufficientInstantiation if brute_missing_cpds(m, [target], [x]) else None
    if route == "parents":
        if x in confounded:
            return NotMarkovian
        if target == x:
            return None
        needed = [x, target, *m.structure.parents(x)]
        return ParentsNotInstantiated if brute_missing_cpds(m, needed) else None
    if not brute_backdoor_admissible(m.structure, adjustment, x, target):
        return NotAdmissible
    needed = [x, target, *adjustment]
    return InsufficientInstantiation if brute_missing_cpds(m, needed) else None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rows_match_brute_force_on_every_route(data):
    # The full model's CPD product is Markov to the graph without the
    # confounding arcs, so every route that the arcs leave open identifies
    # the effect under that product.
    full = random_binary_model(data.draw(st.randoms(use_true_random=False)), max_nodes=8)
    nodes = sorted(full.instantiated)
    x = data.draw(st.sampled_from(nodes))
    removed = data.draw(st.sets(st.sampled_from(nodes), max_size=3))
    pairs = [(a, b) for a in nodes for b in nodes if a < b]
    arcs = data.draw(st.lists(st.sampled_from(pairs), max_size=2))
    if data.draw(st.booleans()):
        arcs.append((x, data.draw(st.sampled_from([n for n in nodes if n != x]))))
    m = build_model(
        build_structure(nodes, full.structure.directed, bidirected=arcs),
        full.specs,
        [c for n, c in full.cpds.items() if n not in removed],
    )
    pool = [n for n in nodes if n != x and n not in descendants(m.structure, x)]
    adjustment = data.draw(st.sets(st.sampled_from(pool), max_size=3)) if pool else set()

    do_both = {x: ["a", "b"]}
    for target in nodes:
        rows = [
            pytest.approx(brute_truncated(full, {x: label}, target), abs=1e-12)
            for label in ("a", "b")
        ]
        routes = [
            ("truncated", None),
            ("parents", None),
            ("backdoor", sorted(adjustment - {target})),
        ]
        for route, adj in routes:
            error = expected_error(m, x, target, route, adj)
            if error is not None:
                with pytest.raises(error):
                    plan_effect(m, do_both, target, route, adj)
                continue
            label, dists = plan_effect(m, do_both, target, route, adj)
            assert label.startswith(route)
            assert dists == rows

        try:
            label, dists = plan_effect(m, do_both, target)
        except CausalCritError:
            continue
        assert label.split(":")[0] in (
            "truncated", "parents", "backdoor", "point-mass", "observational"
        )
        if label == "point-mass":
            assert target == x
        if label == "observational":
            assert target not in descendants(m.structure, x) | {x}
        assert dists == rows


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_do_rows_match_brute_force(data):
    # Every row sets the same nodes; the rows may repeat and the target may
    # be one of the intervened nodes.
    full = random_binary_model(data.draw(st.randoms(use_true_random=False)), max_nodes=8)
    nodes = sorted(full.instantiated)
    removed = data.draw(st.sets(st.sampled_from(nodes), max_size=2))
    m = build_model(
        full.structure, full.specs, [c for n, c in full.cpds.items() if n not in removed]
    )
    xs = sorted(data.draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=3)))
    dos = data.draw(
        st.lists(
            st.fixed_dictionaries({x: st.sampled_from(("a", "b")) for x in xs}),
            min_size=1,
            max_size=4,
        )
    )
    target = data.draw(st.sampled_from(nodes))
    rows = {x: [do[x] for do in dos] for x in xs}
    # A label list that is empty, or one label longer than the others.
    other = data.draw(st.sampled_from(nodes))
    for bad in ({**rows, other: []}, {**rows, other: ["a"] * (len(dos) + 1)}):
        if len(bad) > 1 or not bad[other]:
            with pytest.raises(InvalidQuery, match="one label per row"):
                plan_effect(m, bad, target)
    missing = brute_missing_cpds(m, [target], xs)
    if missing:
        with pytest.raises(InsufficientInstantiation, match=re.escape(str(missing))):
            plan_effect(m, rows, target)
        return
    route, dists = plan_effect(m, rows, target)
    assert route == "truncated"
    assert dists == [
        pytest.approx(brute_truncated(full, do, target), abs=1e-12) for do in dos
    ]
    # A k-row query is k one-row queries.
    for do, dist in zip(dos, dists):
        alone = plan_effect(m, {x: [do[x]] for x in xs}, target)
        assert alone == (route, [pytest.approx(dist, abs=1e-12)])


def test_regime_axis_slices_equal_clamped_joints(reality_model):
    # Each row of an n-row do() joint equals the one-row joint of its own
    # do(): X is a point mass in its row, V1 lies upstream of every
    # intervened node.
    do = {"X": [1, 0, 1, 1], "V2": [0, 0, 1, 0]}
    names, table = model.joint_table(reality_model, over=["phi", "X", "V1"], do=do)
    assert names == ("V1", "X", "phi") and table.shape == (4, 2, 2, 2)
    for r in range(4):
        _, one = model.joint_table(
            reality_model, over=["phi", "X", "V1"], do={n: [v[r]] for n, v in do.items()}
        )
        assert one.shape == (1, 2, 2, 2)
        assert np.abs(table[r] - one[0]).max() <= 1e-15
        assert table[r].sum(axis=(0, 2)).tolist() == [1 - do["X"][r], do["X"][r]]


def test_rows_follow_the_requested_labels(candidate_model):
    labels = ["notCP", "CP", "notCP"]
    domain = candidate_model.specs["X"].domain
    _, table = plan_effect(candidate_model, {"X": list(domain)}, "phi")
    _, picked = plan_effect(candidate_model, {"X": labels}, "phi")
    assert picked == [table[domain.index(label)] for label in labels]


def test_indicators_build_one_effect_table_per_model(monkeypatch):
    # Each model's ACE, RCE and sigma read one table of do() rows; computing
    # the do(CP)/do(notCP) pair once per indicator would show here.
    calls = {"do rows": 0, "plan_effect": 0}
    joint_table, planner = model.joint_table, indicators.plan_effect

    def counting_joint_table(*args, **kwargs):
        calls["do rows"] += bool(kwargs.get("do"))
        return joint_table(*args, **kwargs)

    def counting_planner(*args, **kwargs):
        calls["plan_effect"] += 1
        return planner(*args, **kwargs)

    for module in (model, engine):
        monkeypatch.setattr(module, "joint_table", counting_joint_table)
    monkeypatch.setattr(indicators, "plan_effect", counting_planner)
    argv = ["indicators", "heavy-rain-reality", "heavy-rain-model", "--set", "V1,V2,X"]
    assert main([*argv, "--format", "json"]) == 0
    assert calls == {"do rows": 2, "plan_effect": 2}
