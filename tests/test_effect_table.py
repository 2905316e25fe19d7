"""One effect table per (model, intervened node, target).

``engine.effect_table`` returns P(target | do(x = l)) for every label l of x
as one table. Each row must equal the brute-force truncated joint of the
full model on every route that answers, and a route that refuses must raise
the error that an independent reading of the graph and the CPDs predicts.
``cli indicators`` must read ACE, RCE and sigma of each model from one such
table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit import engine, indicators, model
from causalcrit.cli import main
from causalcrit.context import PhenomenonBinding
from causalcrit.engine import effect_table, make_intervention, plan_effect
from causalcrit.errors import (
    CausalCritError,
    InsufficientInstantiation,
    NotAdmissible,
    NotMarkovian,
    ParentsNotInstantiated,
)
from causalcrit.graph import build_structure, descendants
from causalcrit.indicators import ace, effect_indicators, rce, sigma
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

    for target in nodes:
        rows = [brute_truncated(full, {x: label}, target) for label in ("a", "b")]
        routes = [("truncated", None), ("parents", None)]
        if target != x:
            routes.append(("backdoor", sorted(adjustment - {target})))
        for route, adj in routes:
            error = expected_error(m, x, target, route, adj)
            if error is not None:
                with pytest.raises(error):
                    effect_table(m, x, target, route, adj)
                continue
            label, table = effect_table(m, x, target, route, adj)
            assert label.startswith(route)
            assert table.tolist() == [
                pytest.approx([r["a"], r["b"]], abs=1e-12) for r in rows
            ]

        do_both = [make_intervention({x: label}) for label in ("a", "b")]
        try:
            label, table = effect_table(m, x, target)
        except CausalCritError as exc:
            with pytest.raises(type(exc)):
                plan_effect(m, do_both, target)
            continue
        assert label.split(":")[0] in (
            "truncated", "parents", "backdoor", "point-mass", "observational"
        )
        if label == "point-mass":
            assert target == x
        if label == "observational":
            assert target not in descendants(m.structure, x) | {x}
        assert table.tolist() == [pytest.approx([r["a"], r["b"]], abs=1e-12) for r in rows]
        assert plan_effect(m, do_both, target) == (
            label, [dict(zip(("a", "b"), row)) for row in table.tolist()]
        )


def test_regime_axis_slices_equal_clamped_joints(reality_model):
    names, table = model.joint_table(reality_model, over=["phi"], regime=["X"])
    assert names == ("X", "phi")
    for k in range(2):
        _, clamped = model.joint_table(reality_model, over=["phi"], do={"X": k})
        assert table[k].tolist() == pytest.approx(clamped.tolist(), abs=1e-15)


def test_rows_follow_the_requested_labels(candidate_model):
    labels = ["notCP", "CP", "notCP"]
    _, table = effect_table(candidate_model, "X", "phi")
    _, picked = effect_table(candidate_model, "X", "phi", labels=labels)
    domain = candidate_model.specs["X"].domain
    assert picked.tolist() == [table[domain.index(label)].tolist() for label in labels]


def test_indicators_build_one_effect_table_per_model(monkeypatch):
    # Each model's ACE, RCE and sigma read one regime-axis table; computing
    # the do(CP)/do(notCP) pair once per indicator would show here.
    calls = {"regime": 0, "truncated": 0}
    joint_table, truncated = model.joint_table, engine.interventional_truncated

    def counting_joint_table(*args, **kwargs):
        calls["regime"] += bool(kwargs.get("regime"))
        return joint_table(*args, **kwargs)

    def counting_truncated(*args, **kwargs):
        calls["truncated"] += 1
        return truncated(*args, **kwargs)

    for module in (model, engine, indicators):
        monkeypatch.setattr(module, "joint_table", counting_joint_table)
    monkeypatch.setattr(engine, "interventional_truncated", counting_truncated)
    argv = ["indicators", "heavy-rain-reality", "heavy-rain-model", "--set", "V1,V2,X"]
    assert main([*argv, "--format", "json"]) == 0
    assert calls == {"regime": 2, "truncated": 0}


@pytest.mark.parametrize("fixture_model", ["reality_model", "candidate_model"])
def test_effect_indicators_equal_the_three_wrappers(fixture_model, request):
    m = request.getfixturevalue(fixture_model)
    cp = PhenomenonBinding(variable="X", cp_label="CP")
    together = [r.as_dict() for r in effect_indicators(m, cp, "phi")]
    assert together == [fn(m, cp, "phi").as_dict() for fn in (ace, rce, sigma)]
