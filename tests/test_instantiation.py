"""One instantiation rule: a query needs only the CPDs of its own ancestral closure.

Whether a query on a partially instantiated model answers or raises
:class:`InsufficientInstantiation` is decided here by
``oracles.brute_missing_cpds``, a reachability walk written apart from the
library's closure code. When it answers, it must agree with the brute-force
oracles on the full model.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit.cli import main
from causalcrit.context import PhenomenonBinding
from causalcrit.engine import plan_effect
from causalcrit.errors import InsufficientInstantiation, NotMarkovian
from causalcrit.fixtures import fixture, fixture_text
from causalcrit.graph import build_structure
from causalcrit.indicators import ModelPair, ace, causal_influence, rho3
from causalcrit.io import parse_model_text
from causalcrit.model import (
    VariableSpec,
    build_model,
    joint_table,
    make_cpd,
    sample,
)

from oracles import (
    brute_causal_influence,
    brute_joint,
    brute_marginal,
    brute_missing_cpds,
    brute_truncated,
)
from test_engine import random_binary_model

CP = PhenomenonBinding(variable="X", cp_label="CP")


def check(missing, compute, oracle):
    """The query raises naming exactly ``missing``, or, with none missing,
    matches the oracle to 1e-12."""
    if missing:
        with pytest.raises(InsufficientInstantiation, match=re.escape(str(missing))):
            compute()
    else:
        assert compute() == pytest.approx(oracle(), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_each_query_needs_only_its_closure(data):
    full = random_binary_model(data.draw(st.randoms(use_true_random=False)), max_nodes=8)
    nodes = sorted(full.instantiated)
    removed = data.draw(st.sets(st.sampled_from(nodes), max_size=3))
    latent = data.draw(st.sets(st.sampled_from(nodes), max_size=2))
    m = build_model(
        build_structure(nodes, full.structure.directed, latent=latent),
        full.specs,
        [c for n, c in full.cpds.items() if n not in removed],
    )
    names, joint = brute_joint(full)
    target = data.draw(st.sampled_from(nodes))

    check(
        brute_missing_cpds(m, [target]),
        lambda: plan_effect(m, {}, target)[1][0],
        lambda: {k[0]: p for k, p in brute_marginal(names, joint, [target]).items()},
    )

    do_nodes = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True))
    do = {n: data.draw(st.sampled_from(("a", "b"))) for n in do_nodes}
    rows = {n: [label] for n, label in do.items()}
    missing = brute_missing_cpds(m, [target], clamped=do)
    check(
        missing,
        lambda: plan_effect(m, rows, target, "truncated")[1][0],
        lambda: brute_truncated(full, do, target),
    )
    # On a Markovian model auto always answers through the truncated route.
    check(
        missing,
        lambda: plan_effect(m, rows, target)[1][0],
        lambda: brute_truncated(full, do, target),
    )
    if not missing:
        assert plan_effect(m, rows, target)[0] == "truncated"

    inst = sorted(m.instantiated)
    values = data.draw(st.sampled_from(sorted(joint)))
    assignment = {n: values[names.index(n)] for n in inst}
    check(
        brute_missing_cpds(m, inst),
        lambda: joint_table(m)[1][tuple(m.specs[n].index_of(assignment[n]) for n in inst)],
        lambda: brute_marginal(names, joint, inst)[tuple(assignment[n] for n in inst)],
    )

    # A sample row assigns every observed node.
    observed = sorted(set(nodes) - latent)
    check(
        brute_missing_cpds(m, observed),
        lambda: sample(m, 3, seed=0).columns,
        lambda: tuple(observed),
    )

    directed = sorted(full.structure.directed)
    edges = sorted(data.draw(st.sets(st.sampled_from(directed), max_size=3))) if directed else []
    check(
        brute_missing_cpds(m, {b for _, b in edges}),
        lambda: causal_influence(m, edges),
        lambda: brute_causal_influence(full, edges),
    )


def friction_variant(drop=()):
    """The friction relation with seeded Dirichlet CPDs on all 41 nodes and the
    latent flags dropped; the CPDs of ``drop`` are left out."""
    relation, shipped = fixture("friction-relation")
    s = build_structure(shipped.structure.nodes, shipped.structure.directed)
    specs = shipped.specs
    rng = np.random.default_rng(7)
    cpds = []
    for n in s.nodes:
        parents = tuple(sorted(s.parents(n)))
        rows = math.prod(specs[p].cardinality for p in parents)
        table = rng.dirichlet(np.ones(specs[n].cardinality), size=rows)
        if n not in drop:
            cpds.append(make_cpd(n, parents, table, specs))
    return relation, build_model(s, specs, cpds)


def test_friction_relation_without_a_root_cpd():
    relation, full = friction_variant()
    _, partial = friction_variant(drop={"Weather"})
    assert partial.instantiated == full.instantiated - {"Weather"}
    (tire,) = plan_effect(partial, {}, "Tire type")[1]
    assert tire == pytest.approx(plan_effect(full, {}, "Tire type")[1][0], abs=1e-12)
    with pytest.raises(InsufficientInstantiation, match=re.escape("['Weather']")):
        plan_effect(partial, {}, "Weather")
    do = {relation.phenomenon.variable: ["reduced"]}
    route, (dist,) = plan_effect(partial, do, "Max. req. long. dec.")
    assert route == "truncated"
    assert dist == pytest.approx(
        plan_effect(full, do, "Max. req. long. dec.")[1][0], abs=1e-12
    )
    assert ace(partial, relation.phenomenon, relation.metric).value == pytest.approx(
        ace(full, relation.phenomenon, relation.metric).value, abs=1e-12
    )


def test_sample_names_a_latent_parent():
    # Every observed node carries a CPD, but A's CPD conditions on the latent
    # L, so A cannot be drawn.
    specs = {n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0)) for n in "AL"}
    s = build_structure(["A", "L"], [("L", "A")], latent=["L"])
    m = build_model(s, specs, [make_cpd("A", ("L",), [[0.9, 0.1], [0.1, 0.9]], specs)])
    assert m.instantiated == {"A"}
    with pytest.raises(InsufficientInstantiation, match=re.escape("['L']")):
        sample(m, 10, seed=0)


def latent_child_payload():
    """The heavy-rain reality with a latent child L of phi that has no CPD."""
    payload = json.loads(fixture_text("heavy-rain-reality"))
    payload["variables"].append(
        {"codes": [0, 1], "domain": ["a", "b"], "latent": True, "name": "L",
         "range": "{a, b}", "unit": "category"}
    )
    payload["edges"].append(["phi", "L"])
    return payload


class TestLatentChild:
    def test_causal_influence_names_the_child(self, reality_model):
        _, m = parse_model_text(json.dumps(latent_child_payload()))
        assert m.instantiated == reality_model.instantiated
        with pytest.raises(InsufficientInstantiation, match=re.escape("['L']")):
            causal_influence(m, [("phi", "L")])
        assert causal_influence(m, [("V2", "phi")]) == causal_influence(
            reality_model, [("V2", "phi")]
        )

    def test_rho3_over_the_parent(self):
        _, m = parse_model_text(json.dumps(latent_child_payload()))
        with pytest.raises(InsufficientInstantiation, match=re.escape("['L']")):
            rho3(ModelPair(reference=m, candidate=m), ["V2", "phi"], CP)

    def test_rho3_raises_the_first_error_in_node_order(self):
        # Both models' cuts at V1 are checked before the reference's at phi:
        # the candidate is not Markovian, and the reference's cut at phi
        # needs the CPD that L lacks.
        _, ref = parse_model_text(json.dumps(latent_child_payload()))
        payload = json.loads(fixture_text("heavy-rain-model"))
        payload["bidirected"].append(["V1", "V2"])
        _, cand = parse_model_text(json.dumps(payload))
        with pytest.raises(NotMarkovian):
            rho3(ModelPair(reference=ref, candidate=cand), ["V1", "phi"], CP)

    def test_cli_indicators_exits_one(self, capsys, tmp_path):
        path = tmp_path / "latent_child.json"
        path.write_text(json.dumps(latent_child_payload()), encoding="utf-8")
        code = main(["indicators", str(path), str(path), "--set", "V2,phi"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("InsufficientInstantiation:") and "['L']" in err
