"""One closure check per ask: a model with a CPD for every node skips the walk.

``model._check_closure`` is the check that every step's ask and every causal
influence cut makes. On a model with a CPD for every node it checks only the
names; otherwise it walks the ancestral closure. Either way it must raise
what the walk raises, in the step that makes the ask, so every entry point
keeps its error type, its message and its fallbacks.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalcrit import model
from causalcrit.engine import plan_effect
from causalcrit.errors import (
    CausalCritError,
    InsufficientInstantiation,
    InvalidQuery,
    ParentsNotInstantiated,
    UnknownNode,
)
from causalcrit.graph import build_structure
from causalcrit.indicators import causal_influence
from causalcrit.model import build_model, joint_tables

from oracles import brute_missing_cpds
from test_model import random_models

# Names that no random model declares.
UNKNOWN = ("ghost", "phantom")


def outcome(call, *args):
    """The error ``call`` raises, as (type, message), or None."""
    try:
        call(*args)
    except CausalCritError as exc:
        return type(exc), str(exc)


def without(m, gone):
    """``m`` with the CPDs of the nodes ``gone`` removed."""
    return build_model(m.structure, m.specs, [c for n, c in m.cpds.items() if n not in gone])


def frames(excinfo):
    return [entry.name for entry in excinfo.traceback]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_raises_what_the_walk_raises(data):
    full = data.draw(random_models())
    nodes = sorted(full.instantiated)
    m = without(full, data.draw(st.sets(st.sampled_from(nodes), max_size=1)))
    over = data.draw(st.sets(st.sampled_from([*nodes, *UNKNOWN]), min_size=1))
    clamped = data.draw(st.sets(st.sampled_from([*nodes, *UNKNOWN]), max_size=2))
    expected = outcome(model._closure_within, m, over, clamped)
    assert outcome(model._check_closure, m, over, clamped) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_unknown_name_on_a_full_model(data):
    m = data.draw(random_models())
    nodes = sorted(m.instantiated)
    known = data.draw(st.sets(st.sampled_from(nodes)))
    node = data.draw(st.sampled_from(nodes))
    unknown = "unknown node 'ghost'"
    assert outcome(model._ask, m, [[*known, "ghost"]]) == (UnknownNode, unknown)
    assert outcome(joint_tables, m, [[*known, "ghost"]]) == (UnknownNode, unknown)
    assert outcome(plan_effect, m, {node: ["c0"]}, "ghost") == (UnknownNode, unknown)
    assert outcome(plan_effect, m, {"ghost": ["c0"]}, node) == (UnknownNode, unknown)
    # An edge names its nodes, so one with an unknown end is not in the structure.
    refused = f"edge {('ghost', node)!r} is not in the structure"
    assert outcome(causal_influence, m, [("ghost", node)]) == (InvalidQuery, refused)


_FIRST_UNKNOWN = """
from causalcrit import fixtures, model
from causalcrit.errors import UnknownNode

m = fixtures.fixture("heavy-rain-reality")[1]
partial = model.build_model(m.structure, m.specs, [c for n, c in m.cpds.items() if n != "V1"])
for call in (model.joint_tables, model._ask):
    for one in (m, partial):
        try:
            call(one, [["nope_c", "X", "nope_a", "nope_b"]])
        except UnknownNode as exc:
            print(exc)
"""


def test_the_unknown_name_reported_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    printed = set()
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", _FIRST_UNKNOWN], env=env, capture_output=True, text=True, timeout=300
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        printed.add(proc.stdout)
    # joint_tables and _ask, each on a model with every CPD and on one without.
    assert printed == {"unknown node 'nope_a'\n" * 4}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_missing_cpd_is_named_by_the_step_that_asks(data):
    full = data.draw(random_models(min_nodes=2))
    nodes = sorted(full.instantiated)
    gone = data.draw(st.sampled_from(nodes))
    m = without(full, {gone})
    x, target = data.draw(st.permutations(nodes))[:2]

    def need(over, clamped=()):
        missing = brute_missing_cpds(m, over, clamped)
        return missing and f"need CPDs for {missing} to enumerate over {sorted(set(over))}"

    message = need([target])
    if message:
        with pytest.raises(InsufficientInstantiation, match=f"^{re.escape(message)}$") as excinfo:
            joint_tables(m, [[target]])
        assert "_closure_within" in frames(excinfo)
    else:
        joint_tables(m, [[target]])

    message = need([target], [x])
    if message:
        with pytest.raises(InsufficientInstantiation, match=f"^{re.escape(message)}$") as excinfo:
            plan_effect(m, {x: ["c0"]}, target, route="truncated")
        # The route step's ask raises it, before the round reaches joint_tables.
        assert "_ask" in frames(excinfo) and "joint_tables" not in frames(excinfo)
    else:
        plan_effect(m, {x: ["c0"]}, target, route="truncated")

    edges = sorted(m.structure.directed)
    if edges:
        a, b = data.draw(st.sampled_from(edges))
        message = need([b])
        if message:
            with pytest.raises(InsufficientInstantiation, match=f"^{re.escape(message)}$") as excinfo:
                causal_influence(m, [(a, b)])
            assert "_cut_parents" in frames(excinfo) and "joint_tables" not in frames(excinfo)
        else:
            causal_influence(m, [(a, b)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_auto_falls_back_past_parents(data):
    full = data.draw(random_models(min_nodes=3))
    nodes = sorted(full.instantiated)
    x = data.draw(st.sampled_from(nodes))
    parents = sorted(full.structure.parents(x))
    assume(parents)
    # A confounding arc away from x: the auto rule tries parent adjustment.
    others = [n for n in nodes if n != x]
    arc = data.draw(st.permutations(others))[:2]
    structure = build_structure(nodes, full.structure.directed, [arc])
    confounded = build_model(structure, full.specs, full.cpds.values())
    target = data.draw(st.sampled_from(others))
    do = {x: ["c0"]}
    assert plan_effect(confounded, do, target)[0] == "parents"
    m = without(confounded, {data.draw(st.sampled_from(parents))})
    with pytest.raises(ParentsNotInstantiated, match="^need CPDs for "):
        plan_effect(m, do, target, route="parents")
    try:
        route, _ = plan_effect(m, do, target)
    except CausalCritError as exc:
        assert not isinstance(exc, ParentsNotInstantiated)
    else:
        assert route != "parents"
