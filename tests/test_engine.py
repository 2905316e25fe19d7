import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit.context import PhenomenonBinding
from causalcrit.engine import (
    SafetyPrinciple,
    evaluate_safety_principle,
    expectation,
    plan_effect,
)
from causalcrit.errors import (
    CausalCritError,
    InsufficientInstantiation,
    InvalidQuery,
    NotAdmissible,
    NotIdentifiable,
    NotMarkovian,
    ParentsNotInstantiated,
    StateSpaceExceeded,
    UnknownCategory,
    ZeroProbabilityCondition,
)
from causalcrit.graph import (
    backdoor_admissible,
    build_structure,
    d_separated,
    descendants,
    enumerate_adjustment_sets,
    open_backdoor_path,
)
from causalcrit.indicators import ModelPair, indicator_reports, rho2, rho3
from causalcrit import model
from causalcrit.io import load_model
from causalcrit.model import (
    Dataset,
    VariableSpec,
    build_model,
    estimate_cpds,
    joint_tables,
    make_cpd,
)

from oracles import (
    brute_backdoor_admissible,
    brute_conditional,
    brute_missing_cpds,
    brute_open_paths,
    brute_truncated,
)


# Each call passes the bare string "V1" as the named argument, which takes a
# collection of node names.
_BARE_STRING_CALLS = {
    "d_separated x": ("x", lambda m, pair, cp: d_separated(m.structure, "V1", {"phi"})),
    "d_separated y": ("y", lambda m, pair, cp: d_separated(m.structure, {"phi"}, "V1")),
    "d_separated z": ("z", lambda m, pair, cp: d_separated(m.structure, {"X"}, {"phi"}, "V1")),
    "backdoor_admissible": ("adjustment", lambda m, pair, cp: backdoor_admissible(m.structure, "V1", "X", "phi")),
    "open_backdoor_path": ("adjustment", lambda m, pair, cp: open_backdoor_path(m.structure, "V1", "X", "phi")),
    "enumerate_adjustment_sets": (
        "candidates",
        lambda m, pair, cp: enumerate_adjustment_sets(m.structure, "X", "phi", 8, candidates="V1"),
    ),
    "plan_effect": ("adjustment", lambda m, pair, cp: plan_effect(m, {"X": ["CP"]}, "phi", "backdoor", "V1")),
    "rho2": ("nodes", lambda m, pair, cp: rho2(pair, "V1")),
    "rho3": ("nodes", lambda m, pair, cp: rho3(pair, "V1", cp)),
    "indicator_reports": ("nodes", lambda m, pair, cp: indicator_reports(pair, cp, "phi", nodes="V1")),
}


@pytest.mark.parametrize("call", sorted(_BARE_STRING_CALLS))
def test_a_bare_string_for_node_names_is_refused(call, reality_model, candidate_model):
    argument, invoke = _BARE_STRING_CALLS[call]
    pair = ModelPair(reference=reality_model, candidate=candidate_model)
    cp = PhenomenonBinding(variable="X", cp_label="CP")
    message = f"{argument} needs a collection of node names, got 'V1'"
    with pytest.raises(InvalidQuery, match=f"^{re.escape(message)}$"):
        invoke(candidate_model, pair, cp)


def random_binary_model(rng, max_nodes=5):
    n = rng.randint(2, max_nodes)
    names = [f"N{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    s = build_structure(names, edges)
    specs = {
        name: VariableSpec(name=name, domain=("a", "b"), codes=(0.0, 1.0))
        for name in names
    }
    cpds = []
    for name in names:
        parents = tuple(sorted(s.parents(name)))
        rows = 2 ** len(parents)
        table = []
        for _ in range(rows):
            u = rng.uniform(0.1, 0.9)
            table.append([u, 1 - u])
        cpds.append(make_cpd(name, parents, table, specs))
    return build_model(s, specs, cpds)


class TestTruncated:
    def test_do_on_root_equals_conditional(self, reality_model):
        _, (dist,) = plan_effect(reality_model, {"V1": ["Summer"]}, "X", "truncated")
        cond = brute_conditional(reality_model, "X", given={"V1": "Summer"})
        assert dist == pytest.approx(cond)

    def test_reality_effect_on_phi(self, reality_model):
        _, (do_cp, do_not) = plan_effect(
            reality_model,
            {"X": ["CP", "notCP"]},
            "phi",
            "truncated",
        )
        assert do_cp["Short"] == pytest.approx(0.60, abs=1e-12)
        assert do_not["Short"] == pytest.approx(0.40, abs=1e-12)

    def test_model_effect_on_phi(self, candidate_model):
        _, (do_cp,) = plan_effect(candidate_model, {"X": ["CP"]}, "phi", "truncated")
        assert do_cp["Short"] == pytest.approx(0.60, abs=1e-12)

    def test_empty_intervention_is_observational(self, reality_model):
        _, (dist,) = plan_effect(reality_model, {}, "phi", "truncated")
        assert dist == pytest.approx(brute_conditional(reality_model, "phi"))

    def test_non_markovian_rejected(self):
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("X", "Y")
        }
        s = build_structure(["X", "Y"], [("X", "Y")], bidirected=[("X", "Y")])
        m = build_model(
            s,
            specs,
            [
                make_cpd("X", (), [[0.5, 0.5]], specs),
                make_cpd("Y", ("X",), [[0.3, 0.7], [0.6, 0.4]], specs),
            ],
        )
        with pytest.raises(NotMarkovian):
            plan_effect(m, {"X": ["a"]}, "Y", "truncated")


class TestParentAdjust:
    def test_no_parents_equals_conditional(self, reality_model):
        _, (dist,) = plan_effect(reality_model, {"V2": ["Slow"]}, "phi", "parents")
        cond = brute_conditional(reality_model, "phi", given={"V2": "Slow"})
        assert dist == pytest.approx(cond)

    def test_matches_truncated_on_model_fixture(self, candidate_model):
        for label in ("CP", "notCP"):
            do = {"X": [label]}
            _, (a,) = plan_effect(candidate_model, do, "phi", "parents")
            _, (b,) = plan_effect(candidate_model, do, "phi", "truncated")
            assert a == pytest.approx(b, abs=1e-9)

    def test_multi_node_rejected(self, reality_model):
        with pytest.raises(InvalidQuery):
            plan_effect(
                reality_model,
                {"X": ["CP"], "V2": ["Slow"]},
                "phi",
                "parents",
            )

    def test_friction_partial_instantiation_contract(self, friction_relation):
        # A dataset holding only the reference adjustment columns plus the
        # phenomenon instantiates the subsystem closed under parents; parent
        # adjustment inside it works without full instantiation.
        relation, model = friction_relation
        from causalcrit.fixtures import FRICTION_ADJUSTMENT_SET

        columns = sorted(FRICTION_ADJUSTMENT_SET + (relation.phenomenon.variable,))
        rng = random.Random(99)
        rows = [[rng.randint(0, 1) for _ in columns] for _ in range(400)]
        ds = Dataset(
            columns=tuple(columns),
            codes=tuple(zip(*rows)),
            domains=tuple(relation.specs[c].domain for c in columns),
            provenance="synthetic",
        )
        est = estimate_cpds(model.structure, relation.specs, ds)
        assert est.instantiated == {
            "Ego vehicle longitudinal wheel slip",
            "Ego vehicle slip angle",
            "Forward velocity of ego",
            "Tire pressure",
            "Tire type",
            "Wet grip",
        }
        _, (dist,) = plan_effect(
            est,
            {"Wet grip": ["low grade"]},
            "Forward velocity of ego",
            "parents",
        )
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ParentsNotInstantiated):
            plan_effect(
                est,
                {"Coefficient of friction": ["reduced"]},
                relation.metric,
                "parents",
            )
        # an admissible set alone does not help when the target's ancestors
        # carry no CPDs
        from causalcrit.errors import InsufficientInstantiation

        with pytest.raises(InsufficientInstantiation):
            plan_effect(
                est,
                {"Wet grip": ["low grade"]},
                relation.metric,
                "backdoor",
                ["Tire type"],
            )


class TestBackdoor:
    def test_empty_set_on_single_edge(self):
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("A", "B")
        }
        s = build_structure(["A", "B"], [("A", "B")])
        m = build_model(
            s,
            specs,
            [
                make_cpd("A", (), [[0.4, 0.6]], specs),
                make_cpd("B", ("A",), [[0.3, 0.7], [0.8, 0.2]], specs),
            ],
        )
        _, (dist,) = plan_effect(m, {"A": ["b"]}, "B", "backdoor", [])
        cond = brute_conditional(m, "B", given={"A": "b"})
        assert dist == pytest.approx(cond)

    def test_v2_matches_parent_adjustment(self, candidate_model):
        do = {"X": ["CP"]}
        _, (via_v2,) = plan_effect(candidate_model, do, "phi", "backdoor", ["V2"])
        _, (via_parents,) = plan_effect(candidate_model, do, "phi", "parents")
        assert via_v2 == pytest.approx(via_parents, abs=1e-9)
        assert via_v2["Short"] == pytest.approx(0.60, abs=1e-9)

    @staticmethod
    def confounded_triangle(p_s1, x_row_s0):
        """S -> X -> Y with S -> Y; P(S = s1) = p_s1 and P(X | S = s0) = x_row_s0."""
        specs = {
            n: VariableSpec(name=n, domain=(f"{n.lower()}0", f"{n.lower()}1"), codes=(0.0, 1.0))
            for n in ("S", "X", "Y")
        }
        s = build_structure(["S", "X", "Y"], [("S", "X"), ("S", "Y"), ("X", "Y")])
        return build_model(
            s,
            specs,
            [
                make_cpd("S", (), [[1 - p_s1, p_s1]], specs),
                make_cpd("X", ("S",), [x_row_s0, [0.0, 1.0]], specs),
                make_cpd(
                    "Y", ("S", "X"), [[0.9, 0.1], [0.4, 0.6], [0.7, 0.3], [0.2, 0.8]], specs
                ),
            ],
        )

    def test_zero_probability_stratum_skipped(self):
        # P(S = s1) = 0, so P(x0, s1) = 0 is never conditioned on.
        m = self.confounded_triangle(0.0, [0.5, 0.5])
        _, (dist,) = plan_effect(m, {"X": ["x0"]}, "Y", "backdoor", ["S"])
        assert dist == pytest.approx({"y0": 0.9, "y1": 0.1}, abs=1e-12)

    def test_zero_probability_condition_in_live_stratum(self):
        # P(S = s0) = 0.6 but P(X = x0, S = s0) = 0.
        m = self.confounded_triangle(0.4, [0.0, 1.0])
        with pytest.raises(ZeroProbabilityCondition):
            plan_effect(m, {"X": ["x0"]}, "Y", "backdoor", ["S"])

    def test_inadmissible_set_rejected(self, candidate_model):
        with pytest.raises(NotAdmissible):
            plan_effect(candidate_model, {"X": ["CP"]}, "phi", "backdoor", ["V1"])

    def test_descendant_in_a_set_that_blocks_every_path_rejected(self):
        # X -> M -> Y, Z -> X, Z -> Y: {M, Z} leaves no back-door path open,
        # but M descends from X.
        specs = {n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0)) for n in "MXYZ"}
        s = build_structure(["Z", "X", "M", "Y"], [("X", "M"), ("M", "Y"), ("Z", "X"), ("Z", "Y")])
        m = build_model(s, specs, [
            make_cpd("Z", (), [[0.5, 0.5]], specs),
            make_cpd("X", ("Z",), [[0.7, 0.3], [0.2, 0.8]], specs),
            make_cpd("M", ("X",), [[0.9, 0.1], [0.4, 0.6]], specs),
            make_cpd("Y", ("M", "Z"), [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.1, 0.9]], specs),
        ])
        message = (
            "['M', 'Z'] does not satisfy the back-door criterion for ('X', 'Y'): "
            "it holds a latent node or a descendant of 'X'"
        )
        with pytest.raises(NotAdmissible, match=f"^{re.escape(message)}$"):
            plan_effect(m, {"X": ["b"]}, "Y", "backdoor", ["Z", "M"])

    def test_library_needs_an_adjustment_set(self, reality_model):
        # The CLI passes the empty set when --adjust-set is absent; the
        # library call has no such default.
        with pytest.raises(InvalidQuery, match="backdoor route needs an adjustment set"):
            plan_effect(reality_model, {"X": ["CP"]}, "phi", route="backdoor")

    def test_repeated_member_named_once(self, reality_model, candidate_model):
        do = {"X": ["CP"]}
        route, rows = plan_effect(reality_model, do, "phi", "backdoor", ["V1", "V1"])
        assert (route, rows) == plan_effect(reality_model, do, "phi", "backdoor", ["V1"])
        assert route == "backdoor:['V1']"
        with pytest.raises(NotAdmissible, match=re.escape("['V1'] does not satisfy")):
            plan_effect(candidate_model, do, "phi", "backdoor", ["V1", "V1"])


class TestRouteEquivalence:
    def test_fixture_routes_agree(self, reality_model, candidate_model):
        for m in (reality_model, candidate_model):
            for label in ("CP", "notCP"):
                do = {"X": [label]}
                _, (t,) = plan_effect(m, do, "phi", "truncated")
                _, (p,) = plan_effect(m, do, "phi", "parents")
                assert t == pytest.approx(p, abs=1e-9)
                for adj in enumerate_adjustment_sets(m.structure, "X", "phi", 16):
                    _, (b,) = plan_effect(m, do, "phi", "backdoor", adj)
                    assert t == pytest.approx(b, abs=1e-9)

    def test_random_models_match_brute_force(self):
        rng = random.Random(4242)
        for _ in range(40):
            m = random_binary_model(rng)
            names = sorted(m.instantiated)
            x = rng.choice(names)
            target = rng.choice([n for n in names if n != x])
            label = rng.choice(("a", "b"))
            do = {x: [label]}
            _, (t,) = plan_effect(m, do, target, "truncated")
            oracle = brute_truncated(m, {x: label}, target)
            assert t == pytest.approx(oracle, abs=1e-9)
            _, (p,) = plan_effect(m, do, target, "parents")
            assert p == pytest.approx(oracle, abs=1e-9)


def one_row(do):
    """The one-row do() that sets each node of ``do`` to its label."""
    return {node: [label] for node, label in do.items()}


def confounded_pair_model():
    """X <-> W, W -> phi, X -> phi: only the back-door set {W} identifies X's effect."""
    return load_model(Path(__file__).parent / "data" / "confounded_pair.json")[1]


class TestPlanEffect:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_truncated_matches_brute_force(self, data):
        m = random_binary_model(data.draw(st.randoms(use_true_random=False)))
        nodes = sorted(m.instantiated)
        do_nodes = data.draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True)
        )
        do = {n: data.draw(st.sampled_from(("a", "b"))) for n in do_nodes}
        target = data.draw(st.sampled_from(do_nodes) | st.sampled_from(nodes))
        _, (dist,) = plan_effect(m, one_row(do), target, "truncated")
        assert dist == pytest.approx(brute_truncated(m, do, target), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_auto_on_partial_models_matches_full_model(self, data):
        # An optional confounding arc sends a confounded intervened node past
        # parent adjustment into the back-door search. The full model's CPD
        # product is Markov to the graph without the arc, so every set the
        # search admits identifies the effect under that product.
        full = random_binary_model(data.draw(st.randoms(use_true_random=False)))
        nodes = sorted(full.instantiated)
        removed = data.draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=2))
        do_nodes = data.draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True)
        )
        others = [n for n in nodes if n != do_nodes[0]]
        arcs = data.draw(
            st.lists(st.sampled_from(others).map(lambda w: (do_nodes[0], w)), max_size=1)
        )
        partial = build_model(
            build_structure(nodes, full.structure.directed, bidirected=arcs),
            full.specs,
            [c for n, c in full.cpds.items() if n not in removed],
        )
        do = {n: data.draw(st.sampled_from(("a", "b"))) for n in do_nodes}
        target = data.draw(st.sampled_from(nodes))
        try:
            _, (dist,) = plan_effect(partial, one_row(do), target)
        except CausalCritError:
            return
        assert dist == pytest.approx(brute_truncated(full, do, target), abs=1e-12)

    def test_one_route_for_every_intervention(self, candidate_model):
        route, dists = plan_effect(
            candidate_model,
            {"X": ["CP", "notCP"]},
            "phi",
            route="backdoor",
            adjustment=["V2"],
        )
        assert route == "backdoor:['V2']"
        assert dists[0]["Short"] == pytest.approx(0.6, abs=1e-12)
        assert dists[1]["Short"] == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("route", ["auto", "truncated", "parents"])
    @pytest.mark.parametrize("adjustment", [["V1"], []])
    def test_an_adjustment_set_off_the_backdoor_route_is_refused(self, candidate_model, route, adjustment):
        message = f"an adjustment set needs the backdoor route, got route {route!r}"
        with pytest.raises(InvalidQuery, match=f"^{re.escape(message)}$"):
            plan_effect(candidate_model, {"X": ["CP"]}, "phi", route, adjustment)

    def test_auto_falls_back_to_backdoor_on_confounded_model(self):
        m = confounded_pair_model()
        route, (dist,) = plan_effect(m, {"X": ["b"]}, "phi")
        assert route == "backdoor:['W']"
        # sum_w P(phi = b | X = b, w) P(w)
        assert dist["b"] == pytest.approx(0.5 * 0.5 + 0.5 * 0.8, abs=1e-12)
        assert expectation(dist, m, "phi") == pytest.approx(dist["b"], abs=1e-12)

    def test_auto_tries_parents_before_backdoor(self):
        # A -> X -> Y and a Z without a CPD. With the confounding arc Y <-> Z,
        # away from X, the model is semi-Markovian and adjustment on X's
        # parent {A} comes first. Without it the model is Markovian, and the
        # truncated route needs no CPD outside Y's closure.
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("A", "X", "Y", "Z")
        }
        cpds = [
            make_cpd("A", (), [[0.4, 0.6]], specs),
            make_cpd("X", ("A",), [[0.3, 0.7], [0.8, 0.2]], specs),
            make_cpd("Y", ("X",), [[0.9, 0.1], [0.2, 0.8]], specs),
        ]
        for arcs, expected in (([("Y", "Z")], "parents"), ([], "truncated")):
            s = build_structure(
                ["A", "X", "Y", "Z"], [("A", "X"), ("X", "Y")], bidirected=arcs
            )
            m = build_model(s, specs, cpds)
            route, (dist,) = plan_effect(m, {"X": ["b"]}, "Y")
            assert route == expected
            assert dist["b"] == pytest.approx(0.8, abs=1e-12)

    def test_label_lists_must_be_equal_and_nonempty(self):
        m = confounded_pair_model()
        for do in ({"X": ["b"], "W": ["a", "b"]}, {"X": ["b", "a"], "W": []}, {"X": []}):
            with pytest.raises(InvalidQuery, match="one label per row"):
                plan_effect(m, do, "phi")

    def test_labels_must_be_a_list(self):
        with pytest.raises(InvalidQuery, match="list of labels"):
            plan_effect(confounded_pair_model(), {"X": "b"}, "phi")

    def test_auto_target_set_by_do_on_confounded_node(self):
        # Parent adjustment refuses the confounded X; the back-door search
        # cannot take x == y. P(X | do(X = b)) is a point mass all the same.
        m = confounded_pair_model()
        route, dists = plan_effect(m, {"X": ["b", "a"]}, "X")
        assert route == "point-mass"
        assert dists == [{"a": 0.0, "b": 1.0}, {"a": 1.0, "b": 0.0}]

    def test_auto_target_outside_descendants_of_confounded_node(self):
        # W does not descend from X, so do(X) leaves it at its marginal; no
        # back-door set blocks X <-> W.
        m = confounded_pair_model()
        route, (dist,) = plan_effect(m, {"X": ["b"]}, "W")
        assert route == "observational"
        assert dist == pytest.approx(brute_conditional(m, "W"), abs=1e-12)

    @pytest.mark.parametrize("target", ["X", "W"])
    def test_auto_checks_every_do_label(self, target):
        # Parent adjustment stops at the first do(); a bad label in a later
        # one must not slip through to a point mass or a marginal.
        m = confounded_pair_model()
        with pytest.raises(UnknownCategory):
            plan_effect(m, {"X": ["b", "zzz"]}, target)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_auto_on_confounded_node_answers_unaffected_targets(self, data):
        # Fully instantiated models whose intervened node carries a
        # confounding arc: for a target the do() sets or cannot reach, auto
        # never raises and agrees with clamping the full CPD product.
        full = random_binary_model(data.draw(st.randoms(use_true_random=False)))
        nodes = sorted(full.instantiated)
        x = data.draw(st.sampled_from(nodes))
        w = data.draw(st.sampled_from([n for n in nodes if n != x]))
        m = build_model(
            build_structure(nodes, full.structure.directed, bidirected=[(x, w)]),
            full.specs,
            list(full.cpds.values()),
        )
        below = descendants(m.structure, x)
        target = data.draw(st.sampled_from([n for n in nodes if n not in below]))
        do = {x: data.draw(st.sampled_from(("a", "b")))}
        route, (dist,) = plan_effect(m, one_row(do), target)
        assert route in ("point-mass", "observational")
        assert dist == pytest.approx(brute_truncated(full, do, target), abs=1e-12)

    @pytest.mark.parametrize("latent, arc", [("X", ("Y", "Z")), ("Y", ("W", "Z"))])
    def test_auto_backdoor_step_refuses_latent_pair(self, latent, arc):
        # W -> X -> Y, W -> Y, one confounding arc away from X, no CPD for W:
        # parent adjustment cannot run, Y descends from X, and a
        # latent-flagged X or Y leaves no back-door set to search.
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("W", "X", "Y", "Z")
        }
        s = build_structure(
            ["W", "X", "Y", "Z"],
            [("W", "X"), ("X", "Y"), ("W", "Y")],
            bidirected=[arc],
            latent=[latent],
        )
        m = build_model(
            s,
            specs,
            [
                make_cpd("X", ("W",), [[0.3, 0.7], [0.8, 0.2]], specs),
                make_cpd(
                    "Y", ("W", "X"), [[0.9, 0.1], [0.5, 0.5], [0.6, 0.4], [0.2, 0.8]], specs
                ),
                make_cpd("Z", (), [[0.4, 0.6]], specs),
            ],
        )
        with pytest.raises(NotIdentifiable, match=f"\\['{latent}'\\]"):
            plan_effect(m, {"X": ["b"]}, "Y")

    def test_auto_refusal_names_open_path(self):
        # X <- L -> phi with L latent-flagged, X -> phi, and X <-> V so that
        # parent adjustment cannot run: the largest candidate is empty and
        # leaves X <- L -> phi open.
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("L", "V", "X", "phi")
        }
        s = build_structure(
            ["L", "V", "X", "phi"],
            [("L", "X"), ("L", "phi"), ("X", "phi")],
            bidirected=[("X", "V")],
            latent=["L"],
        )
        m = build_model(
            s,
            specs,
            [
                make_cpd("L", (), [[0.4, 0.6]], specs),
                make_cpd("V", (), [[0.5, 0.5]], specs),
                make_cpd("X", ("L",), [[0.3, 0.7], [0.8, 0.2]], specs),
                make_cpd(
                    "phi", ("L", "X"), [[0.9, 0.1], [0.5, 0.5], [0.6, 0.4], [0.2, 0.8]], specs
                ),
            ],
        )
        with pytest.raises(NotIdentifiable) as exc:
            plan_effect(m, {"X": ["b"]}, "phi")
        quoted = str(exc.value).split("back-door path ", 1)[1].rsplit(" open", 1)[0]
        assert quoted in brute_open_paths(s, "X", "phi", (), backdoor=True)
        assert quoted == "X <- L -> phi"

    def test_unknown_route_rejected(self, reality_model):
        with pytest.raises(InvalidQuery):
            plan_effect(reality_model, {"X": ["CP"]}, "phi", "fast")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_auto_backdoor_step_decides_identifiability(self, data):
        # Random partial models with up to two confounding arcs, each on the
        # intervened node x about half the time. Where auto reaches its
        # back-door step (a semi-Markovian model and a target below x), it
        # refuses exactly when no subset of the other nodes is a back-door
        # set whose adjusted joint has its CPDs. The full model's CPD product
        # is Markov to the graph without the arcs, so any answer equals
        # clamping that product.
        full = random_binary_model(data.draw(st.randoms(use_true_random=False)), max_nodes=8)
        nodes = sorted(full.instantiated)
        removed = data.draw(st.sets(st.sampled_from(nodes), max_size=3))
        above = [n for n in nodes if descendants(full.structure, n)]
        x = data.draw(st.sampled_from(above or nodes))
        pairs = list(itertools.combinations(nodes, 2))
        at_x = [p for p in pairs if x in p]
        arcs = [
            data.draw(st.sampled_from(at_x) | st.sampled_from(pairs))
            for _ in range(data.draw(st.integers(0, 2)))
        ]
        m = build_model(
            build_structure(nodes, full.structure.directed, bidirected=arcs),
            full.specs,
            [c for n, c in full.cpds.items() if n not in removed],
        )
        below = sorted(descendants(m.structure, x))
        target = data.draw(st.sampled_from(below or nodes))
        do = {x: data.draw(st.sampled_from(("a", "b")))}
        reaches = bool(arcs) and target in below

        def computes(adj):
            if brute_missing_cpds(m, {x, target, *adj}):
                return False
            if not brute_backdoor_admissible(m.structure, adj, x, target):
                return False
            plan_effect(m, one_row(do), target, "backdoor", adj)
            return True

        others = [n for n in nodes if n not in (x, target)]
        found = x != target and any(
            computes(adj)
            for size in range(len(others) + 1)
            for adj in itertools.combinations(others, size)
        )
        try:
            route, (dist,) = plan_effect(m, one_row(do), target)
        except NotIdentifiable:
            assert not found
            return
        except InsufficientInstantiation:
            assert not reaches and not found
            return
        assert found or not reaches, route
        assert dist == pytest.approx(brute_truncated(full, do, target), abs=1e-12)

    def test_auto_backdoor_decision_has_no_candidate_cap(self):
        # A00 -> ... -> A20 -> X, X <-> W, W -> phi, X -> phi: 22 candidate
        # members, of which {W} alone is the back-door set kept.
        chain = [f"A{k:02d}" for k in range(21)]
        names = [*chain, "W", "X", "phi"]
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0)) for n in names
        }
        edges = [*zip(chain, [*chain[1:], "X"]), ("W", "phi"), ("X", "phi")]
        s = build_structure(names, edges, bidirected=[("X", "W")])
        cpds = [make_cpd("A00", (), [[0.5, 0.5]], specs)]
        cpds += [
            make_cpd(b, (a,), [[0.7, 0.3], [0.2, 0.8]], specs)
            for a, b in zip(chain, [*chain[1:], "X"])
        ]
        cpds += [
            make_cpd("W", (), [[0.5, 0.5]], specs),
            make_cpd(
                "phi", ("W", "X"), [[0.9, 0.1], [0.6, 0.4], [0.5, 0.5], [0.4, 0.6]], specs
            ),
        ]
        m = build_model(s, specs, cpds)
        route, (dist,) = plan_effect(m, {"X": ["b"]}, "phi")
        assert route == "backdoor:['W']"
        # sum_w P(phi = b | X = b, w) P(w)
        assert dist["b"] == pytest.approx(0.5 * 0.4 + 0.5 * 0.6, abs=1e-12)

    def test_auto_backdoor_set_reaches_past_the_targets_parents(self):
        # X <-> W -> M -> phi with X -> M and X -> phi: the back-door path
        # runs through the mediator M, which descends from X, so only W,
        # which is no parent of phi, blocks it.
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("M", "W", "X", "phi")
        }
        s = build_structure(
            ["M", "W", "X", "phi"],
            [("W", "M"), ("X", "M"), ("M", "phi"), ("X", "phi")],
            bidirected=[("X", "W")],
        )
        quad = [[0.9, 0.1], [0.5, 0.5], [0.6, 0.4], [0.2, 0.8]]
        m = build_model(
            s,
            specs,
            [
                make_cpd("W", (), [[0.4, 0.6]], specs),
                make_cpd("X", (), [[0.3, 0.7]], specs),
                make_cpd("M", ("W", "X"), quad, specs),
                make_cpd("phi", ("M", "X"), quad[::-1], specs),
            ],
        )
        route, (dist,) = plan_effect(m, {"X": ["b"]}, "phi")
        assert route == "backdoor:['W']"
        assert dist == pytest.approx(brute_truncated(m, {"X": "b"}, "phi"), abs=1e-12)

    def test_auto_backdoor_set_leaves_out_latent_nodes(self):
        # A latent-flagged L -> X that carries a CPD still cannot be adjusted
        # for; {W} identifies the effect without it.
        base = confounded_pair_model()
        specs = {**base.specs, "L": VariableSpec(name="L", domain=("a", "b"), codes=(0.0, 1.0))}
        s = build_structure(
            ["L", "W", "X", "phi"],
            [("L", "X"), ("W", "phi"), ("X", "phi")],
            bidirected=[("X", "W")],
            latent=["L"],
        )
        m = build_model(
            s,
            specs,
            [
                make_cpd("L", (), [[0.2, 0.8]], specs),
                make_cpd("X", ("L",), [[0.3, 0.7], [0.6, 0.4]], specs),
                base.cpds["W"],
                base.cpds["phi"],
            ],
        )
        route, (dist,) = plan_effect(m, {"X": ["b"]}, "phi")
        assert route == "backdoor:['W']"
        assert dist["b"] == pytest.approx(0.5 * 0.5 + 0.5 * 0.8, abs=1e-12)

    def test_auto_backdoor_step_names_missing_cpds(self):
        # A -> X without a CPD for A: every adjusted joint spans X, so no
        # back-door set can be computed, and the refusal names A.
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("A", "W", "X", "phi")
        }
        s = build_structure(
            ["A", "W", "X", "phi"],
            [("A", "X"), ("W", "phi"), ("X", "phi")],
            bidirected=[("X", "W")],
        )
        base = confounded_pair_model()
        m = build_model(
            s,
            specs,
            [
                make_cpd("X", ("A",), [[0.3, 0.7], [0.6, 0.4]], specs),
                base.cpds["W"],
                base.cpds["phi"],
            ],
        )
        with pytest.raises(NotIdentifiable, match=r"\['A'\]"):
            plan_effect(m, {"X": ["b"]}, "phi")


class TestEmptyIntervention:
    def test_unknown_route_rejected(self, reality_model):
        with pytest.raises(InvalidQuery, match="unknown route"):
            plan_effect(reality_model, {}, "phi", "bogus")

    def test_truncated_needs_markovian_model(self):
        m = confounded_pair_model()
        with pytest.raises(NotMarkovian):
            plan_effect(m, {}, "phi", "truncated")

    def test_every_other_route_is_observational(self):
        m = confounded_pair_model()
        marginal = brute_conditional(m, "phi")
        # backdoor makes no admissibility check: there is no intervened node
        # to adjust for.
        for args in ((), ("parents",), ("backdoor", [])):
            route, (dist,) = plan_effect(m, {}, "phi", *args)
            assert route == "observational"
            assert dist == pytest.approx(marginal, abs=1e-12)


class TestExpectation:
    def test_reality_expectations(self, reality_model):
        route, dists = plan_effect(
            reality_model,
            {"X": ["CP", "notCP"]},
            "phi",
        )
        assert (route, len(dists)) == ("truncated", 2)
        e_cp, e_not = (expectation(d, reality_model, "phi") for d in dists)
        assert e_cp == pytest.approx(0.6, abs=1e-12)
        assert e_not == pytest.approx(0.4, abs=1e-12)

    def test_observational_expectation(self, reality_model):
        _, (dist,) = plan_effect(reality_model, {}, "phi")
        e = expectation(dist, reality_model, "phi")
        assert e == pytest.approx(0.534, abs=1e-12)

    def test_degenerate_single_category_target(self):
        specs = {
            "A": VariableSpec(name="A", domain=("only",), codes=(7.5,)),
            "B": VariableSpec(name="B", domain=("x", "y"), codes=(0.0, 1.0)),
        }
        s = build_structure(["A", "B"])
        m = build_model(
            s,
            specs,
            [
                make_cpd("A", (), [[1.0]], specs),
                make_cpd("B", (), [[0.5, 0.5]], specs),
            ],
        )
        _, (dist,) = plan_effect(m, {"B": ["x"]}, "A")
        e = expectation(dist, m, "A")
        assert e == pytest.approx(7.5)


class TestSafetyPrinciple:
    def test_forcing_not_cp(self, heavy_rain_reality):
        relation, model = heavy_rain_reality
        sp = SafetyPrinciple(
            name="suppress", assignments={"X": "notCP"}
        )
        report = evaluate_safety_principle(model, sp, relation.phenomenon, "phi")
        assert report.delta_p_phenomenon == pytest.approx(-0.67, abs=1e-12)

    def test_slow_down_principle(self, heavy_rain_reality):
        relation, model = heavy_rain_reality
        sp = SafetyPrinciple(
            name="drive slow", assignments={"V2": "Slow"}
        )
        report = evaluate_safety_principle(model, sp, relation.phenomenon, "phi")
        # E(phi | do(V2=Slow)) = 0.67*0.8 + 0.33*0.6 = 0.734
        assert report.metric_expectation_intervened == pytest.approx(0.734, abs=1e-12)
        assert report.delta_metric_expectation == pytest.approx(0.2, abs=1e-12)
        assert report.delta_p_phenomenon == pytest.approx(0.0, abs=1e-12)

    def test_off_target_principle_noted_with_zero_deltas(self):
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("X", "phi", "Z")
        }
        s = build_structure(["X", "phi", "Z"], [("X", "phi")])
        m = build_model(
            s,
            specs,
            [
                make_cpd("X", (), [[0.3, 0.7]], specs),
                make_cpd("phi", ("X",), [[0.9, 0.1], [0.2, 0.8]], specs),
                make_cpd("Z", (), [[0.5, 0.5]], specs),
            ],
        )
        sp = SafetyPrinciple(name="noop", assignments={"Z": "a"})
        cp = PhenomenonBinding(variable="X", cp_label="b")
        report = evaluate_safety_principle(m, sp, cp, "phi")
        assert report.notes == (
            "safety principle 'noop' targets ['Z'], none of which influence 'X' or 'phi'",
        )
        assert report.delta_p_phenomenon == pytest.approx(0.0, abs=1e-12)
        assert report.delta_metric_expectation == pytest.approx(0.0, abs=1e-12)

    def test_semi_markovian_model_goes_through_the_planner(self):
        # W -> X, X -> phi, W -> phi, with the arc phi <-> Z away from W:
        # truncated factorization refuses the model, parent adjustment on
        # W's empty parent set answers.
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("W", "X", "Z", "phi")
        }
        s = build_structure(
            ["W", "X", "Z", "phi"],
            [("W", "X"), ("X", "phi"), ("W", "phi")],
            bidirected=[("phi", "Z")],
        )
        m = build_model(
            s,
            specs,
            [
                make_cpd("W", (), [[0.5, 0.5]], specs),
                make_cpd("X", ("W",), [[0.6, 0.4], [0.2, 0.8]], specs),
                make_cpd("Z", (), [[0.5, 0.5]], specs),
                make_cpd(
                    "phi", ("W", "X"), [[0.9, 0.1], [0.7, 0.3], [0.6, 0.4], [0.4, 0.6]], specs
                ),
            ],
        )
        route, (dist,) = plan_effect(m, {"W": ["b"]}, "phi")
        assert route == "parents"
        assert dist["b"] == pytest.approx(0.56, abs=1e-12)
        sp = SafetyPrinciple(name="w", assignments={"W": "b"})
        report = evaluate_safety_principle(m, sp, PhenomenonBinding("X", "b"), "phi")
        assert report.p_phenomenon_intervened == pytest.approx(0.8, abs=1e-12)
        assert report.delta_p_phenomenon == pytest.approx(0.8 - 0.6, abs=1e-12)
        assert report.metric_expectation_intervened == pytest.approx(0.56, abs=1e-12)
        assert report.delta_metric_expectation == pytest.approx(0.56 - 0.37, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_baselines_are_the_shared_call_and_every_value_the_oracles(self, data):
        # Both baselines come from the round's one call without do(): the
        # values of joint_tables(m, [[X], [metric]]), bit for bit.
        m = random_binary_model(data.draw(st.randoms(use_true_random=False)))
        nodes = sorted(m.instantiated)
        x, metric = data.draw(st.permutations(nodes))[:2]
        targets = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True))
        do = {n: data.draw(st.sampled_from(("a", "b"))) for n in targets}
        report = evaluate_safety_principle(m, SafetyPrinciple("p", do), PhenomenonBinding(x, "b"), metric)
        p_x, p_metric = joint_tables(m, [[x], [metric]])
        assert report.p_phenomenon_baseline == float(p_x[1])
        assert report.metric_expectation_baseline == expectation(
            dict(zip(("a", "b"), p_metric.tolist())), m, metric
        )

        def mean(dist):
            return sum(m.specs[metric].code_of(c) * p for c, p in dist.items())

        assert report.p_phenomenon_baseline == pytest.approx(brute_conditional(m, x)["b"], abs=1e-12)
        assert report.metric_expectation_baseline == pytest.approx(mean(brute_conditional(m, metric)), abs=1e-12)
        assert report.p_phenomenon_intervened == pytest.approx(brute_truncated(m, do, x)["b"], abs=1e-12)
        assert report.metric_expectation_intervened == pytest.approx(
            mean(brute_truncated(m, do, metric)), abs=1e-12
        )

    def test_route_checks_come_before_the_baseline_call(self, monkeypatch):
        # W -> X -> phi with X <-> phi: no route identifies phi under do(X),
        # and that step refuses in the first round, before any joint is
        # computed. Under a one-state limit every call refuses, as W's
        # identifiable principle shows.
        specs = {n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0)) for n in ("W", "X", "phi")}
        s = build_structure(["W", "X", "phi"], [("W", "X"), ("X", "phi")], bidirected=[("X", "phi")])
        m = build_model(s, specs, [
            make_cpd("W", (), [[0.5, 0.5]], specs),
            make_cpd("X", ("W",), [[0.6, 0.4], [0.2, 0.8]], specs),
            make_cpd("phi", ("X",), [[0.9, 0.1], [0.3, 0.7]], specs),
        ])
        monkeypatch.setattr(model, "DEFAULT_STATE_SPACE_LIMIT", 1)
        cp = PhenomenonBinding("X", "b")
        with pytest.raises(NotIdentifiable, match="no back-door set for \\('X', 'phi'\\)"):
            evaluate_safety_principle(m, SafetyPrinciple("x", {"X": "a"}), cp, "phi")
        with pytest.raises(StateSpaceExceeded):
            evaluate_safety_principle(m, SafetyPrinciple("w", {"W": "a"}), cp, "phi")

    def test_empty_intervention_rejected(self):
        with pytest.raises(InvalidQuery):
            SafetyPrinciple(name="none", assignments={})

    def test_non_binary_phenomenon_rejected(self):
        specs = {
            "X": VariableSpec(name="X", domain=("lo", "mid", "hi"), codes=(0.0, 1.0, 2.0)),
            "phi": VariableSpec(name="phi", domain=("a", "b"), codes=(0.0, 1.0)),
        }
        s = build_structure(["X", "phi"], [("X", "phi")])
        m = build_model(
            s,
            specs,
            [
                make_cpd("X", (), [[0.2, 0.3, 0.5]], specs),
                make_cpd("phi", ("X",), [[0.5, 0.5]] * 3, specs),
            ],
        )
        sp = SafetyPrinciple(name="s", assignments={"X": "lo"})
        with pytest.raises(InvalidQuery):
            evaluate_safety_principle(
                m, sp, PhenomenonBinding(variable="X", cp_label="hi"), "phi"
            )
