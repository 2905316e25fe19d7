import collections
import contextlib
import itertools
import json
import math
import random
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import causalcrit.engine as engine
import causalcrit.io as io
import causalcrit.model as model
from causalcrit.cli import main
from causalcrit.context import PhenomenonBinding
from causalcrit.engine import expectation, plan_effect
from causalcrit.errors import (
    CausalCritError,
    DivisionByZeroEffect,
    InfiniteDivergence,
    InvalidQuery,
    NotMarkovian,
    ValidationError,
    ZeroMeanCriticality,
)
from causalcrit.graph import build_structure, descendants
from causalcrit.indicators import (
    ModelPair,
    ace,
    causal_influence,
    indicator_reports,
    kl_divergence,
    rce,
    rho1,
    rho2,
    rho3,
    sigma,
)
from causalcrit.fixtures import fixture, fixture_text
from causalcrit.io import load_model, model_to_text
from causalcrit.model import VariableSpec, build_model, make_cpd

from oracles import brute_causal_influence, brute_joint, brute_kl, brute_marginal
from test_engine import random_binary_model
from test_model import random_models, redrawn

CP = PhenomenonBinding(variable="X", cp_label="CP")


def disconnected_phenomenon_model():
    """X has no path to phi at all."""
    specs = {
        "X": VariableSpec(name="X", domain=("notCP", "CP"), codes=(0.0, 1.0)),
        "phi": VariableSpec(name="phi", domain=("Short", "Long"), codes=(1.0, 0.0)),
    }
    s = build_structure(["X", "phi"])
    return build_model(
        s,
        specs,
        [
            make_cpd("X", (), [[0.3, 0.7]], specs),
            make_cpd("phi", (), [[0.25, 0.75]], specs),
        ],
    )


def flipped_metric_codes(m):
    """``m`` with phi's codes swapped: Long=1 makes do(notCP) exceed do(CP)."""
    specs = dict(m.specs)
    specs["phi"] = VariableSpec(
        name="phi", domain=("Short", "Long"), codes=(0.0, 1.0),
        unit=specs["phi"].unit, value_range=specs["phi"].value_range,
    )
    return build_model(m.structure, specs, m.cpds.values())


class TestKl:
    def test_identity_zero(self):
        assert kl_divergence([0.67, 0.33], [0.67, 0.33]) == 0.0

    def test_two_point_value(self):
        # closed form: 0.6 ln(0.6/0.68) + 0.4 ln(0.4/0.32)
        expected = 0.6 * math.log(0.6 / 0.68) + 0.4 * math.log(0.4 / 0.32)
        assert kl_divergence([0.6, 0.4], [0.68, 0.32]) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.014160, abs=5e-7)

    def test_uniform_vs_fixture_marginal(self):
        expected = 0.5 * math.log(0.5 / 0.67) + 0.5 * math.log(0.5 / 0.33)
        assert kl_divergence([0.5, 0.5], [0.67, 0.33]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_zero_against_positive_allowed(self):
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_infinite_divergence_raised(self):
        with pytest.raises(InfiniteDivergence):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    @pytest.mark.parametrize(
        "p, q",
        [
            ([1.0, 0.0], [-1.0, 2.0]),
            ([-0.5, 1.5], [0.5, 0.5]),
            ([math.nan, 1.0], [0.5, 0.5]),
            ([0.5, 0.5], [math.nan, 1.0]),
            ([math.inf, 0.0], [0.5, 0.5]),
            ({"a": 0.5, "b": 0.5}, {"a": math.inf, "b": 0.5}),
        ],
    )
    def test_negative_or_non_finite_entry_rejected(self, p, q):
        with pytest.raises(ValidationError, match="finite, non-negative"):
            kl_divergence(p, q)

    @pytest.mark.parametrize(
        "p, q, message",
        [
            ({"a": 1.0}, [1.0], "cannot mix mapping and sequence distributions"),
            ({"a": 0.5, "b": 0.5}, {"a": 0.5, "c": 0.5}, "distributions have different supports"),
            ([0.5, 0.5], [0.2, 0.3, 0.5], "distributions have different support sizes"),
        ],
        ids=["mixed", "keys", "sizes"],
    )
    def test_unaligned_distributions_rejected(self, p, q, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            kl_divergence(p, q)

    @pytest.mark.parametrize(
        "p, q",
        [
            (["a"], ["b"]),
            ({"a": "x"}, {"a": 0.5}),
            ([[0.5], [0.5, 0.5]], [[0.5], [0.5, 0.5]]),
            ({"a": 0.5, 1: 0.5}, {"a": 0.5, 1: 0.5}),
        ],
        ids=["strings", "string-value", "ragged", "unsortable-keys"],
    )
    def test_entries_that_are_not_numbers_rejected(self, p, q):
        # numpy raised a bare ValueError or TypeError for each of these.
        with pytest.raises(ValidationError, match="^distributions need numbers"):
            kl_divergence(p, q)

    def test_bits_rescale(self):
        nats = kl_divergence([0.6, 0.4], [0.68, 0.32])
        bits = kl_divergence([0.6, 0.4], [0.68, 0.32], bits=True)
        assert bits == pytest.approx(nats / math.log(2), abs=1e-12)

    def test_mapping_input_aligned_by_key(self):
        assert kl_divergence({"a": 0.5, "b": 0.5}, {"b": 0.5, "a": 0.5}) == 0.0

    def test_nonnegative_and_zero_iff_equal(self):
        rng = random.Random(7)
        for _ in range(200):
            u, v = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            value = kl_divergence([u, 1 - u], [v, 1 - v])
            assert value >= 0.0
            if abs(u - v) > 1e-9:
                assert value > 0.0
        assert kl_divergence([0.31, 0.69], [0.31, 0.69]) <= 1e-12


class TestEffectIndicators:
    def test_ace_fixture_value(self, reality_model):
        report = ace(reality_model, CP, "phi")
        assert report.value == pytest.approx(0.2, abs=1e-9)
        assert report.metadata["metric_codes"] == {"Short": 1.0, "Long": 0.0}

    def test_rce_fixture_value(self, reality_model):
        assert rce(reality_model, CP, "phi").value == pytest.approx(1.5, abs=1e-9)

    def test_ace_matches_surgery_oracle(self, reality_model):
        from oracles import brute_truncated

        e = {}
        for label in ("CP", "notCP"):
            dist = brute_truncated(reality_model, {"X": label}, "phi")
            spec = reality_model.specs["phi"]
            e[label] = sum(dist[c] * spec.code_of(c) for c in spec.domain)
        report = ace(reality_model, CP, "phi")
        assert report.value == pytest.approx(e["CP"] - e["notCP"], abs=1e-9)

    def test_disconnected_phenomenon(self):
        m = disconnected_phenomenon_model()
        assert ace(m, CP, "phi").value == pytest.approx(0.0, abs=1e-12)
        assert rce(m, CP, "phi").value == pytest.approx(1.0, abs=1e-12)
        assert sigma(m, CP, "phi").value == pytest.approx(0.0, abs=1e-12)

    def test_sigma_consistent_encoding_value(self, reality_model):
        report = sigma(reality_model, CP, "phi")
        assert report.value == pytest.approx(1 - 0.4 / 0.534, abs=1e-9)
        assert report.metadata["precondition_holds"] is True

    def test_sigma_precondition_violation_is_recorded(self, reality_model):
        # The report is the one record of the violation: no warning is raised.
        flipped = flipped_metric_codes(reality_model)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = sigma(flipped, CP, "phi")
        assert caught == []
        assert report.value == pytest.approx(1 - 0.6 / 0.466, abs=1e-9)
        assert report.metadata["precondition_holds"] is False

    def test_sigma_constant_metric_code_one(self):
        specs = {
            "X": VariableSpec(name="X", domain=("notCP", "CP"), codes=(0.0, 1.0)),
            "phi": VariableSpec(name="phi", domain=("only",), codes=(1.0,)),
        }
        s = build_structure(["X", "phi"], [("X", "phi")])
        m = build_model(
            s,
            specs,
            [
                make_cpd("X", (), [[0.3, 0.7]], specs),
                make_cpd("phi", ("X",), [[1.0], [1.0]], specs),
            ],
        )
        assert sigma(m, CP, "phi").value == pytest.approx(0.0, abs=1e-12)

    def test_rce_zero_effect_denominator(self):
        specs = {
            "X": VariableSpec(name="X", domain=("notCP", "CP"), codes=(0.0, 1.0)),
            "phi": VariableSpec(name="phi", domain=("a", "b"), codes=(0.0, 1.0)),
        }
        s = build_structure(["X", "phi"], [("X", "phi")])
        m = build_model(
            s,
            specs,
            [
                make_cpd("X", (), [[0.3, 0.7]], specs),
                make_cpd("phi", ("X",), [[1.0, 0.0], [0.5, 0.5]], specs),
            ],
        )
        with pytest.raises(DivisionByZeroEffect):
            rce(m, CP, "phi")

    def test_zero_mean_criticality(self):
        specs = {
            "X": VariableSpec(name="X", domain=("notCP", "CP"), codes=(0.0, 1.0)),
            "phi": VariableSpec(name="phi", domain=("a", "b"), codes=(0.0, 0.0)),
        }
        s = build_structure(["X", "phi"])
        m = build_model(
            s,
            specs,
            [
                make_cpd("X", (), [[0.3, 0.7]], specs),
                make_cpd("phi", (), [[0.5, 0.5]], specs),
            ],
        )
        with pytest.raises(ZeroMeanCriticality):
            sigma(m, CP, "phi")

    def test_code_rescaling_identities(self, reality_model):
        lam = 3.75
        specs = dict(reality_model.specs)
        old = specs["phi"]
        specs["phi"] = VariableSpec(
            name="phi", domain=old.domain,
            codes=tuple(lam * c for c in old.codes),
            unit=old.unit, value_range=old.value_range,
        )
        scaled = build_model(
            reality_model.structure, specs, reality_model.cpds.values()
        )
        assert ace(scaled, CP, "phi").value == pytest.approx(
            lam * ace(reality_model, CP, "phi").value, abs=1e-9
        )
        assert rce(scaled, CP, "phi").value == pytest.approx(
            rce(reality_model, CP, "phi").value, abs=1e-9
        )
        assert sigma(scaled, CP, "phi").value == pytest.approx(
            sigma(reality_model, CP, "phi").value, abs=1e-9
        )

    def test_not_identifiable_without_instantiated_adjustment(self):
        # Confounder U and phi carry no CPD: the truncated closure of phi
        # needs both, and on a Markovian model no other route needs less.
        specs = {
            n: VariableSpec(name=n, domain=("notCP", "CP") if n == "X" else ("a", "b"),
                            codes=(0.0, 1.0))
            for n in ("U", "X", "phi")
        }
        s = build_structure(["U", "X", "phi"], [("U", "X"), ("U", "phi"), ("X", "phi")])
        m = build_model(
            s, specs, [make_cpd("X", ("U",), [[0.4, 0.6], [0.7, 0.3]], specs)]
        )
        from causalcrit.errors import InsufficientInstantiation, NotIdentifiable

        with pytest.raises(InsufficientInstantiation, match=r"\['U', 'phi'\]"):
            ace(m, CP, "phi")
        # X -> phi and X <-> phi, both instantiated: the arc is a back-door
        # path that no set blocks.
        s = build_structure(["X", "phi"], [("X", "phi")], bidirected=[("X", "phi")])
        m = build_model(
            s,
            {n: specs[n] for n in ("X", "phi")},
            [
                make_cpd("X", (), [[0.4, 0.6]], specs),
                make_cpd("phi", ("X",), [[0.9, 0.1], [0.2, 0.8]], specs),
            ],
        )
        with pytest.raises(NotIdentifiable):
            ace(m, CP, "phi")

    def test_no_directed_path_means_null_effect(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 10:
            m = random_binary_model(rng, max_nodes=5)
            names = sorted(m.instantiated)
            x = rng.choice(names)
            targets = [n for n in names if n != x and n not in descendants(m.structure, x)]
            if not targets:
                continue
            target = targets[0]
            cp = PhenomenonBinding(variable=x, cp_label="a")
            assert ace(m, cp, target).value == pytest.approx(0.0, abs=1e-9)
            assert rce(m, cp, target).value == pytest.approx(1.0, abs=1e-9)
            checked += 1


class TestRho1:
    def test_heavy_rain_pair_is_zero(self, reality_model, candidate_model):
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        assert rho1(pair, CP).value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_candidate_against_fixture(self, reality_model, candidate_model):
        # replace the candidate's phenomenon CPD with a parent-ignoring
        # uniform table: its marginal becomes (0.5, 0.5)
        specs = candidate_model.specs
        cpds = dict(candidate_model.cpds)
        cpds["X"] = make_cpd("X", ("V1", "V2"), [[0.5, 0.5]] * 4, specs)
        uniform = build_model(candidate_model.structure, specs, cpds.values())
        pair = ModelPair(reference=reality_model, candidate=uniform)
        expected = 0.5 * math.log(0.5 / 0.33) + 0.5 * math.log(0.5 / 0.67)
        assert rho1(pair, CP).value == pytest.approx(expected, abs=1e-12)

    def test_identical_models_zero(self, reality_model):
        pair = ModelPair(reference=reality_model, candidate=reality_model)
        assert rho1(pair, CP).value == 0.0

    def test_metadata_carries_both_directions(self, reality_model, candidate_model):
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        report = rho1(pair, CP)
        assert report.metadata["kl_order"] == "candidate||reference"
        assert "reverse_value" in report.metadata
        assert report.metadata["log_base"] == "nats"

    def test_is_rho2_over_the_phenomenon(self, reality_model, candidate_model):
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        one, two = rho1(pair, CP, bits=True), rho2(pair, ["X"], bits=True)
        assert (one.name, one.node_set, one.value) == ("rho1", ("X",), two.value)
        marginals = {"candidate_marginal", "reference_marginal"}
        assert {k: v for k, v in one.metadata.items() if k not in marginals} == two.metadata
        domain = reality_model.specs["X"].domain
        for key, m in (("candidate_marginal", candidate_model), ("reference_marginal", reality_model)):
            p_x = brute_marginal(*brute_joint(m), ["X"])
            assert list(one.metadata[key]) == list(domain)
            assert list(one.metadata[key].values()) == pytest.approx([p_x[(x,)] for x in domain], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_pairs_match_brute_force(self, data):
        # Phenomenon variables of 1-3 labels, the KL summed in domain order.
        m = data.draw(random_models())
        pair = ModelPair(reference=m, candidate=redrawn(m, data.draw(st.integers(0, 2**32 - 1))))
        x = data.draw(st.sampled_from(sorted(m.structure.nodes)))
        p_ref = brute_marginal(*brute_joint(m), [x])
        p_cand = brute_marginal(*brute_joint(pair.candidate), [x])
        assume(all(p_ref.values()))
        report = rho1(pair, PhenomenonBinding(variable=x, cp_label=m.specs[x].domain[0]))
        assert report.value == pytest.approx(brute_kl(p_cand, p_ref), abs=1e-12)
        domain = m.specs[x].domain
        for key, expected in (("candidate_marginal", p_cand), ("reference_marginal", p_ref)):
            assert list(report.metadata[key]) == list(domain)
            assert list(report.metadata[key].values()) == pytest.approx(
                [expected[(label,)] for label in domain], abs=1e-12
            )

    def test_domain_mismatch_rejected(self, reality_model, candidate_model):
        from causalcrit.errors import ValidationError

        specs = dict(candidate_model.specs)
        specs["X"] = VariableSpec(
            name="X", domain=("dry", "rainy"), codes=(0.0, 1.0)
        )
        renamed = build_model(
            candidate_model.structure,
            specs,
            [
                candidate_model.cpds["V1"],
                candidate_model.cpds["V2"],
                make_cpd("X", ("V1", "V2"), candidate_model.cpds["X"].table, specs),
                make_cpd("phi", ("V2", "X"), candidate_model.cpds["phi"].table, specs),
            ],
        )
        pair = ModelPair(reference=reality_model, candidate=renamed)
        with pytest.raises(ValidationError):
            rho1(pair, CP)


class TestRho2:
    def test_heavy_rain_fixture_value(self, reality_model, candidate_model):
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        report = rho2(pair, ["V1", "V2", "X"])
        assert report.value == pytest.approx(0.0141, abs=1e-4)
        assert report.value == pytest.approx(0.014106858898, abs=1e-9)

    def test_reverse_direction_value(self, reality_model, candidate_model):
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        report = rho2(pair, ["V1", "V2", "X"])
        assert report.metadata["reverse_value"] == pytest.approx(0.01473, abs=2e-5)

    def test_identical_models_zero(self, reality_model):
        pair = ModelPair(reference=reality_model, candidate=reality_model)
        assert rho2(pair, ["V1", "V2", "X"]).value == pytest.approx(0.0, abs=1e-12)


class TestCausalInfluence:
    def test_empty_edge_set_zero(self, reality_model):
        assert causal_influence(reality_model, []) == 0.0

    def test_edge_outside_the_structure_rejected(self, reality_model):
        with pytest.raises(InvalidQuery, match=r"^edge \('phi', 'X'\) is not in the structure$"):
            causal_influence(reality_model, [("phi", "X")])

    def test_bare_string_edges_rejected(self, reality_model):
        # Read one character at a time, "V1X" was the edge ('1',).
        with pytest.raises(InvalidQuery, match=r"^edges needs a collection of \(parent, child\) pairs, got 'V1X'$"):
            causal_influence(reality_model, "V1X")

    def test_ignored_parent_gives_zero(self):
        specs = {
            "A": VariableSpec(name="A", domain=("x", "y"), codes=(0.0, 1.0)),
            "B": VariableSpec(name="B", domain=("x", "y"), codes=(0.0, 1.0)),
        }
        s = build_structure(["A", "B"], [("A", "B")])
        m = build_model(
            s,
            specs,
            [
                make_cpd("A", (), [[0.4, 0.6]], specs),
                make_cpd("B", ("A",), [[0.7, 0.3], [0.7, 0.3]], specs),
            ],
        )
        assert causal_influence(m, [("A", "B")]) == pytest.approx(0.0, abs=1e-12)

    def test_reality_out_v2(self, reality_model):
        value = causal_influence(reality_model, [("V2", "phi")])
        assert value == pytest.approx(0.13197, abs=1e-5)
        assert value == pytest.approx(
            brute_causal_influence(reality_model, [("V2", "phi")]), abs=1e-12
        )

    def test_model_out_v2(self, candidate_model):
        edges = [("V2", "X"), ("V2", "phi")]
        value = causal_influence(candidate_model, edges)
        assert value == pytest.approx(0.14544, abs=1e-5)
        assert value == pytest.approx(
            brute_causal_influence(candidate_model, edges), abs=1e-12
        )

    def test_random_models_match_brute_force(self):
        rng = random.Random(99)
        for _ in range(15):
            m = random_binary_model(rng, max_nodes=4)
            edges = [e for e in sorted(m.structure.directed) if rng.random() < 0.6]
            assert causal_influence(m, edges) == pytest.approx(
                brute_causal_influence(m, edges), abs=1e-10
            )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cutting_two_parents_of_one_child_matches_brute_force(self, data):
        m = data.draw(random_models(min_nodes=3, max_nodes=5))
        edges = sorted(m.structure.directed)
        children = sorted({b for _, b in edges if len(m.cpds[b].parents) >= 2})
        assume(children)
        child = data.draw(st.sampled_from(children))
        two = data.draw(
            st.lists(st.sampled_from(m.cpds[child].parents), min_size=2, max_size=2, unique=True)
        )
        cut = {(p, child) for p in two} | data.draw(st.sets(st.sampled_from(edges)))
        assert causal_influence(m, cut) == pytest.approx(
            brute_causal_influence(m, cut), abs=1e-12
        )

    @pytest.mark.parametrize("edges", [[], [("V2", "phi")], [("V1", "X"), ("V3", "X"), ("X", "phi")]])
    def test_one_driver_run_and_one_joint_tables_call(self, reality_model, edges):
        names = {model._run.__code__: "_run", model.joint_tables.__code__: "joint_tables"}
        counted = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                counted[names[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            value = causal_influence(reality_model, edges)
        finally:
            sys.setprofile(None)
        assert counted == {"_run": 1, "joint_tables": 1}
        assert value == pytest.approx(brute_causal_influence(reality_model, edges), abs=1e-12)

    def test_non_markovian_rejected(self):
        specs = {
            n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0))
            for n in ("A", "B")
        }
        s = build_structure(["A", "B"], [("A", "B")], bidirected=[("A", "B")])
        m = build_model(
            s,
            specs,
            [
                make_cpd("A", (), [[0.5, 0.5]], specs),
                make_cpd("B", ("A",), [[0.3, 0.7], [0.6, 0.4]], specs),
            ],
        )
        with pytest.raises(NotMarkovian):
            causal_influence(m, [("A", "B")])


@contextlib.contextmanager
def _recorded_calls():
    """The (model, scopes, do) of every joint_tables call made inside the block."""
    calls = []
    real = model.joint_tables

    def recording(m, scopes, *args, **kwargs):
        calls.append((m, scopes, kwargs.get("do")))
        return real(m, scopes, *args, **kwargs)

    with mock.patch.object(model, "joint_tables", recording):
        yield calls


class TestRho3:
    def test_identical_pair_zero(self, reality_model):
        pair = ModelPair(reference=reality_model, candidate=reality_model)
        for nodes in (["V1", "V2", "X"], ["V1", "X"], ["V2", "X", "phi"]):
            assert rho3(pair, nodes, CP).value == pytest.approx(0.0, abs=1e-12)

    def test_heavy_rain_full_graph_semantics(self, reality_model, candidate_model):
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        report = rho3(pair, ["V1", "V2", "X"], CP)
        assert report.value == pytest.approx(0.013472, abs=5e-6)
        comp = report.metadata["components"]
        assert comp["V1"] == pytest.approx(0.0, abs=1e-12)
        assert comp["V2"] == pytest.approx(-0.013472, abs=5e-6)

    def test_heavy_rain_restricted_semantics(self, reality_model, candidate_model):
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        report = rho3(pair, ["V1", "V2", "X"], CP, restrict_to_set=True)
        assert report.value == pytest.approx(0.019009, abs=5e-6)
        assert report.metadata["semantics"] == "restricted-to-set"

    @pytest.mark.parametrize("restrict", [False, True])
    def test_empty_node_set_rejected(self, reality_model, candidate_model, restrict):
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        with pytest.raises(InvalidQuery, match="rho3 needs a non-empty node set"):
            rho3(pair, [], CP, restrict_to_set=restrict)

    @pytest.mark.parametrize("restrict, calls", [(False, 2), (True, 4)])
    def test_one_inference_call_per_model(self, reality_model, candidate_model, restrict, calls):
        # Full-graph: one calibration per model gives every P(pa_c).
        # Restricted: one more per model gives every kept family.
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        with _recorded_calls() as counted:
            rho3(pair, ["V1", "V2", "X", "phi"], CP, restrict_to_set=restrict)
        assert len(counted) == calls

    @pytest.mark.parametrize("restrict, rounds", [(False, 1), (True, 2)])
    def test_one_inference_call_per_shared_pair(self, reality_model, restrict, rounds):
        # Redrawn tables keep the structure, so the candidate replays the
        # plan of the reference's first-round call, and its report is that
        # of the same pair with every call planned alone (a cap of 0 plans).
        # The restricted second round asks the two induced sub-models, whose
        # induced structures are equal, so it plans once.
        pair = ModelPair(reference=reality_model, candidate=redrawn(reality_model, 5))
        nodes = ["V1", "V2", "X", "phi"]
        with mock.patch.dict(model._PLANS, clear=True):
            with _recorded_calls() as counted, mock.patch.object(model, "_plan", wraps=model._plan) as planned:
                report = rho3(pair, nodes, CP, restrict_to_set=restrict)
        with mock.patch.object(model, "_PLANS_PER_STRUCTURE", 0):
            assert report == rho3(pair, nodes, CP, restrict_to_set=restrict)
        assert len(counted) == 2 * rounds
        assert planned.call_count == rounds

    def test_perturbed_candidate_is_detected(self, reality_model):
        cpds = dict(reality_model.cpds)
        perturbed_table = np.array(reality_model.cpds["phi"].table)
        perturbed_table[[0, 1]] = perturbed_table[[1, 0]]
        cpds["phi"] = make_cpd(
            "phi", ("V2", "X"), perturbed_table, reality_model.specs
        )
        pair = ModelPair(
            reference=reality_model,
            candidate=build_model(
                reality_model.structure, reality_model.specs, cpds.values()
            ),
        )
        assert rho3(pair, ["V1", "V2", "X"], CP).value > 0.0


def _leaves(x, path=()):
    """(path, value) for every leaf of a nested report."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, (*path, k))
    elif isinstance(x, list):
        for k, v in enumerate(x):
            yield from _leaves(v, (*path, k))
    else:
        yield path, x


def _outcome(fn):
    """The report dicts ``fn`` returns, or the type and message of the error it raises."""
    try:
        return [r.as_dict() for r in fn()]
    except CausalCritError as exc:
        return type(exc), str(exc)


def _attempt(fn):
    """(True, what ``fn`` returns), or (False, the type and message of its error)."""
    try:
        return True, fn()
    except CausalCritError as exc:
        return False, (type(exc), str(exc))


def _group(m, scopes, do):
    """The key under which the driver answers an ask of a route step."""
    rows = tuple((n, tuple(r)) for n, r in sorted((do or {}).items()))
    return m, rows, tuple(dict.fromkeys(tuple(sorted(set(s))) for s in scopes))


@st.composite
def shared_pairs(draw):
    """A partially instantiated pair on one semi-Markovian structure.

    Up to two confounding arcs, up to one node without a CPD in both models
    and one more without in the candidate; about a fifth of the CPD rows are
    point masses, so a parents route can meet a zero-probability condition.
    """
    full = random_binary_model(draw(st.randoms(use_true_random=False)), max_nodes=6)
    nodes = sorted(full.instantiated)
    x = draw(st.sampled_from(nodes))
    below = sorted(descendants(full.structure, x))
    metric = draw(st.sampled_from(nodes) | st.sampled_from(below or nodes) | st.sampled_from(below or nodes))
    # About half the arcs end at x, where the parents route refuses.
    pairs = list(itertools.combinations(nodes, 2))
    at_x = [p for p in pairs if x in p]
    arcs = draw(st.lists(st.sampled_from(at_x) | st.sampled_from(pairs), max_size=2))
    structure = build_structure(nodes, full.structure.directed, bidirected=arcs)
    removed = draw(st.sets(st.sampled_from(nodes), max_size=1))

    def tables(drop):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cpds = []
        for n, cpd in full.cpds.items():
            if n not in drop:
                u = rng.uniform(0.1, 0.9, len(cpd.table))
                u = np.where(rng.random(u.size) < 0.2, rng.integers(2, size=u.size), u)
                cpds.append(make_cpd(n, cpd.parents, np.stack([u, 1.0 - u], axis=1), full.specs))
        return build_model(structure, full.specs, cpds)

    ref = tables(removed)
    cand = tables(removed | draw(st.sets(st.sampled_from(nodes), max_size=1)))
    return ref, cand, x, metric


class TestIndicatorReports:
    @settings(max_examples=200, deadline=None)
    @given(shared_pairs())
    def test_effect_rows_equal_each_models_own_plan(self, drawn):
        # Each model's do() rows, route label and call sequence alone; the
        # auto rule takes truncated, parents, backdoor, point-mass and
        # observational routes, the parents route falling back on missing
        # CPDs, a confounded x or a zero-probability condition.
        ref, cand, x, metric = drawn
        do = {x: ["b", "a"]}
        alone, rounds = [], []
        for m in (ref, cand):
            with _recorded_calls() as calls:
                alone.append(_attempt(lambda: plan_effect(m, do, metric)))
            rounds.append([_group(m, scopes, rows) for _, scopes, rows in calls])
            if alone[-1][0]:
                event(alone[-1][1][0].split(":")[0])
        # One effect call per round per model and group of equal asks.
        effect_calls = sum(len(set(keys) - {None}) for keys in itertools.zip_longest(*rounds))
        with _recorded_calls() as calls:
            both = _attempt(lambda: model._run([engine._plan_step(m, do, metric) for m in (ref, cand)]))
        if alone[0][0] and alone[1][0]:
            assert both == (True, [alone[0][1], alone[1][1]])
            assert len(calls) == effect_calls
        else:
            assert not both[0] and both[1] in [v for ok, v in alone if not ok]
        # The same rows reach the effect reports, with one more call per
        # model for the joints of sigma and rho1.
        cp = PhenomenonBinding(variable=x, cp_label="b")
        with _recorded_calls() as calls:
            ok, reports = _attempt(lambda: indicator_reports(ModelPair(ref, cand), cp, metric))
        if not ok:
            return
        for role, m, (_, (route, (d_cp, d_not))) in zip(("reference", "candidate"), (ref, cand), alone):
            effects = [r for r in reports if r.metadata.get("role") == role]
            assert [r.name for r in effects] == ["ACE", "RCE", "sigma"]
            for r in effects:
                assert r.metadata["route"] == route
                assert r.metadata["e_do_cp"] == expectation(d_cp, m, metric)
                assert r.metadata["e_do_not_cp"] == expectation(d_not, m, metric)
        assert len(calls) == effect_calls + 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equal_to_the_separate_calls_and_brute_force(self, data):
        ref = data.draw(random_models(min_nodes=2, max_nodes=5))
        nodes = list(ref.structure.nodes)
        binary = [n for n in nodes if ref.specs[n].cardinality == 2]
        assume(binary)
        x = data.draw(st.sampled_from(binary))
        # A one-label metric has E = 0 and every indicator stops at RCE.
        metrics = [n for n in nodes if n != x and ref.specs[n].cardinality > 1]
        assume(metrics)
        metric = data.draw(st.sampled_from(metrics))
        cp = PhenomenonBinding(variable=x, cp_label="c1")
        # The candidate keeps the specs and some of the edges, with fresh tables.
        edges = sorted(e for e in sorted(ref.structure.directed) if data.draw(st.booleans()))
        structure = build_structure(nodes, edges)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cpds = []
        for n in nodes:
            parents = tuple(sorted(structure.parents(n)))
            rows = math.prod(ref.specs[p].cardinality for p in parents)
            table = rng.dirichlet(np.ones(ref.specs[n].cardinality), size=rows)
            cpds.append(make_cpd(n, parents, table, ref.specs))
        cand = build_model(structure, ref.specs, cpds)
        pair = ModelPair(reference=ref, candidate=cand)
        node_set = sorted(data.draw(st.sets(st.sampled_from(nodes), min_size=1)))
        restrict = data.draw(st.booleans())

        def separate():
            reports = []
            for role, m in (("reference", ref), ("candidate", cand)):
                for r in (fn(m, cp, metric) for fn in (ace, rce, sigma)):
                    r.metadata["role"] = role
                    reports.append(r)
            return [
                *reports,
                rho1(pair, cp),
                rho2(pair, node_set),
                rho3(pair, node_set, cp, restrict_to_set=restrict),
            ]

        calls = []

        def recording(m, scopes, *args, **kwargs):
            tables = joint_tables(m, scopes, *args, **kwargs)
            calls.append((m, scopes, bool(kwargs.get("do")), tables))
            return tables

        joint_tables = model.joint_tables
        with mock.patch.object(model, "joint_tables", recording):
            batched = _outcome(lambda: indicator_reports(pair, cp, metric, node_set, restrict))
        expected = _outcome(separate)
        if isinstance(expected, tuple):
            assert batched == expected
            return
        a, b = dict(_leaves(expected)), dict(_leaves(batched))
        assert a.keys() == b.keys()
        for key, value in a.items():
            if isinstance(value, float):
                assert b[key] == pytest.approx(value, abs=1e-12), key
            else:
                assert b[key] == value, key
        # Per model, one call for the do() rows of the truncated route and
        # one for the other joints, and one more per induced sub-model.
        assert [c[0] for c in calls if c[2]] == [ref, cand]
        assert [c[0] for c in calls if not c[2]][:2] == [ref, cand]
        assert len(calls) == 4 + 2 * restrict
        for m, scopes, do, tables in calls:
            if do:
                continue
            names, joint = brute_joint(m)
            for scope, table in zip(scopes, tables):
                for labels, p in brute_marginal(names, joint, scope).items():
                    idx = tuple(m.specs[n].index_of(v) for n, v in zip(scope, labels))
                    assert table[idx] == pytest.approx(p, abs=1e-12)

    def test_error_precedence_rce_denominator_against_spec_check(self):
        # The reference's E(metric | do(notCP)) is zero, and rho2's set holds
        # a node whose domain the pair does not share: both fail. Every spec
        # check runs before any error that needs values, RCE's included.
        specs = {
            "X": VariableSpec(name="X", domain=("notCP", "CP"), codes=(0.0, 1.0)),
            "phi": VariableSpec(name="phi", domain=("a", "b"), codes=(0.0, 1.0)),
        }
        s = build_structure(["X", "phi"], [("X", "phi")])
        tables = {"X": [[0.3, 0.7]], "phi": [[1.0, 0.0], [0.5, 0.5]]}
        ref = build_model(s, specs, [make_cpd(n, sorted(s.parents(n)), t, specs) for n, t in tables.items()])
        specs["phi"] = VariableSpec(name="phi", domain=("a", "c"), codes=(0.0, 1.0))
        cand = build_model(s, specs, [make_cpd(n, sorted(s.parents(n)), t, specs) for n, t in tables.items()])
        pair = ModelPair(reference=ref, candidate=cand)
        with pytest.raises(ValidationError, match="domain mismatch for 'phi'"):
            indicator_reports(pair, CP, "phi", ["phi"])
        with pytest.raises(DivisionByZeroEffect):
            indicator_reports(pair, CP, "phi")

    def test_zero_probability_fallback_is_one_more_round(self):
        # P(X = b | P = a) = 0: the parents route meets a zero-probability
        # condition once it has its joint, and auto falls back to Y's
        # observational marginal, as Y does not descend from X.
        specs = {n: VariableSpec(name=n, domain=("a", "b"), codes=(0.0, 1.0)) for n in "PXWY"}
        s = build_structure(list("PXWY"), [("P", "X"), ("W", "Y")], bidirected=[("W", "Y")])

        def pair_model(p, y):
            tables = {"P": [p], "X": [[1.0, 0.0], [0.3, 0.7]], "W": [[0.5, 0.5]], "Y": y}
            return build_model(s, specs, [make_cpd(n, sorted(s.parents(n)), t, specs) for n, t in tables.items()])

        ref = pair_model([0.4, 0.6], [[0.2, 0.8], [0.6, 0.4]])
        cand = pair_model([0.7, 0.3], [[0.1, 0.9], [0.5, 0.5]])
        cp = PhenomenonBinding(variable="X", cp_label="b")
        with _recorded_calls() as calls:
            alone = plan_effect(ref, {"X": ["b", "a"]}, "Y")
        assert alone[0] == "observational"
        assert [scopes for _, scopes, _ in calls] == [[("P", "X", "Y")], [("Y",)]]
        with _recorded_calls() as calls:
            reports = indicator_reports(ModelPair(ref, cand), cp, "Y")
        # Round one: each model's parents joint, then its sigma and rho1
        # joints; round two: each model's observational rows.
        assert [(m, scopes) for m, scopes, _ in calls] == [
            (ref, [("P", "X", "Y")]),
            (ref, [("Y",), ("X",)]),
            (cand, [("P", "X", "Y")]),
            (cand, [("Y",), ("X",)]),
            (ref, [("Y",)]),
            (cand, [("Y",)]),
        ]
        (e_cp, e_not) = (expectation(d, ref, "Y") for d in alone[1])
        assert reports[0].metadata["route"] == "observational"
        assert (reports[0].metadata["e_do_cp"], reports[0].metadata["e_do_not_cp"]) == (e_cp, e_not)

    @staticmethod
    def _nodes_and_rows(calls):
        """(the model's node tuple, whether do rows were given) per joint_tables call."""
        return [(m.structure.nodes, bool(do)) for m, _, do in calls]

    @pytest.mark.parametrize("extra, sub_models", [((), 0), (("--rho3-restricted",), 2)])
    def test_one_elimination_per_model(self, extra, sub_models):
        # Each model answers its do() rows from one joint_tables call and
        # every other joint from one more; rho1, sigma and rho2 make no
        # inference call of their own.
        argv = ["indicators", "heavy-rain-reality", "heavy-rain-model", "--set", "V1,V2,X", *extra]
        with _recorded_calls() as calls:
            assert main([*argv, "--format", "json"]) == 0
        ref, cand = ("V1", "V2", "V3", "X", "phi"), ("V1", "V2", "X", "phi")
        assert self._nodes_and_rows(calls) == [
            (ref, True),
            (ref, False),
            (cand, True),
            (cand, False),
            *[(("V1", "V2", "X"), False)] * sub_models,
        ]

    @pytest.mark.parametrize("extra, restricted_rounds", [((), 0), (("--rho3-restricted",), 1)])
    def test_one_elimination_per_shared_pair(self, capsys, tmp_path, reality_model, extra, restricted_rounds):
        # A file that repeats the fixture's declaration is read through the
        # fixture's relation, so both models hold the fixture's structure
        # object. On a cleared plan cache the reference plans its do() rows
        # and its other joints, the redrawn candidate replays both plans, and
        # a restricted round plans once for the pair's equal induced structures.
        relation, _ = fixture("heavy-rain-reality")
        ref, cand = tmp_path / "ref.json", tmp_path / "redrawn.json"
        ref.write_text(model_to_text(relation, reality_model), encoding="utf-8")
        cand.write_text(model_to_text(relation, redrawn(reality_model, 5)), encoding="utf-8")
        assert load_model(cand)[1].structure is reality_model.structure
        argv = ["indicators", "heavy-rain-reality", str(cand), "--set", "V1,V2,X", *extra, "--format", "json"]
        with mock.patch.dict(model._PLANS, clear=True):
            with _recorded_calls() as calls, mock.patch.object(model, "_plan", wraps=model._plan) as planned:
                assert main(argv) == 0
        shared = capsys.readouterr().out
        assert planned.call_count == 2 + restricted_rounds
        nodes = reality_model.structure.nodes
        assert self._nodes_and_rows(calls) == [
            (nodes, True),
            (nodes, False),
            (nodes, True),
            (nodes, False),
            *[(("V1", "V2", "X"), False)] * 2 * restricted_rounds,
        ]
        # Read with no declaration to reuse and with every call planned
        # alone, the candidate prints the same bytes; two files of one
        # declaration give the same report.
        with mock.patch.dict(io._DECLARED, clear=True), mock.patch.object(model, "_PLANS_PER_STRUCTURE", 0):
            assert main(argv) == 0
        assert capsys.readouterr().out == shared
        assert main(["indicators", str(ref), *argv[2:]]) == 0
        assert {**json.loads(capsys.readouterr().out), "reference": None} == {**json.loads(shared), "reference": None}

    def test_files_on_one_graph_share_their_plans(self, capsys, tmp_path):
        # Two copies of the reality fixture, the second with one more context
        # statement and another V2 table: the declarations differ, so each
        # file builds a structure of its own, but the two are equal, so the
        # candidate replays the reference's two plans. With every call
        # planned alone, the same bytes take four plans.
        payload = json.loads(fixture_text("heavy-rain-reality"))
        ref, cand = tmp_path / "a.json", tmp_path / "b.json"
        ref.write_text(json.dumps(payload), encoding="utf-8")
        payload["context"].append({"kind": "existence", "layer": 1, "subject": "road surface"})
        next(c for c in payload["cpds"] if c["child"] == "V2")["table"] = [[0.25, 0.75]]
        cand.write_text(json.dumps(payload), encoding="utf-8")
        (_, a), (_, b) = load_model(ref), load_model(cand)
        assert a.structure == b.structure and a.structure is not b.structure
        argv = ["indicators", str(ref), str(cand), "--set", "V1,V2,X", "--format", "json"]
        outs = []
        for cap, plans in ((model._PLANS_PER_STRUCTURE, 2), (0, 4)):
            with (
                mock.patch.dict(model._PLANS, clear=True),
                mock.patch.object(model, "_PLANS_PER_STRUCTURE", cap),
                mock.patch.object(model, "_plan", wraps=model._plan) as planned,
            ):
                assert main(argv) == 0
            assert planned.call_count == plans
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
