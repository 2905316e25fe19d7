import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import causalcrit.engine as engine
import causalcrit.indicators as indicators
import causalcrit.model as model
from causalcrit.cli import main
from causalcrit.context import PhenomenonBinding
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
from causalcrit.model import VariableSpec, build_model, make_cpd

from oracles import brute_causal_influence, brute_joint, brute_marginal
from test_engine import random_binary_model
from test_model import random_models

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
    def test_one_inference_call_per_model(
        self, monkeypatch, reality_model, candidate_model, restrict, calls
    ):
        # Full-graph: one calibration per model gives every P(pa_c).
        # Restricted: one more per model gives every kept family.
        counted = []
        for module, name in ((model, "joint_table"), (indicators, "joint_tables")):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counted.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        pair = ModelPair(reference=reality_model, candidate=candidate_model)
        rho3(pair, ["V1", "V2", "X", "phi"], CP, restrict_to_set=restrict)
        assert counted == ["joint_tables"] * calls

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


class TestIndicatorReports:
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
            calls.append((m, scopes, tables))
            return tables

        joint_tables = indicators.joint_tables
        with mock.patch.object(indicators, "joint_tables", recording):
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
        # One call per model, and one more per induced sub-model.
        assert [c[0] for c in calls[:2]] == [ref, cand]
        assert len(calls) == (4 if restrict else 2)
        for m, scopes, tables in calls:
            names, joint = brute_joint(m)
            for scope, table in zip(scopes, tables):
                for labels, p in brute_marginal(names, joint, scope).items():
                    idx = tuple(m.specs[n].index_of(v) for n, v in zip(scope, labels))
                    assert table[idx] == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("extra, sub_models", [((), 0), (("--rho3-restricted",), 2)])
    def test_one_elimination_per_model(self, monkeypatch, extra, sub_models):
        # Outside plan_effect's two effect-row calls, each model answers every
        # joint from one joint_tables call; rho1, sigma and rho2 make no
        # joint_table call of their own.
        calls = []
        for module, name in ((model, "joint_table"), (engine, "joint_table"), (indicators, "joint_tables")):

            def counting(m, *args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append((_name, m.structure.nodes, bool(kwargs.get("do"))))
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        argv = ["indicators", "heavy-rain-reality", "heavy-rain-model", "--set", "V1,V2,X", *extra]
        assert main([*argv, "--format", "json"]) == 0
        ref, cand = ("V1", "V2", "V3", "X", "phi"), ("V1", "V2", "X", "phi")
        assert calls == [
            ("joint_table", ref, True),
            ("joint_table", cand, True),
            ("joint_tables", ref, False),
            ("joint_tables", cand, False),
            *[("joint_tables", ("V1", "V2", "X"), False)] * sub_models,
        ]
