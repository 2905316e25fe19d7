import gc
import hashlib
import math
import re
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit.errors import (
    EmptyDataset,
    InsufficientInstantiation,
    InvalidQuery,
    StateSpaceExceeded,
    UnknownNode,
    UnseenParentConfigurationWarning,
    ValidationError,
)
from causalcrit import graph, model
from causalcrit.graph import build_structure
from causalcrit.model import (
    Cpd,
    Dataset,
    VariableSpec,
    build_model,
    estimate_cpds,
    joint_tables,
    make_cpd,
    sample,
)

from oracles import (
    brute_closure,
    brute_joint,
    brute_marginal,
    brute_missing_cpds,
    brute_sample,
    conditionally_independent,
    exact_joint,
    exact_replay,
)


def state_space_limit(states):
    """The block's calls refuse a factor over more than ``states`` states."""
    return mock.patch.object(model, "DEFAULT_STATE_SPACE_LIMIT", states)


def binary_spec(name, labels=("no", "yes")):
    return VariableSpec(name=name, domain=labels, codes=(0.0, 1.0))


@st.composite
def random_models(draw, min_nodes=1, max_nodes=6, sparse=False, latent=False):
    """Fully instantiated DAG models with 1-3 labels per node and Dirichlet CPDs.

    ``sparse`` zeroes some table entries; ``latent`` flags some nodes latent.
    """
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"N{i}" for i in range(n)]
    cards = [draw(st.integers(1, 3)) for _ in names]
    edges = [
        (names[i], names[j])
        for j in range(n)
        for i in sorted(draw(st.sets(st.integers(0, j - 1), max_size=3)) if j else ())
    ]
    hidden = draw(st.sets(st.sampled_from(names))) if latent else ()
    s = build_structure(names, edges, latent=hidden)
    specs = {
        name: VariableSpec(
            name=name,
            domain=tuple(f"c{k}" for k in range(card)),
            codes=tuple(float(k) for k in range(card)),
        )
        for name, card in zip(names, cards)
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cpds = []
    for name, card in zip(names, cards):
        parents = tuple(sorted(s.parents(name)))
        rows = math.prod(specs[p].cardinality for p in parents)
        table = rng.dirichlet(np.ones(card), size=rows)
        if sparse:
            table[rng.random(table.shape) < 0.4] = 0.0
            dead = np.flatnonzero(table.sum(axis=1) == 0.0)
            table[dead, rng.integers(card, size=dead.size)] = 1.0
            table /= table.sum(axis=1, keepdims=True)
        cpds.append(make_cpd(name, parents, table, specs))
    return build_model(s, specs, cpds)


@st.composite
def chain_models(draw, states=4096):
    """Models like the bench's: a chain of 6-12 nodes, 1-3 labels each (2
    listed first, which hypothesis favours), in which each node from the
    third on may also have a skip edge from an earlier node. Up to two nodes
    of the chain's second half have no CPD. Labels are taken away, from the
    first node with the most, until the joint of all nodes spans at most
    ``states`` states, so that the brute force stays quick."""
    n = draw(st.integers(6, 12))
    names = [f"N{i:02d}" for i in range(n)]
    edges = list(zip(names, names[1:]))
    for i in range(2, n):
        skip = draw(st.none() | st.integers(0, i - 2))
        if skip is not None:
            edges.append((names[skip], names[i]))
    cards = [draw(st.sampled_from((2, 3, 1))) for _ in names]
    while math.prod(cards) > states:
        cards[cards.index(max(cards))] -= 1
    missing = draw(st.sets(st.sampled_from(names[n // 2:]), max_size=2))
    s = build_structure(names, edges)
    specs = {
        name: VariableSpec(name=name, domain=tuple(f"c{k}" for k in range(card)), codes=tuple(map(float, range(card))))
        for name, card in zip(names, cards)
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cpds = []
    for name, card in zip(names, cards):
        parents = tuple(sorted(s.parents(name)))
        rows = math.prod(specs[p].cardinality for p in parents)
        if name not in missing:
            cpds.append(make_cpd(name, parents, rng.dirichlet(np.ones(card), size=rows), specs))
    return build_model(s, specs, cpds)


def closure_model(m, over, clamped):
    """The model over what a query on ``m`` needs (``brute_closure``): the
    edges into its unclamped nodes and their CPDs, and a uniform CPD for each
    clamped node, which the query's do() rows replace."""
    nodes = sorted(brute_closure(m, over, clamped))
    s = build_structure(nodes, [(a, b) for a, b in m.structure.directed if b in nodes and b not in clamped])
    specs = {n: m.specs[n] for n in nodes}
    cpds = [
        make_cpd(n, (), [[1 / specs[n].cardinality] * specs[n].cardinality], specs) if n in clamped else m.cpds[n]
        for n in nodes
    ]
    return build_model(s, specs, cpds)


def binary_chain(n):
    """V00 -> V01 -> ... with P(yes) per node and the exact P(V_i = yes)."""
    names = [f"V{i:02d}" for i in range(n)]
    specs = {name: binary_spec(name) for name in names}
    s = build_structure(names, list(zip(names, names[1:])))
    p_yes = [0.3]
    cpds = [make_cpd(names[0], (), [[0.7, 0.3]], specs)]
    for i in range(1, n):
        a, b = 0.1 + 0.8 * i / n, 0.9 - 0.5 * i / n  # P(yes | no), P(yes | yes)
        cpds.append(make_cpd(names[i], (names[i - 1],), [[1 - a, a], [1 - b, b]], specs))
        p_yes.append(a * (1 - p_yes[-1]) + b * p_yes[-1])
    return build_model(s, specs, cpds), p_yes


def single_node_model(p_yes=0.3):
    specs = {"A": binary_spec("A")}
    s = build_structure(["A"])
    return build_model(s, specs, [make_cpd("A", (), [[1 - p_yes, p_yes]], specs)])


class TestValidation:
    def test_cpd_row_sum_enforced(self):
        specs = {"A": binary_spec("A")}
        with pytest.raises(ValidationError, match=r"^CPD for 'A': row 0 sums to 0\.9, expected 1$"):
            make_cpd("A", (), [[0.5, 0.4]], specs)

    def test_cpd_entries_within_unit_interval(self):
        specs = {"A": binary_spec("A")}
        with pytest.raises(ValidationError):
            make_cpd("A", (), [[1.2, -0.2]], specs)

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_cpd_non_finite_cells_rejected(self, cell):
        # Every comparison with NaN is false, so no range or row-sum check
        # catches one.
        specs = {"A": binary_spec("A"), "B": binary_spec("B")}
        with pytest.raises(ValidationError, match="CPD for 'B': entries must be finite"):
            make_cpd("B", ("A",), [[0.5, 0.5], [cell, 1.0]], specs)

    def test_cpd_shape_checked(self):
        specs = {"A": binary_spec("A"), "B": binary_spec("B")}
        with pytest.raises(ValidationError):
            make_cpd("B", ("A",), [[0.5, 0.5]], specs)

    def test_cpd_ragged_rows_rejected(self):
        specs = {"A": binary_spec("A"), "B": binary_spec("B")}
        with pytest.raises(ValidationError, match="^CPD for 'B': table must be a list of equal-length rows"):
            make_cpd("B", ("A",), [[0.5, 0.5], [1.0]], specs)

    @pytest.mark.parametrize(
        "table",
        [[["0.5", "0.5"]], [[True, False]], [[0.5, None]], [[True, 0.0]], [[0.0, np.True_]]],
        ids=["str", "bool", "None", "bool-beside-number", "numpy-bool-beside-number"],
    )
    def test_cpd_cells_must_be_numbers(self, table):
        # numpy would read each of these as floats; only integers and floats are numbers here.
        specs = {"A": binary_spec("A")}
        with pytest.raises(ValidationError, match="^CPD for 'A': table must be a list of equal-length rows of numbers$"):
            make_cpd("A", (), table, specs)

    @settings(deadline=None)
    @given(st.data())
    def test_one_bad_cell_is_refused(self, data):
        # numpy reads True beside numbers as 1.0, so the table check alone
        # would take [[True, 0.0]] for a valid table.
        parents = ("P1", "P2")[: data.draw(st.integers(0, 2), label="parents")]
        card = data.draw(st.integers(1, 3), label="card")
        specs = {"A": VariableSpec("A", tuple("abc"[:card]), tuple(map(float, range(card))))}
        specs.update((p, binary_spec(p)) for p in parents)
        weights = st.lists(st.integers(1, 9), min_size=card, max_size=card)
        table = [[w / sum(row) for w in row] for row in data.draw(st.lists(
            weights, min_size=2 ** len(parents), max_size=2 ** len(parents)), label="weights")]
        r = data.draw(st.integers(0, len(table) - 1), label="row")
        c = data.draw(st.integers(0, card - 1), label="column")
        bad = data.draw(st.booleans() | st.sampled_from([np.True_, np.False_]) | st.text(max_size=3) | st.none()
                        | st.lists(st.floats(0, 1), max_size=2), label="cell")
        kept, table[r][c] = table[r][c], bad
        with pytest.raises(ValidationError, match="^CPD for 'A': table must be a list of equal-length rows"):
            make_cpd("A", parents, table, specs)
        table[r][c] = kept
        assert make_cpd("A", parents, table, specs).table.tolist() == table

    def test_cpd_parents_must_match_graph(self):
        specs = {"A": binary_spec("A"), "B": binary_spec("B")}
        s = build_structure(["A", "B"], [("A", "B")])
        with pytest.raises(ValidationError):
            build_model(s, specs, [make_cpd("B", (), [[0.5, 0.5]], specs)])

    def test_spec_domain_must_not_be_a_string(self):
        # A string domain was taken as is, and index_of("ab") found "ab" in it at 0.
        with pytest.raises(ValidationError, match="^A: domain needs a collection of labels, got 'ab'$"):
            VariableSpec("A", "ab", (0.0, 1.0))

    def test_cpd_that_skipped_the_cpd_check_is_refused(self):
        # A one-node pair with this candidate read rho2 = 0.693 with a NaN
        # reverse value; only tables that passed the check enter a model.
        specs = {"A": binary_spec("A")}
        s = build_structure(["A"])
        assert build_model(s, specs, [make_cpd("A", (), [[0.5, 0.5]], specs)]).instantiated == {"A"}
        message = "CPD for 'A' has not passed the CPD check: make it with make_cpd"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build_model(s, specs, [Cpd("A", (), np.array([[np.nan, 1.0]]))])

    @pytest.mark.parametrize(
        "names, spec_b, error, message",
        [
            (("A",), None, ValidationError, "no variable spec for node 'B'"),
            (("A", "B", "C"), None, UnknownNode, "spec for undeclared node 'C'"),
            (("A",), "A", ValidationError, "spec name 'A' filed under 'B'"),
        ],
        ids=["missing-spec", "undeclared-node", "misfiled-spec"],
    )
    def test_build_model_checks_spec_coverage(self, names, spec_b, error, message):
        # A model file declares one spec per node under its own name, so
        # only a hand-built model reaches these checks.
        specs = {n: binary_spec(n) for n in names}
        if spec_b:
            specs["B"] = binary_spec(spec_b)
        s = build_structure(["A", "B"], [("A", "B")])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build_model(s, specs)

    def test_spec_codes_length(self):
        with pytest.raises(ValidationError):
            VariableSpec(name="A", domain=("x", "y"), codes=(1.0,))

    def test_every_node_carries_a_cpd(self, reality_model):
        assert reality_model.instantiated == set(reality_model.structure.nodes)

    def test_state_space_bound(self):
        names = [f"v{i}" for i in range(9)]
        specs = {
            n: VariableSpec(name=n, domain=tuple(str(k) for k in range(8)),
                            codes=tuple(float(k) for k in range(8)))
            for n in names
        }
        s = build_structure(names)
        cpds = [make_cpd(n, (), [[0.125] * 8], specs) for n in names]
        m = build_model(s, specs, cpds)
        # The refusal names the scope's nodes.
        with pytest.raises(StateSpaceExceeded, match=re.escape(f": the joint over {names}") + "$"):
            joint_tables(m, [names])

    def test_state_space_bound_counts_intermediates(self):
        # A 2-state output whose elimination needs a 32-state bucket.
        names = ["C", "P0", "P1", "P2", "P3"]
        specs = {n: binary_spec(n) for n in names}
        s = build_structure(names, [(p, "C") for p in names[1:]])
        cpds = [make_cpd(p, (), [[0.5, 0.5]], specs) for p in names[1:]]
        cpds.append(make_cpd("C", tuple(names[1:]), [[0.5, 0.5]] * 16, specs))
        m = build_model(s, specs, cpds)
        with state_space_limit(32):
            assert joint_tables(m, [["C"]])[0].shape == (2,)
        # The refusal names the eliminated node and its neighbours; P0 is
        # first of the tied buckets by name.
        bucket = "the bucket of 'P0' and its neighbours ['C', 'P1', 'P2', 'P3'"
        with state_space_limit(31), pytest.raises(StateSpaceExceeded, match=re.escape(f"{bucket}]") + "$"):
            joint_tables(m, [["C"]])
        # Each intervened parent is summed out in its own bucket, which also
        # spans the two do() rows and the other parents: 64 states.
        do = {p: [0, 1] for p in names[1:]}
        with state_space_limit(64):
            assert joint_tables(m, [["C"]], do=do)[0].shape == (2, 2)
        with state_space_limit(63), pytest.raises(StateSpaceExceeded, match=re.escape(f"{bucket}, do() rows]") + "$"):
            joint_tables(m, [["C"]], do=do)


class TestJointProbability:
    """The probability of one assignment, read off the joint over every
    instantiated node."""

    def test_single_binary_node(self):
        (arr,) = joint_tables(single_node_model(0.3), [["A"]])
        assert arr.tolist() == pytest.approx([0.7, 0.3])

    def test_heavy_rain_fixture_product(self, reality_model):
        names = sorted(reality_model.instantiated)
        (arr,) = joint_tables(reality_model, [names])
        assignment = {"V1": "Summer", "V3": "Oceanic", "X": "CP", "V2": "Slow", "phi": "Short"}
        p = arr[tuple(reality_model.specs[n].index_of(assignment[n]) for n in names)]
        assert p == pytest.approx(0.5 * 0.6 * 0.6 * 0.6 * 0.8, abs=1e-12)

    def test_sums_to_one(self, reality_model):
        assert joint_tables(reality_model, [reality_model.instantiated])[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force(self, candidate_model):
        names, joint = brute_joint(candidate_model)
        (arr,) = joint_tables(candidate_model, [names])
        for values, p in joint.items():
            idx = tuple(
                candidate_model.specs[n].domain.index(v)
                for n, v in zip(names, values)
            )
            assert arr[idx] == pytest.approx(p, abs=1e-12)


def node_marginal(m, node):
    """P(node) as {label: probability}, from :func:`joint_tables`."""
    (arr,) = joint_tables(m, [[node]])
    return dict(zip(m.specs[node].domain, arr.tolist()))


class TestMarginal:
    def test_heavy_rain_reality_p_cp(self, reality_model):
        assert node_marginal(reality_model, "X")["CP"] == pytest.approx(0.67, abs=1e-12)

    def test_heavy_rain_model_p_cp(self, candidate_model):
        assert node_marginal(candidate_model, "X")["CP"] == pytest.approx(0.67, abs=1e-12)

    def test_root_marginal_is_prior(self, reality_model):
        dist = node_marginal(reality_model, "V2")
        assert dist == pytest.approx({"Slow": 0.6, "Fast": 0.4})

    def test_marginal_over_all_nodes_equals_joint(self, reality_model):
        names, joint = brute_joint(reality_model)
        (arr,) = joint_tables(reality_model, [names])
        for labels, p in joint.items():
            idx = tuple(reality_model.specs[n].index_of(v) for n, v in zip(names, labels))
            assert arr[idx] == pytest.approx(p, abs=1e-12)

    def test_conditional_renormalizes(self, reality_model):
        (arr,) = joint_tables(reality_model, [["V2", "phi"]])
        slow = arr[reality_model.specs["V2"].index_of("Slow")]
        dist = dict(zip(reality_model.specs["phi"].domain, (slow / slow.sum()).tolist()))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        # X independent of V2, so P(phi=Short | Slow) = sum_x P(x) P(Short | x, Slow)
        assert dist["Short"] == pytest.approx(0.67 * 0.8 + 0.33 * 0.6, abs=1e-12)

    def test_partial_model_rejected(self, reality_model):
        # Only V1 carries a CPD: a query is rejected exactly when its own
        # ancestral closure is not instantiated.
        partial = build_model(
            reality_model.structure,
            reality_model.specs,
            [reality_model.cpds["V1"]],
        )
        assert node_marginal(partial, "V1") == node_marginal(reality_model, "V1")
        with pytest.raises(
            InsufficientInstantiation, match=r"\['V2', 'V3', 'X', 'phi'\]"
        ):
            node_marginal(partial, "phi")


class TestVariableElimination:
    def test_missing_cpds_named_through_uninstantiated_nodes(self):
        # A -> B -> C with only C instantiated: the closure walks on through
        # B, which has no CPD, so A is named as missing too.
        specs = {n: binary_spec(n) for n in ("A", "B", "C")}
        s = build_structure(["A", "B", "C"], [("A", "B"), ("B", "C")])
        m = build_model(s, specs, [make_cpd("C", ("B",), [[0.5, 0.5], [0.1, 0.9]], specs)])
        with pytest.raises(InsufficientInstantiation, match=r"\['A', 'B'\]"):
            joint_tables(m, [["C"]])

    def test_long_chain_root_and_sink(self):
        # The full joint of 26 binary nodes has 2**26 states, above the
        # default limit; each query only needs 2- and 4-state factors.
        m, p_yes = binary_chain(26)
        assert node_marginal(m, "V00")["yes"] == pytest.approx(p_yes[0], abs=1e-12)
        assert node_marginal(m, "V25")["yes"] == pytest.approx(p_yes[25], abs=1e-12)

    def test_more_factors_than_einsum_operands(self):
        # 70 single-state parents leave 71 factors for the final contraction.
        parents = [f"P{i:02d}" for i in range(70)]
        specs = {p: VariableSpec(name=p, domain=("only",), codes=(0.0,)) for p in parents}
        specs["B"] = binary_spec("B")
        s = build_structure(parents + ["B"], [(p, "B") for p in parents])
        cpds = [make_cpd(p, (), [[1.0]], specs) for p in parents]
        cpds.append(make_cpd("B", tuple(parents), [[0.3, 0.7]], specs))
        m = build_model(s, specs, cpds)
        (arr,) = joint_tables(m, [["B", "P00"]])
        assert arr.tolist() == [[0.3], [0.7]]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_joint_table_matches_brute_force(self, data):
        m = data.draw(random_models())
        nodes = sorted(m.instantiated)
        over = data.draw(st.none() | st.sets(st.sampled_from(nodes), min_size=1))
        names = sorted(nodes if over is None else over)
        (arr,) = joint_tables(m, [names])
        brute_names, joint = brute_joint(m)
        expected = brute_marginal(brute_names, joint, names)
        assert arr.shape == tuple(m.specs[n].cardinality for n in names)
        assert arr.size == len(expected)
        for labels, p in expected.items():
            idx = tuple(m.specs[n].index_of(v) for n, v in zip(names, labels))
            assert arr[idx] == pytest.approx(p, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_marginal_with_evidence_matches_brute_force(self, data):
        m = data.draw(random_models(min_nodes=2))
        nodes = sorted(m.instantiated)
        targets = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
        evidence = {
            n: data.draw(st.sampled_from(m.specs[n].domain))
            for n in sorted(data.draw(st.sets(st.sampled_from(nodes))) - targets)
        }
        brute_names, joint = brute_joint(m)
        both = sorted(set(targets) | set(evidence))
        sub = brute_marginal(brute_names, joint, both)
        matching = {
            labels: p
            for labels, p in sub.items()
            if all(labels[both.index(n)] == v for n, v in evidence.items())
        }
        total = sum(matching.values())
        expected = {}
        for labels, p in matching.items():
            key = tuple(labels[both.index(n)] for n in sorted(targets))
            expected[key] = expected.get(key, 0.0) + p / total
        # A conditional is a slice of the joint, renormalized.
        names = both
        (arr,) = joint_tables(m, [both])
        arr = arr[tuple(m.specs[n].index_of(evidence[n]) if n in evidence else slice(None) for n in names)]
        arr = arr / arr.sum()
        assert arr.size == len(expected)
        for key, p in expected.items():
            idx = tuple(m.specs[n].index_of(v) for n, v in zip(sorted(targets), key))
            assert arr[idx] == pytest.approx(p, abs=1e-12)


class TestJointTables:
    """One calibrated elimination for several scopes."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_every_scope_matches_brute_force(self, data):
        # The second draw's scopes of one or two nodes leave the rest of a
        # larger closure to eliminate, so its plans take several buckets and
        # downward passes.
        drawn = [(data.draw(random_models()), None), (data.draw(random_models(min_nodes=4, max_nodes=10)), 2)]
        for m, most in drawn:
            nodes = sorted(m.instantiated)
            scopes = data.draw(
                st.lists(st.sets(st.sampled_from(nodes), min_size=1, max_size=most), min_size=1, max_size=4)
            )
            do_nodes = sorted(data.draw(st.sets(st.sampled_from(nodes), max_size=2)))
            n_rows = data.draw(st.integers(1, 3))
            do = {
                d: data.draw(st.lists(st.integers(0, m.specs[d].cardinality - 1),
                                      min_size=n_rows, max_size=n_rows))
                for d in do_nodes
            }
            tables = joint_tables(m, scopes, do=do or None)
            assert len(tables) == len(scopes)
            joints = [
                brute_joint(m, do={d: m.specs[d].domain[do[d][r]] for d in do_nodes})
                for r in range(n_rows if do else 1)
            ]
            for scope, table in zip(scopes, tables):
                names = sorted(scope)
                shape = tuple(m.specs[n].cardinality for n in names)
                assert table.shape == ((n_rows,) + shape if do else shape)
                for r, joint in enumerate(joints):
                    expected = brute_marginal(*joint, names)
                    row = table[r] if do else table
                    for idx in np.ndindex(*shape):
                        key = tuple(m.specs[n].domain[i] for n, i in zip(names, idx))
                        assert row[idx] == pytest.approx(expected.get(key, 0.0), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_limit_is_checked_before_the_first_contraction(self, data):
        m = data.draw(random_models(min_nodes=4, max_nodes=10))
        other = redrawn(m, data.draw(st.integers(0, 2**32 - 1)))
        # Scopes of one or two nodes leave the rest of their closure to eliminate.
        nodes = sorted(m.instantiated)
        scopes = data.draw(st.lists(st.sets(st.sampled_from(nodes), min_size=1, max_size=2), min_size=1, max_size=4))
        do_nodes = data.draw(st.sets(st.sampled_from(nodes), max_size=2))
        do = {d: [data.draw(st.integers(0, m.specs[d].cardinality - 1))] for d in do_nodes}
        with mock.patch.object(model, "_check_states", wraps=model._check_states) as checks:
            joint_tables(m, scopes, do=do)
        # Another model on the structure replays the cached plan.
        with mock.patch.object(model, "_plan", wraps=model._plan) as planned:
            joint_tables(other, scopes, do=do)
        assert planned.call_count == 0
        # A limit just below a size that the query's own checks read refuses
        # it before the first contraction, or, where only the batch forms
        # that size, is met by planning each scope alone. A single scope has
        # no fallback.
        limit = data.draw(st.sampled_from(sorted({call.args[0] for call in checks.call_args_list}))) - 1
        outcomes = []
        for one in (m, other):
            with state_space_limit(limit), mock.patch.object(model, "_contract", wraps=model._contract) as calls:
                try:
                    joint_tables(one, scopes, do=do)
                except StateSpaceExceeded:
                    assert calls.call_count == 0
                    outcomes.append(True)
                else:
                    assert len(scopes) > 1
                    outcomes.append(False)
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_batch_fits_wherever_each_scope_fits_alone(self, data):
        m = data.draw(st.one_of(random_models(min_nodes=3, max_nodes=10), chain_models()))
        # Nodes whose closure has every CPD, so only the limits can refuse.
        nodes = [n for n in sorted(m.instantiated) if not brute_missing_cpds(m, [n])]
        scopes = data.draw(st.lists(st.sets(st.sampled_from(nodes), min_size=1, max_size=3), min_size=2, max_size=5))
        do_nodes = sorted(data.draw(st.sets(st.sampled_from(nodes), max_size=2)))
        n_rows = data.draw(st.integers(1, 2))
        do = {d: data.draw(st.lists(st.integers(0, m.specs[d].cardinality - 1), min_size=n_rows, max_size=n_rows))
              for d in do_nodes}
        with mock.patch.object(model, "_check_states", wraps=model._check_states) as checks:
            for scope in scopes:
                joint_tables(m, [scope], do=do)
            fits = max(call.args[0] for call in checks.call_args_list)
            joint_tables(m, scopes, do=do)
        # Just below a size that the batch or a scope alone reads, or the
        # least limit at which every scope fits alone.
        limit = data.draw(st.sampled_from(sorted({fits, *(call.args[0] - 1 for call in checks.call_args_list)})))

        def alone(scope):
            try:
                return joint_tables(m, [scope], do=do)[0]
            except StateSpaceExceeded:
                return None

        keys = tuple(tuple(sorted(s)) for s in scopes)
        with state_space_limit(limit):
            singles = [alone(scope) for scope in scopes]
            try:
                model._plan(m, keys, {d: n_rows for d in do})
                fallback = False
            except StateSpaceExceeded:
                fallback = True
            with mock.patch.object(model, "_contract", wraps=model._contract) as calls:
                if any(single is None for single in singles):
                    with pytest.raises(StateSpaceExceeded):
                        joint_tables(m, scopes, do=do)
                    assert calls.call_count == 0
                    return
                batched = joint_tables(m, scopes, do=do)
        for single, table in zip(singles, batched, strict=True):
            if fallback:
                assert (table.dtype, table.shape, table.tobytes()) == (single.dtype, single.shape, single.tobytes())
            else:
                assert table == pytest.approx(single, abs=1e-12)

    def test_no_scopes(self, reality_model):
        assert joint_tables(reality_model, []) == []

    @pytest.mark.parametrize("scopes", [[[]], [[], ["X"]]], ids=["alone", "with-a-node"])
    def test_an_empty_scope_is_a_0_d_array(self, reality_model, scopes):
        table = joint_tables(reality_model, scopes)[0]
        assert type(table) is np.ndarray and table.shape == ()
        assert table == pytest.approx(1.0, abs=1e-15)

    def test_do_rows_of_unequal_length(self, reality_model):
        with pytest.raises(InvalidQuery, match=r"do rows differ in length: \[1, 2\]"):
            joint_tables(reality_model, [["phi"]], do={"X": [0], "V2": [0, 1]})

    def test_do_on_a_node_outside_the_structure(self, reality_model):
        with pytest.raises(UnknownNode, match="unknown node 'ghost'"):
            joint_tables(reality_model, [["V1"]], do={"ghost": [0, 1]})

    @pytest.mark.parametrize("scope", [["phi"], ["V1"]], ids=["inside-the-closure", "outside-the-closure"])
    @pytest.mark.parametrize("index", [2, -1])
    def test_do_label_index_out_of_range(self, reality_model, scope, index):
        # X is binary; it lies in phi's closure and outside V1's.
        message = rf"^do\(\) row 1 sets 'X' to label index {index}, outside range\(2\)$"
        with mock.patch.object(model, "_plan", wraps=model._plan) as planned, pytest.raises(InvalidQuery, match=message):
            joint_tables(reality_model, [scope], do={"X": [0, index]})
        assert planned.call_count == 0

    @pytest.mark.parametrize("value", [True, np.True_, 1.0], ids=["bool", "numpy-bool", "float"])
    def test_do_label_index_not_an_integer(self, reality_model, value):
        message = rf"^do\(\) row 1 sets 'X' to {re.escape(repr(value))}, not an integer label index$"
        with mock.patch.object(model, "_plan", wraps=model._plan) as planned, pytest.raises(InvalidQuery, match=message):
            joint_tables(reality_model, [["phi"]], do={"X": [0, value]})
        assert planned.call_count == 0

    def test_a_cached_replay_makes_one_kernel_call_per_step_and_no_plan(self):
        m, _ = binary_chain(8)
        scopes, do = [["V07"], ["V03", "V05"]], {"V02": [0, 1]}
        with (
            mock.patch.dict(model._PLANS, clear=True),
            mock.patch.object(model, "_plan", wraps=model._plan) as planned,
            mock.patch.object(model, "_contract", wraps=model._contract) as contract,
        ):
            joint_tables(m, scopes, do=do)
            (plan,) = model._PLANS[m.structure].values()
            planned.reset_mock()
            contract.reset_mock()
            joint_tables(m, scopes, do=do)
        assert planned.call_count == 0
        assert [call.args[0] for call in contract.call_args_list] == [subscripts for _, subscripts, _ in plan.steps]
        assert len(plan.steps) > len(scopes)

    def test_limit_covers_the_downward_pass(self):
        # Z (8 labels) stands apart and is last in topological order, so
        # [Z] is the root; D -> Q, both binary, and D is intervened on in two
        # rows. Alone, [Z] spans 2 x 8 states and [Q] 2 x 2 x 2. Together,
        # the root keeps only the row axis and Z, so it spans 16 states and
        # is contracted only on the way down: to send Q's bucket its downward
        # message and to read Z. The intervened D is summed out in its own
        # bucket, over rows x D x Q = 8 states.
        specs = {
            "D": binary_spec("D"),
            "Q": binary_spec("Q"),
            "Z": VariableSpec(name="Z", domain=tuple("abcdefgh"), codes=(0.0,) * 8),
        }
        s = build_structure(["D", "Q", "Z"], [("D", "Q")])
        m = build_model(s, specs, [
            make_cpd("D", (), [[0.4, 0.6]], specs),
            make_cpd("Q", ("D",), [[0.9, 0.1], [0.2, 0.8]], specs),
            make_cpd("Z", (), [[0.125] * 8], specs),
        ])
        do = {"D": [0, 1]}
        with state_space_limit(31):
            p_z, p_q = joint_tables(m, [["Z"], ["Q"]], do=do)
        assert p_z.tolist() == [[0.125] * 8] * 2
        assert p_q == pytest.approx(np.array([[0.9, 0.1], [0.2, 0.8]]), abs=1e-15)

    def test_a_batch_over_the_limit_replays_each_scope_alone(self):
        # D -> Q, and Z stands apart; all binary. [Q, Z] is the root, and
        # the unit factor of [D, Z] puts Z into D's bucket, which then spans
        # D x Q x Z = 8 states. Alone, each scope needs no factor above 4,
        # so at a limit of 7 the batch is planned one scope at a time.
        specs = {n: binary_spec(n) for n in ("D", "Q", "Z")}
        s = build_structure(["D", "Q", "Z"], [("D", "Q")])
        m = build_model(s, specs, [
            make_cpd("D", (), [[0.4, 0.6]], specs),
            make_cpd("Q", ("D",), [[0.9, 0.1], [0.2, 0.8]], specs),
            make_cpd("Z", (), [[0.5, 0.5]], specs),
        ])
        scopes = [["Q", "Z"], ["D", "Z"]]
        with state_space_limit(4):
            alone = [joint_tables(m, [scope])[0] for scope in scopes]
        with state_space_limit(7), pytest.raises(StateSpaceExceeded, match="spans 8 states"):
            model._plan(m, [tuple(scope) for scope in scopes], {})
        with state_space_limit(7):
            fallback = joint_tables(m, scopes)
        for a, b in zip(alone, fallback, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        with state_space_limit(8):
            batched = joint_tables(m, scopes)
        for a, b in zip(alone, batched, strict=True):
            assert a == pytest.approx(b, abs=1e-15)


def redrawn(m, seed):
    """``m`` with every CPD table drawn again: the same structure, specs and parents."""
    rng = np.random.default_rng(seed)
    cpds = [
        make_cpd(n, cpd.parents, rng.dirichlet(np.ones(m.specs[n].cardinality), size=len(cpd.table)), m.specs)
        for n, cpd in m.cpds.items()
    ]
    return build_model(m.structure, m.specs, cpds)


def _asking(m, rounds):
    """A step that asks, round by round, for the joints of ``m`` under each
    (scopes, do) of a round, and returns what it was sent."""
    sent = []
    for asks in rounds:
        sent.append((yield [model._ask(m, scopes, do) for scopes, do in asks]))
    return sent


def _plan_key(scopes, do):
    """The query part of the key that a plan is cached under."""
    return tuple(dict.fromkeys(tuple(sorted(s)) for s in scopes)), frozenset((d, len(r)) for d, r in (do or {}).items())


class TestRun:
    """The driver answers each model from its own calls; models on equal structures share their plans."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_each_model_equals_its_own_call_bit_for_bit(self, data):
        m = data.draw(random_models(sparse=data.draw(st.booleans())))
        models = [m, *(redrawn(m, data.draw(st.integers(0, 2**32 - 1))) for _ in range(data.draw(st.integers(0, 2))))]
        nodes = sorted(m.instantiated)
        scopes = st.lists(st.sets(st.sampled_from(nodes), min_size=1), min_size=1, max_size=3)
        # Each round asks observational scopes and, maybe, scopes under do()
        # rows, whose labels each model draws anew.
        shapes = data.draw(st.lists(
            st.tuples(scopes, st.none() | st.tuples(scopes, st.sets(st.sampled_from(nodes), min_size=1, max_size=2))),
            min_size=1, max_size=3,
        ))
        n_rows = data.draw(st.integers(1, 3))

        def rows(d):
            return data.draw(st.lists(st.integers(0, m.specs[d].cardinality - 1), min_size=n_rows, max_size=n_rows))

        def asks(seen, query):
            if query is None:
                return [(seen, None)]
            under, do_nodes = query
            return [(seen, None), (under, {d: rows(d) for d in sorted(do_nodes)})]

        rounds = [[asks(*shape) for shape in shapes] for _ in models]
        with mock.patch.dict(model._PLANS, clear=True), mock.patch.object(model, "_plan", wraps=model._plan) as planned:
            sent = model._run([_asking(one, asked) for one, asked in zip(models, rounds)])
        # An empty cache plans each distinct query once; later models replay it.
        assert planned.call_count == len({_plan_key(*ask) for asks in rounds[0] for ask in asks})
        for one, asked, answers in zip(models, rounds, sent, strict=True):
            for asks, joints in zip(asked, answers, strict=True):
                for (scopes, do), got in zip(asks, joints, strict=True):
                    keys = _plan_key(scopes, do)[0]
                    assert list(got) == list(keys)
                    for key, alone in zip(keys, joint_tables(one, keys, do=do), strict=True):
                        assert (got[key].dtype, got[key].shape, got[key].tobytes()) == (
                            alone.dtype, alone.shape, alone.tobytes()
                        )


class TestPlanCache:
    """Elimination plans cached by structure value replay the bits of a fresh plan."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_hit_replays_the_bits_of_a_miss_and_the_cache_is_capped(self, data):
        m = data.draw(random_models(min_nodes=4, max_nodes=10))
        nodes = sorted(m.instantiated)
        scopes = data.draw(st.lists(st.sets(st.sampled_from(nodes), min_size=1, max_size=2), min_size=1, max_size=4))
        do_nodes = sorted(data.draw(st.sets(st.sampled_from(nodes), max_size=2)))
        n_rows = data.draw(st.integers(1, 3))

        def query():
            """A model on ``m.structure`` with other CPD tables, and other do() rows."""
            do = {
                d: data.draw(st.lists(st.integers(0, m.specs[d].cardinality - 1), min_size=n_rows, max_size=n_rows))
                for d in do_nodes
            }
            return redrawn(m, data.draw(st.integers(0, 2**32 - 1))), do or None

        s = m.structure
        with mock.patch.dict(model._PLANS, clear=True):
            first, first_do = query()
            joint_tables(first, scopes, do=first_do)
            other, do = query()
            with mock.patch.object(model, "_plan", wraps=model._plan) as planned:
                hit = joint_tables(other, scopes, do=do)
            assert planned.call_count == 0 and len(model._PLANS[s]) == 1
            # An equal structure, built apart, replays the plan: no _plan
            # call, the same bytes; and so does a miss on an empty cache.
            fresh = build_structure(s.nodes, s.directed, latent=s.latent)
            assert fresh == s and fresh is not s
            copy = build_model(fresh, other.specs, other.cpds.values())
            with mock.patch.object(model, "_plan", wraps=model._plan) as planned:
                replayed = joint_tables(copy, scopes, do=do)
            assert planned.call_count == 0
            with mock.patch.dict(model._PLANS, clear=True):
                miss = joint_tables(copy, scopes, do=do)
            for a, b, c in zip(hit, replayed, miss, strict=True):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()) == (c.dtype, c.shape, c.tobytes())
            # Past the cap, the oldest plan is dropped first.
            cap = model._PLANS_PER_STRUCTURE
            for rows in range(1, cap + 2):
                joint_tables(m, [nodes[:1]], do={nodes[-1]: [0] * rows})
            assert len(model._PLANS[s]) == cap
            with mock.patch.object(model, "_plan", wraps=model._plan) as planned:
                joint_tables(m, [nodes[:1]], do={nodes[-1]: [0] * (cap + 1)})
                assert planned.call_count == 0
                joint_tables(first, scopes, do=first_do)
                assert planned.call_count == 1

    def test_the_entries_of_a_value_go_with_the_first_structure_stored(self):
        # A twin, equal but built apart, replays the first structure's plan
        # and back-door check; once the first is collected, both entries are
        # gone though the twin lives, and the twin plans anew.
        with mock.patch.dict(model._PLANS, clear=True), mock.patch.dict(graph._BACKDOOR_CHECKS, clear=True):
            m, _ = binary_chain(4)
            twin = build_model(build_structure(m.structure.nodes, m.structure.directed), m.specs, m.cpds.values())
            assert twin.structure == m.structure and twin.structure is not m.structure
            for one in (m, twin):
                joint_tables(one, [["V03"]])
                assert graph.backdoor_admissible(one.structure, [], "V01", "V03")
            assert [len(model._PLANS), len(graph._BACKDOOR_CHECKS)] == [1, 1]
            held = weakref.ref(m.structure)
            del m, one
            gc.collect()
            assert held() is None
            assert twin.structure not in model._PLANS and twin.structure not in graph._BACKDOOR_CHECKS
            with mock.patch.object(model, "_plan", wraps=model._plan) as planned:
                joint_tables(twin, [["V03"]])
            assert planned.call_count == 1 and list(model._PLANS.keys()) == [twin.structure]


class TestDeepElimination:
    """Chain models like the bench's, asked for one or two nodes at a time,
    leave most of their closure to eliminate, bucket after bucket."""

    @settings(deadline=None)
    @given(st.data())
    def test_every_table_matches_brute_force_and_replays_bit_for_bit(self, data):
        m = data.draw(chain_models())
        # Last first: hypothesis leans toward the first choice, and the
        # chain's last nodes have the deepest closures.
        nodes = list(reversed(m.structure.nodes))
        scopes = data.draw(st.lists(st.sets(st.sampled_from(nodes), min_size=1, max_size=2), min_size=1, max_size=3))
        n_rows = data.draw(st.integers(1, 3))
        do = {
            d: data.draw(st.lists(st.integers(0, m.specs[d].cardinality - 1), min_size=n_rows, max_size=n_rows))
            for d in sorted(data.draw(st.sets(st.sampled_from(nodes), max_size=2)))
        }
        over = set().union(*scopes)
        missing = brute_missing_cpds(m, over, do)
        if missing:
            message = f"need CPDs for {missing} to enumerate over {sorted(over)}"
            with pytest.raises(InsufficientInstantiation, match=re.escape(message)):
                joint_tables(m, scopes, do=do)
            return
        tables = joint_tables(m, scopes, do=do)
        sub = closure_model(m, over, do)
        for r in range(n_rows if do else 1):
            names, joint = brute_joint(sub, do={d: sub.specs[d].domain[rows[r]] for d, rows in do.items() if d in sub.specs})
            for scope, table in zip(scopes, tables, strict=True):
                expected = brute_marginal(names, joint, scope)
                row = table[r] if do else table
                assert row.shape == tuple(m.specs[n].cardinality for n in sorted(scope))
                for idx in np.ndindex(*row.shape):
                    key = tuple(m.specs[n].domain[i] for n, i in zip(sorted(scope), idx))
                    assert row[idx] == pytest.approx(expected.get(key, 0.0), abs=1e-12)
        # Another model on the structure replays the plan, with the bits that
        # the plan of a fresh structure gives it.
        other = redrawn(m, data.draw(st.integers(0, 2**32 - 1)))
        with mock.patch.object(model, "_plan", wraps=model._plan) as planned:
            replayed = joint_tables(other, scopes, do=do)
        assert planned.call_count == 0
        fresh = build_model(build_structure(m.structure.nodes, m.structure.directed), other.specs, other.cpds.values())
        for a, b in zip(replayed, joint_tables(fresh, scopes, do=do), strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _exact_query(data):
    """A model small enough for exact arithmetic, 1-3 scopes, and do() rows
    for up to two nodes: (model, scopes, row count, do)."""
    m = data.draw(random_models(sparse=data.draw(st.booleans())) | chain_models(states=256))
    nodes = list(reversed(m.structure.nodes))
    scopes = data.draw(st.lists(st.sets(st.sampled_from(nodes), max_size=3), min_size=1, max_size=3))
    n_rows = data.draw(st.integers(1, 2))
    do = {
        d: data.draw(st.lists(st.integers(0, m.specs[d].cardinality - 1), min_size=n_rows, max_size=n_rows))
        for d in sorted(data.draw(st.sets(st.sampled_from(nodes), max_size=2)))
    }
    return m, scopes, n_rows, do


class TestExactValues:
    """Every cell of every joint against exact rational arithmetic."""

    @settings(deadline=None)
    @given(st.data())
    def test_every_cell_is_within_1e_14_of_the_exact_value(self, data):
        m, scopes, n_rows, do = _exact_query(data)
        if brute_missing_cpds(m, set().union(*scopes), do):
            with pytest.raises(InsufficientInstantiation):
                joint_tables(m, scopes, do=do)
            return
        tables = joint_tables(m, scopes, do=do)
        for scope, table in zip(scopes, tables, strict=True):
            assert type(table) is np.ndarray
            for r in range(n_rows if do else 1):
                exact = exact_joint(m, scope, {d: rows[r] for d, rows in do.items()})
                row = table[r] if do else table
                for idx in np.ndindex(*row.shape):
                    want, got = exact.get(idx, 0), float(row[idx])
                    if want == 0:
                        assert got == 0.0, (scope, r, idx)
                    else:
                        assert abs(Fraction(got) - want) <= want / 10**14, (scope, r, idx, got, float(want))

    @pytest.mark.skipif(
        np.lib.NumpyVersion(np.__version__) < "1.25.0", reason="np.einsum takes object arrays from numpy 1.25"
    )
    @settings(deadline=None)
    @given(st.data())
    def test_the_plan_replayed_in_fractions_is_the_exact_joint(self, data):
        m, scopes, n_rows, do = _exact_query(data)
        if brute_missing_cpds(m, set().union(*scopes), do):
            return
        tables = exact_replay(m, scopes, do)
        for scope, table in zip(scopes, tables, strict=True):
            # Each scope is summed out of the joint over the closure of all
            # of them, which is exact only for that closure.
            exact = [
                exact_joint(m, scope, {d: rows[r] for d, rows in do.items()}, over=set().union(*scopes))
                for r in range(n_rows)
            ]
            for idx in np.ndindex(*table.shape):
                r, cell = (idx[0], idx[1:]) if do else (0, idx)
                assert table[idx] == exact[r].get(cell, 0), (scope, idx)


class TestMarkovProperty:
    def test_every_node_independent_of_nondescendants_given_parents(
        self, reality_model, candidate_model
    ):
        for m in (reality_model, candidate_model):
            names, joint = brute_joint(m)
            s = m.structure
            from causalcrit.graph import descendants

            for node in names:
                parents = sorted(s.parents(node))
                nondesc = [
                    n
                    for n in names
                    if n != node and n not in descendants(s, node) and n not in parents
                ]
                if not nondesc:
                    continue
                assert conditionally_independent(
                    names, joint, [node], nondesc, parents
                )


class TestSample:
    def test_empty_sample_keeps_columns(self, reality_model):
        ds = sample(reality_model, 0, seed=1)
        assert ds.columns == tuple(sorted(reality_model.instantiated))
        assert len(ds) == 0

    def test_latent_node_drawn_but_not_written(self):
        # A copies its latent parent L, which is always b.
        specs = {n: binary_spec(n, ("a", "b")) for n in "AL"}
        s = build_structure(["A", "L"], [("L", "A")], latent=["L"])
        m = build_model(
            s,
            specs,
            [make_cpd("L", (), [[0.0, 1.0]], specs), make_cpd("A", ("L",), [[1.0, 0.0], [0.0, 1.0]], specs)],
        )
        ds = sample(m, 5, seed=0)
        assert ds.columns == ("A",)
        assert ds.codes[0].tolist() == [1] * 5

    def test_deterministic_for_seed(self, reality_model):
        a = sample(reality_model, 500, seed=42)
        b = sample(reality_model, 500, seed=42)
        assert a == b

    def test_different_seeds_differ(self, reality_model):
        a = sample(reality_model, 500, seed=1)
        b = sample(reality_model, 500, seed=2)
        assert a != b

    def test_negative_size_rejected(self, reality_model):
        with pytest.raises(ValidationError):
            sample(reality_model, -1, seed=0)
        with pytest.raises(ValidationError, match="seed"):
            sample(reality_model, 10, seed=-1)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (2.0, 0, "sample size must be an integer, got 2.0"),
            (2, 1.5, "seed must be an integer, got 1.5"),
            # operator.index takes a bool as 1 or 0.
            (True, 0, "sample size must be an integer, got True"),
            (1, False, "seed must be an integer, got False"),
        ],
        ids=["size", "seed", "bool-size", "bool-seed"],
    )
    def test_a_value_that_is_no_integer_is_refused(self, reality_model, n, seed, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sample(reality_model, n, seed)

    def test_partial_model_rejected(self, reality_model):
        # A sample row assigns every observed node, so sampling needs all of
        # their CPDs although V1's own closure is instantiated.
        partial = build_model(
            reality_model.structure, reality_model.specs, [reality_model.cpds["V1"]]
        )
        with pytest.raises(InsufficientInstantiation, match=r"\['V2', 'V3', 'X', 'phi'\]"):
            sample(partial, 10, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        random_models(max_nodes=5, sparse=True, latent=True),
        st.integers(0, 200),
        st.integers(0, 2**16),
    )
    def test_matches_row_wise_draw(self, m, n, seed):
        ds = sample(m, n, seed)
        drawn = brute_sample(m, n, seed)
        assert ds.columns == tuple(drawn)
        assert [c.tolist() for c in ds.codes] == list(drawn.values())
        assert ds.domains == tuple(m.specs[c].domain for c in ds.columns)

    def test_multi_label_codes_pinned(self):
        # The draw loops over cumulative columns, so nodes of 3 and 4 labels,
        # zero entries and a latent parent pin what binary nodes cannot.
        specs = {
            name: VariableSpec(
                name=name,
                domain=tuple(f"{name}{k}" for k in range(card)),
                codes=tuple(float(k) for k in range(card)),
            )
            for name, card in (("A", 3), ("L", 4), ("B", 4), ("C", 3))
        }
        s = build_structure(
            ["A", "L", "B", "C"], [("A", "B"), ("L", "B"), ("A", "C"), ("B", "C")], latent=["L"]
        )
        b_rows = [[0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 0.0, 0.5], [0.25] * 4, [0.0, 0.0, 0.0, 1.0]]
        c_rows = [[(r % 3) + 1, r % 2, 2] for r in range(12)]
        m = build_model(
            s,
            specs,
            [
                make_cpd("A", (), [[0.2, 0.5, 0.3]], specs),
                make_cpd("L", (), [[0.1, 0.0, 0.6, 0.3]], specs),
                make_cpd("B", ("A", "L"), b_rows * 3, specs),
                make_cpd("C", ("A", "B"), [[w / sum(row) for w in row] for row in c_rows], specs),
            ],
        )
        ds = sample(m, 3000, seed=13)
        assert ds.columns == ("A", "B", "C")
        digest = hashlib.sha256(np.stack(ds.codes).astype("<i8").tobytes()).hexdigest()
        assert digest == "5324d2e28652ef5d3880fdb8766fc126a1b5ed8d59b98a5c9572c14284df63ea"

    def test_empirical_frequency_near_marginal(self, reality_model):
        ds = sample(reality_model, 200_000, seed=7)
        xs = ds.codes[ds.columns.index("X")]
        freq = np.mean(xs == reality_model.specs["X"].index_of("CP"))
        assert abs(freq - 0.67) < 0.005


class TestEstimate:
    def test_empty_dataset_rejected(self, reality_model):
        ds = Dataset(columns=("V1",), codes=([],), domains=(reality_model.specs["V1"].domain,))
        with pytest.raises(EmptyDataset):
            estimate_cpds(reality_model.structure, reality_model.specs, ds)

    def test_mle_consistency(self, reality_model):
        ds = sample(reality_model, 100_000, seed=11)
        est = estimate_cpds(reality_model.structure, reality_model.specs, ds)
        assert est.instantiated == reality_model.instantiated
        row = est.cpds["X"].table[0]  # (Summer, Oceanic)
        assert row[1] == pytest.approx(0.6, abs=0.01)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_smoothing_rejected(self, reality_model, smoothing):
        ds = sample(reality_model, 50, seed=1)
        with pytest.raises(ValidationError, match="smoothing must be finite and >= 0"):
            estimate_cpds(reality_model.structure, reality_model.specs, ds, smoothing)

    @pytest.mark.parametrize("smoothing", [True, "1"], ids=["bool", "str"])
    def test_a_smoothing_that_is_no_real_number_is_refused(self, reality_model, smoothing):
        # A bool adds as 1 or 0, and a string fails the range check with a bare TypeError.
        ds = sample(reality_model, 50, seed=1)
        message = f"smoothing must be a real number, got {smoothing!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            estimate_cpds(reality_model.structure, reality_model.specs, ds, smoothing)

    def test_smoothing_that_overflows_the_row_totals_rejected(self, reality_model):
        ds = sample(reality_model, 50, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^smoothing 1e\+308 overflows the CPD row totals"):
                estimate_cpds(reality_model.structure, reality_model.specs, ds, 1e308)
        # Finite row totals near the largest double are kept.
        est = estimate_cpds(reality_model.structure, reality_model.specs, ds, 1e307)
        assert est.cpds["V1"].table.tolist() == [[0.5, 0.5]]

    def test_integer_smoothing_beyond_the_float_range_rejected(self, reality_model):
        # An int compares exactly with floats: 10**400 is below inf but is no double.
        ds = sample(reality_model, 50, seed=1)
        with pytest.raises(ValidationError, match="^smoothing must be finite and >= 0"):
            estimate_cpds(reality_model.structure, reality_model.specs, ds, 10**400)
        # A double-sized int whose row totals overflow is refused by the overflow check.
        with pytest.raises(ValidationError, match="overflows the CPD row totals of 50 rows"):
            estimate_cpds(reality_model.structure, reality_model.specs, ds, 10**308)
        est = estimate_cpds(reality_model.structure, reality_model.specs, ds, 10**307)
        assert est.cpds["V1"].table.tolist() == [[0.5, 0.5]]

    def test_laplace_smoothing_fills_empty_rows(self):
        specs = {"A": binary_spec("A"), "B": binary_spec("B")}
        s = build_structure(["A", "B"], [("A", "B")])
        ds = Dataset(columns=("A", "B"), codes=([0, 0], [0, 1]), domains=(("no", "yes"),) * 2)
        est = estimate_cpds(s, specs, ds, smoothing=1.0)
        # the A=yes row was never observed: alpha=1 makes it uniform
        assert est.cpds["B"].table[1] == pytest.approx([0.5, 0.5])

    def test_unseen_row_drops_node_with_warning(self):
        specs = {"A": binary_spec("A"), "B": binary_spec("B")}
        s = build_structure(["A", "B"], [("A", "B")])
        ds = Dataset(columns=("A", "B"), codes=([0], [0]), domains=(("no", "yes"),) * 2)
        with pytest.warns(UnseenParentConfigurationWarning):
            est = estimate_cpds(s, specs, ds, smoothing=0.0)
        assert "B" not in est.instantiated
        assert "A" in est.instantiated

    @pytest.mark.parametrize("n_parents, rows", [(64, 3), (25, 2)])
    def test_oversized_family_is_state_space_exceeded(self, n_parents, rows):
        # 64 binary parents overflow bincount's length; 25 would allocate a
        # 2**26-cell table. Either is refused before the family's codes.
        parents = [f"P{k:02d}" for k in range(n_parents)]
        specs = {name: binary_spec(name) for name in ["Y", *parents]}
        s = build_structure(["Y", *parents], [(p, "Y") for p in parents])
        ds = Dataset(
            columns=("Y", *parents),
            codes=tuple([k % 2 for k in range(rows)] for _ in specs),
            domains=(("no", "yes"),) * len(specs),
        )
        tracemalloc.start()
        try:
            message = f"over {n_parents + 1} nodes spans {2 ** (n_parents + 1)} "
            with pytest.raises(StateSpaceExceeded, match=message) as info:
                estimate_cpds(s, specs, ds)
            assert str(info.value).endswith(f": the family of 'Y' and its parents {parents}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_parent_column_drops_child(self, reality_model):
        ds = sample(reality_model, 1000, seed=3)
        keep = [k for k, c in enumerate(ds.columns) if c != "V3"]
        pruned = Dataset(
            columns=tuple(ds.columns[k] for k in keep),
            codes=tuple(ds.codes[k] for k in keep),
            domains=tuple(ds.domains[k] for k in keep),
        )
        est = estimate_cpds(reality_model.structure, reality_model.specs, pruned)
        assert est.instantiated == {"V1", "V2", "phi"}

    def test_estimation_total_variation_convergence(self, reality_model):
        ds = sample(reality_model, 100_000, seed=5)
        est = estimate_cpds(reality_model.structure, reality_model.specs, ds)
        for node in reality_model.instantiated:
            true = reality_model.cpds[node].table
            got = est.cpds[node].table
            tv = 0.5 * np.abs(true - got).sum(axis=1).max()
            assert tv < 0.02
