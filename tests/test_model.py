import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit.errors import (
    EmptyDataset,
    InsufficientInstantiation,
    StateSpaceExceeded,
    UnseenParentConfigurationWarning,
    ValidationError,
)
from causalcrit.graph import build_structure
from causalcrit.model import (
    Dataset,
    VariableSpec,
    build_model,
    estimate_cpds,
    joint_table,
    joint_tables,
    make_cpd,
    sample,
)

from oracles import brute_joint, brute_marginal, conditionally_independent, row_index


def binary_spec(name, labels=("no", "yes")):
    return VariableSpec(name=name, domain=labels, codes=(0.0, 1.0))


@st.composite
def random_models(draw, min_nodes=1, max_nodes=6):
    """Fully instantiated DAG models with 1-3 labels per node and Dirichlet CPDs."""
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"N{i}" for i in range(n)]
    cards = [draw(st.integers(1, 3)) for _ in names]
    edges = [
        (names[i], names[j])
        for j in range(n)
        for i in sorted(draw(st.sets(st.integers(0, j - 1), max_size=3)) if j else ())
    ]
    s = build_structure(names, edges)
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
        cpds.append(make_cpd(name, parents, rng.dirichlet(np.ones(card), size=rows), specs))
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
        with pytest.raises(ValidationError):
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

    def test_cpd_parents_must_match_graph(self):
        specs = {"A": binary_spec("A"), "B": binary_spec("B")}
        s = build_structure(["A", "B"], [("A", "B")])
        with pytest.raises(ValidationError):
            build_model(s, specs, [make_cpd("B", (), [[0.5, 0.5]], specs)])

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
        with pytest.raises(StateSpaceExceeded):
            joint_table(m, state_space_limit=1 << 24)

    def test_state_space_bound_counts_intermediates(self):
        # A 2-state output whose elimination needs a 32-state bucket.
        names = ["C", "P0", "P1", "P2", "P3"]
        specs = {n: binary_spec(n) for n in names}
        s = build_structure(names, [(p, "C") for p in names[1:]])
        cpds = [make_cpd(p, (), [[0.5, 0.5]], specs) for p in names[1:]]
        cpds.append(make_cpd("C", tuple(names[1:]), [[0.5, 0.5]] * 16, specs))
        m = build_model(s, specs, cpds)
        assert joint_table(m, over=["C"], state_space_limit=32)[1].shape == (2,)
        with pytest.raises(StateSpaceExceeded):
            joint_table(m, over=["C"], state_space_limit=31)
        # Intervened parents are summed out in the last contraction, which
        # also spans the two do() rows: 64 states.
        do = {p: [0, 1] for p in names[1:]}
        assert joint_table(m, over=["C"], state_space_limit=64, do=do)[1].shape == (2, 2)
        with pytest.raises(StateSpaceExceeded):
            joint_table(m, over=["C"], state_space_limit=63, do=do)


class TestJointProbability:
    """The probability of one assignment, read off the joint over every
    instantiated node."""

    def test_single_binary_node(self):
        names, arr = joint_table(single_node_model(0.3))
        assert names == ("A",)
        assert arr.tolist() == pytest.approx([0.7, 0.3])

    def test_heavy_rain_fixture_product(self, reality_model):
        names, arr = joint_table(reality_model)
        assignment = {"V1": "Summer", "V3": "Oceanic", "X": "CP", "V2": "Slow", "phi": "Short"}
        p = arr[tuple(reality_model.specs[n].index_of(assignment[n]) for n in names)]
        assert p == pytest.approx(0.5 * 0.6 * 0.6 * 0.6 * 0.8, abs=1e-12)

    def test_sums_to_one(self, reality_model):
        assert joint_table(reality_model)[1].sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force(self, candidate_model):
        names, joint = brute_joint(candidate_model)
        lib_names, arr = joint_table(candidate_model)
        assert lib_names == tuple(names)
        for values, p in joint.items():
            idx = tuple(
                candidate_model.specs[n].domain.index(v)
                for n, v in zip(names, values)
            )
            assert arr[idx] == pytest.approx(p, abs=1e-12)


def node_marginal(m, node):
    """P(node) as {label: probability}, from :func:`joint_table`."""
    _, arr = joint_table(m, [node])
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
        _, arr = joint_table(reality_model, names)
        for labels, p in joint.items():
            idx = tuple(reality_model.specs[n].index_of(v) for n, v in zip(names, labels))
            assert arr[idx] == pytest.approx(p, abs=1e-12)

    def test_conditional_renormalizes(self, reality_model):
        names, arr = joint_table(reality_model, ["V2", "phi"])
        assert names == ("V2", "phi")
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
            joint_table(m, over=["C"])

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
        names, arr = joint_table(m, over=["B", "P00"])
        assert names == ("B", "P00")
        assert arr.tolist() == [[0.3], [0.7]]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_joint_table_matches_brute_force(self, data):
        m = data.draw(random_models())
        nodes = sorted(m.instantiated)
        over = data.draw(st.none() | st.sets(st.sampled_from(nodes), min_size=1))
        names, arr = joint_table(m, over=over)
        assert names == tuple(sorted(nodes if over is None else over))
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
        names, arr = joint_table(m, both)
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
        m = data.draw(random_models())
        nodes = sorted(m.instantiated)
        scopes = data.draw(
            st.lists(st.sets(st.sampled_from(nodes), min_size=1), min_size=1, max_size=4)
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
        for scope, table in zip(scopes, tables):
            names = sorted(scope)
            shape = tuple(m.specs[n].cardinality for n in names)
            assert table.shape == ((n_rows,) + shape if do else shape)
            for r in range(n_rows if do else 1):
                labels = {d: m.specs[d].domain[do[d][r]] for d in do_nodes}
                expected = brute_marginal(*brute_joint(m, do=labels), names)
                row = table[r] if do else table
                for idx in np.ndindex(*shape):
                    key = tuple(m.specs[n].domain[i] for n, i in zip(names, idx))
                    assert row[idx] == pytest.approx(expected.get(key, 0.0), abs=1e-12)
            # A single scope is joint_table's call, bit for bit.
            single = joint_tables(m, [scope], do=do or None)[0]
            assert np.array_equal(single, joint_table(m, scope, do=do or None)[1])

    def test_no_scopes(self, reality_model):
        assert joint_tables(reality_model, []) == []

    def test_limit_covers_the_downward_pass(self):
        # Z (8 labels) stands apart and is last in topological order, so
        # [Z] is the root; D -> Q, both binary, and D is intervened on in two
        # rows. Alone, [Z] spans 2 x 8 states and [Q] 2 x 2 x 2. Together,
        # the kept intervened node D joins the root, which spans rows x D x Z
        # = 32 states but is contracted only on the way down: to send Q's
        # bucket its downward message and to read Z. Every upward bucket
        # spans 8.
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
        for scope in (["Z"], ["Q"]):
            joint_table(m, scope, state_space_limit=31, do=do)
        with pytest.raises(StateSpaceExceeded, match="spans 32 states"):
            joint_tables(m, [["Z"], ["Q"]], state_space_limit=31, do=do)
        p_z, p_q = joint_tables(m, [["Z"], ["Q"]], state_space_limit=32, do=do)
        assert p_z.tolist() == [[0.125] * 8] * 2
        assert p_q == pytest.approx(np.array([[0.9, 0.1], [0.2, 0.8]]), abs=1e-15)


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

    def test_partial_model_rejected(self, reality_model):
        # A sample row assigns every observed node, so sampling needs all of
        # their CPDs although V1's own closure is instantiated.
        partial = build_model(
            reality_model.structure, reality_model.specs, [reality_model.cpds["V1"]]
        )
        with pytest.raises(InsufficientInstantiation, match=r"\['V2', 'V3', 'X', 'phi'\]"):
            sample(partial, 10, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(random_models(max_nodes=5), st.integers(0, 40), st.integers(0, 2**16))
    def test_matches_row_wise_draw(self, m, n, seed):
        # Reference sampler: per node in topological order, the cumulative
        # CPD row of each sample's parent configuration against one uniform.
        rng = np.random.default_rng(seed)
        drawn = {}
        for node in m.structure.topological_order():
            cpd = m.cpds[node]
            rows = [
                row_index(m, cpd, {p: m.specs[p].domain[drawn[p][i]] for p in cpd.parents})
                for i in range(n)
            ]
            cdf = np.cumsum(cpd.table[rows], axis=1)
            u = rng.random(n)
            card = m.specs[node].cardinality
            drawn[node] = np.minimum((cdf < u[:, None]).sum(axis=1), card - 1)
        ds = sample(m, n, seed)
        assert ds.columns == tuple(sorted(drawn))
        assert [c.tolist() for c in ds.codes] == [drawn[c].tolist() for c in ds.columns]
        assert ds.domains == tuple(m.specs[c].domain for c in ds.columns)

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

    def test_missing_parent_column_drops_child(self, reality_model):
        ds = sample(reality_model, 1000, seed=3)
        keep = [k for k, c in enumerate(ds.columns) if c != "V3"]
        pruned = Dataset(
            columns=tuple(ds.columns[k] for k in keep),
            codes=tuple(ds.codes[k] for k in keep),
            domains=tuple(ds.domains[k] for k in keep),
            provenance="synthetic",
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
