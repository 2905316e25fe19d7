import hashlib
import itertools
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit.errors import (
    CycleDetected,
    DuplicateNode,
    InvalidQuery,
    OverlappingSets,
    SelfLoop,
    UnknownEndpoint,
    UnknownNode,
)
from causalcrit.graph import (
    _BACKDOOR_CHECKS,
    CausalStructure,
    _BackdoorCheck,
    _backdoor_check,
    ancestors,
    backdoor_admissible,
    build_structure,
    d_separated,
    descendants,
    enumerate_adjustment_sets,
    open_backdoor_path,
)

from oracles import (
    brute_backdoor_admissible,
    brute_d_separated,
    brute_open_paths,
    brute_reachable,
    kahn_order,
    plain_adjustment_scan,
)


def chain_abc():
    return build_structure(["A", "B", "C"], [("A", "B"), ("B", "C")])


class TestBuildStructure:
    def test_single_node_no_edges(self):
        s = build_structure(["A"])
        assert s.nodes == ("A",)
        assert not s.directed and not s.bidirected

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected) as exc:
            build_structure(["A", "B"], [("A", "B"), ("B", "A")])
        assert "A" in str(exc.value) and "B" in str(exc.value)

    def test_longer_cycle_named(self):
        with pytest.raises(CycleDetected) as exc:
            build_structure(
                ["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")]
            )
        assert "->" in str(exc.value)

    def test_duplicate_node(self):
        with pytest.raises(DuplicateNode):
            build_structure(["A", "A"])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            build_structure(["A"], [("A", "B")])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_structure(["A"], [("A", "A")])
        with pytest.raises(SelfLoop):
            build_structure(["A"], bidirected=[("A", "A")])

    def test_bidirected_needs_endogenous_endpoints(self):
        with pytest.raises(UnknownEndpoint):
            build_structure(["A", "B"], bidirected=[("A", "B")], latent=["B"])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"nodes": ["A", ""]}, "node names must be non-empty"),
            ({"nodes": ["A"], "latent": ["B"]}, "latent flag on undeclared node 'B'"),
            ({"nodes": ["A"], "bidirected": [("A", "B")]}, "bidirected ('A', 'B') uses an undeclared node"),
        ],
        ids=["empty-name", "latent-undeclared", "bidirected-undeclared"],
    )
    def test_undeclared_or_empty_names_rejected(self, kwargs, message):
        with pytest.raises(UnknownEndpoint, match=re.escape(message)):
            build_structure(**kwargs)

    def test_cycle_in_a_directly_built_structure(self):
        # The order itself checks for cycles, not only build_structure.
        s = CausalStructure(
            nodes=("A", "B", "C"),
            latent=frozenset(),
            directed=frozenset({("A", "B"), ("B", "C"), ("C", "B")}),
            bidirected=frozenset(),
        )
        with pytest.raises(CycleDetected, match=re.escape("B -> C -> B")):
            s.topological_order()
        with pytest.raises(CycleDetected):
            ancestors(s, "C")

    def test_friction_fixture_builds(self, friction_relation):
        _, model = friction_relation
        assert len(model.structure.nodes) == 41


class TestReachability:
    def test_chain_descendants(self):
        s = chain_abc()
        assert descendants(s, "A") == {"B", "C"}

    def test_sink_descendants_empty(self):
        assert descendants(chain_abc(), "C") == set()

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            descendants(chain_abc(), "Z")

    def test_parents_are_the_name_sorted_tuple_a_cpd_carries(self):
        s = build_structure(["C", "A", "B"], [("C", "B"), ("A", "B")])
        assert s.parents("B") == ("A", "C") and s.parents("A") == ()
        with pytest.raises(UnknownNode, match="^unknown node 'Z'$"):
            s.parents("Z")

    def test_friction_metric_components_descend_from_cof(self, friction_relation):
        _, model = friction_relation
        down = descendants(model.structure, "Coefficient of friction")
        assert "BTN_DT" in down and "STN_DT" in down


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        s = chain_abc()
        assert d_separated(s, {"A"}, {"C"}, {"B"}).separated

    def test_chain_open_without_conditioning(self):
        s = chain_abc()
        res = d_separated(s, {"A"}, {"C"})
        assert not res.separated
        assert res.witness_path == ("A", "->", "B", "->", "C")

    def test_collider_blocks_marginally(self):
        s = build_structure(["A", "B", "C"], [("A", "C"), ("B", "C")])
        assert d_separated(s, {"A"}, {"B"}).separated
        assert not d_separated(s, {"A"}, {"B"}, {"C"}).separated

    def test_collider_descendant_opens(self):
        s = build_structure(
            ["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")]
        )
        assert not d_separated(s, {"A"}, {"B"}, {"D"}).separated

    def test_collider_witness_passes_straight_through(self):
        # C's descendant D is conditioned, so the witness crosses the
        # collider directly instead of bouncing off D.
        s = build_structure(
            ["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")]
        )
        assert d_separated(s, {"A"}, {"B"}, {"D"}).witness_path == ("A", "->", "C", "<-", "B")

    def test_bidirected_acts_as_latent_fork(self):
        s = build_structure(["A", "B"], bidirected=[("A", "B")])
        res = d_separated(s, {"A"}, {"B"})
        assert not res.separated
        assert res.witness_path == ("A", "<->", "B")

    def test_heavy_rain_reality_x_independent_of_v2(self, reality_model):
        assert d_separated(reality_model.structure, {"X"}, {"V2"}).separated

    def test_overlapping_sets_rejected(self):
        with pytest.raises(OverlappingSets):
            d_separated(chain_abc(), {"A"}, {"A"})

    def test_witness_keeps_edge_marks(self):
        # P -> A -> W with A <-> W: conditioning on A blocks the directed
        # reading at A, so only the one through the confounding arc is open.
        s = build_structure(
            ["A", "P", "W"], [("P", "A"), ("A", "W")], bidirected=[("A", "W")]
        )
        res = d_separated(s, {"P"}, {"W"}, {"A"})
        assert res.witness_path == ("P", "->", "A", "<->", "W")

    def test_witness_uses_adjacent_edges(self, candidate_model):
        s = candidate_model.structure
        res = d_separated(s, {"X"}, {"phi"})
        assert not res.separated
        assert " ".join(res.witness_path) in brute_open_paths(s, "X", "phi", ())


class TestBackdoor:
    def test_heavy_rain_model_v2_admissible(self, candidate_model):
        assert backdoor_admissible(candidate_model.structure, {"V2"}, "X", "phi")

    def test_heavy_rain_model_empty_not_admissible(self, candidate_model):
        assert not backdoor_admissible(candidate_model.structure, set(), "X", "phi")

    def test_latent_member_rejected(self):
        s = build_structure(
            ["X", "Y", "Z"], [("Z", "X"), ("Z", "Y"), ("X", "Y")], latent=["Z"]
        )
        assert not backdoor_admissible(s, {"Z"}, "X", "Y")

    def test_descendant_member_rejected(self):
        s = build_structure(["X", "Y", "D"], [("X", "Y"), ("X", "D")])
        assert not backdoor_admissible(s, {"D"}, "X", "Y")

    def test_refusal_path_is_open_back_door_path(self, candidate_model):
        s = candidate_model.structure
        assert open_backdoor_path(s, {"V1"}, "X", "phi") == "X <- V2 -> phi"
        assert open_backdoor_path(s, {"V2"}, "X", "phi") is None

    def test_no_refusal_path_from_a_node_to_itself(self, candidate_model):
        assert open_backdoor_path(candidate_model.structure, set(), "X", "X") is None

    def test_refusal_path_reads_arc_where_edge_is_blocked(self):
        # A -> W and A <-> W: with A adjusted for, only the reading through
        # the confounding arc, where A is a collider, stays open.
        s = build_structure(
            ["A", "W", "X", "phi"],
            [("A", "W"), ("W", "phi"), ("X", "phi")],
            bidirected=[("X", "A"), ("A", "W")],
        )
        expected = "X <-> A <-> W -> phi"
        assert brute_open_paths(s, "X", "phi", {"A"}, backdoor=True) == {expected}
        assert open_backdoor_path(s, {"A"}, "X", "phi") == expected

    def test_friction_adjustment_set_admissible(self, friction_relation):
        relation, model = friction_relation
        from causalcrit.fixtures import FRICTION_ADJUSTMENT_SET

        assert backdoor_admissible(
            model.structure,
            FRICTION_ADJUSTMENT_SET,
            relation.phenomenon.variable,
            relation.metric,
        )


class TestEnumeration:
    def test_heavy_rain_model_first_is_v2(self, candidate_model):
        sets = enumerate_adjustment_sets(candidate_model.structure, "X", "phi", 10)
        assert sets[0] == frozenset({"V2"})
        assert frozenset({"V1", "V2"}) in sets

    def test_single_edge_empty_set_first(self):
        s = build_structure(["A", "B"], [("A", "B")])
        sets = enumerate_adjustment_sets(s, "A", "B", 4)
        assert sets[0] == frozenset()

    def test_all_results_admissible_and_ordered(self, candidate_model):
        s = candidate_model.structure
        sets = enumerate_adjustment_sets(s, "X", "phi", 100)
        for adj in sets:
            assert backdoor_admissible(s, adj, "X", "phi")
        keys = [(len(adj), tuple(sorted(adj))) for adj in sets]
        assert keys == sorted(keys)

    def test_invalid_pair_rejected(self):
        s = build_structure(["L", "X", "Y"], [("L", "X"), ("X", "Y")], latent=["L"])
        with pytest.raises(InvalidQuery, match="x and y must differ"):
            enumerate_adjustment_sets(s, "X", "X", 4)
        with pytest.raises(InvalidQuery, match="x and y must be non-latent"):
            enumerate_adjustment_sets(s, "L", "Y", 4)

    def test_zero_count_lists_nothing(self, candidate_model):
        assert enumerate_adjustment_sets(candidate_model.structure, "X", "phi", 0) == []

    @pytest.mark.parametrize("max_count", [True, 2.5, "3"], ids=["bool", "float", "str"])
    def test_a_count_that_is_no_integer_is_refused(self, candidate_model, max_count):
        # A bool counts as 1 or 0 and 2.5 compares with a count, so neither fails
        # on its own; "3" fails the comparison with a bare TypeError.
        message = f"max_count must be an integer, got {max_count!r}"
        with pytest.raises(InvalidQuery, match=f"^{re.escape(message)}$"):
            enumerate_adjustment_sets(candidate_model.structure, "X", "phi", max_count)

    def test_parent_set_guarantee_under_truncation(self, candidate_model):
        # {V2} is found first; truncation to one slot must still surface the
        # always-valid parent set {V1, V2}.
        sets = enumerate_adjustment_sets(candidate_model.structure, "X", "phi", 1)
        assert sets == [frozenset({"V1", "V2"})]

    def test_friction_adjustment_set_appears_with_scoped_pool(
        self, friction_relation, friction_scan
    ):
        # All 4,096 subsets of the 12-variable pool, against a scan that
        # uses d-separation instead of the back-door check.
        relation, model = friction_relation
        from causalcrit.fixtures import (
            FRICTION_ADJUSTMENT_SET,
            FRICTION_MEASURABLE_POOL,
        )

        sets = enumerate_adjustment_sets(
            model.structure,
            relation.phenomenon.variable,
            relation.metric,
            max_count=1 << 13,
            candidates=FRICTION_MEASURABLE_POOL,
        )
        assert sets == friction_scan
        assert len(sets) == 129
        assert frozenset(FRICTION_ADJUSTMENT_SET) in sets

    @pytest.mark.parametrize(
        "max_count, measurable, checks, digest",
        [
            (16, False, 228, "b16c2fced40ef764136979c1410c5d00c5da0e49c32c2f2831d04d17925b0693"),
            (1000, False, 5890, "6c90fda8041beecb46f3dad574345aab96a1d9c9b25c5a493eb75389eca688cc"),
            (1 << 13, True, 256, "05822894ffcf2073aed647059b2c5805bda5da0615f290d187c36c066500294a"),
        ],
        ids=["default", "max-1000", "measurable-pool"],
    )
    def test_path_bound_cuts_the_friction_walk(
        self, friction_relation, max_count, measurable, checks, digest
    ):
        # The default query (--max 16) and --max 1000 over the whole 33-node
        # pool, and all 129 sets of the 12-variable measurable pool. Without
        # the disjoint-path bound the walk made 124,929 and 648,989 checks
        # for the first two lists, pinned here by digest. The walk starts
        # again at every size; asking the check once per distinct set, not
        # once per visit, cut 283, 7,561 and 1,096 checks to those pinned.
        from causalcrit.fixtures import FRICTION_MEASURABLE_POOL

        relation, model = friction_relation
        s, x, y = model.structure, relation.phenomenon.variable, relation.metric
        pool = FRICTION_MEASURABLE_POOL if measurable else None
        sets, asked = walk_asking(s, x, y, max_count, pool)
        assert len(set(asked)) == len(asked) == checks
        assert len(sets) == (129 if measurable else max_count)
        listed = json.dumps([sorted(adj) for adj in sets]).encode()
        assert hashlib.sha256(listed).hexdigest() == digest


def walk_asking(s, x, y, max_count, candidates=None):
    """The list :func:`enumerate_adjustment_sets` returns, and the Z masks
    it puts to the back-door check, in the order asked."""
    check = _backdoor_check(s, x, y)
    with mock.patch.object(check, "admits_mask", wraps=check.admits_mask) as spy:
        sets = enumerate_adjustment_sets(s, x, y, max_count, candidates)
    return sets, [call.args[0] for call in spy.call_args_list]


# -- randomized properties ------------------------------------------------------


def swept(count: int) -> int:
    """``count`` examples, or the loaded profile's count when that is larger:
    ``--hypothesis-profile ci`` runs the adjustment-set properties at 2,000."""
    return max(count, settings.default.max_examples)


@st.composite
def random_structures(draw, max_nodes=6):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = [f"n{i}" for i in range(n)]
    directed = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                directed.append((names[i], names[j]))
    bidirected = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 9)) == 0:
                bidirected.append((names[i], names[j]))
    free = [v for v in names if not any(v in arc for arc in bidirected)]
    latent = draw(st.sets(st.sampled_from(free), max_size=2)) if free else set()
    return build_structure(names, directed, bidirected, latent)


@given(random_structures())
@settings(max_examples=60, deadline=None)
def test_descendants_ancestors_consistent(s):
    for a in s.nodes:
        for b in s.nodes:
            assert (b in descendants(s, a)) == (a in ancestors(s, b))


@given(random_structures(max_nodes=5), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_d_separation_matches_path_enumeration(s, rnd):
    nodes = list(s.nodes)
    rnd.shuffle(nodes)
    x, y = nodes[0], nodes[1] if len(nodes) > 1 else None
    if y is None:
        return
    z = set(nodes[2 : 2 + rnd.randint(0, len(nodes) - 2)])
    got = d_separated(s, {x}, {y}, z)
    expected = brute_d_separated(s, {x}, {y}, z)
    assert got.separated == expected
    if not got.separated:
        assert " ".join(got.witness_path) in brute_open_paths(s, x, y, z)


@given(random_structures())
@settings(max_examples=60, deadline=None)
def test_backdoor_matches_path_enumeration(s):
    # A set with no latent node and no descendant of x is refused exactly
    # when a back-door path stays open, and the path quoted is one of them.
    nodes = list(s.nodes)
    for x, y in itertools.permutations(nodes, 2):
        banned = brute_reachable(s.directed, x) | s.latent
        pool = [n for n in nodes if n not in (x, y)]
        for size in range(len(pool) + 1):
            for adj in itertools.combinations(pool, size):
                admissible = backdoor_admissible(s, set(adj), x, y)
                assert admissible == brute_backdoor_admissible(s, adj, x, y)
                if not banned & set(adj):
                    path = open_backdoor_path(s, adj, x, y)
                    assert (path is None) == admissible
                    if path is not None:
                        assert path in brute_open_paths(s, x, y, adj, backdoor=True)


@given(random_structures(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_backdoor_checks_keyed_by_pair(s, rnd):
    # Every (x, y) pair on one structure, its queries interleaved in a drawn
    # order: each answer must come from the check prepared for its own pair.
    queries = [
        (x, y, adj)
        for x, y in itertools.permutations(s.nodes, 2)
        for size in range(len(s.nodes) - 1)
        for adj in itertools.combinations(sorted(set(s.nodes) - {x, y}), size)
    ]
    rnd.shuffle(queries)
    for x, y, adj in queries:
        assert backdoor_admissible(s, adj, x, y) == brute_backdoor_admissible(s, adj, x, y)


def test_equal_structures_share_one_backdoor_check():
    # Two equal structures, built apart: the check that the first prepares
    # for (A, C) answers the second's queries too.
    a, b = chain_abc(), chain_abc()
    assert a == b and a is not b
    with (
        mock.patch.dict(_BACKDOOR_CHECKS, clear=True),
        mock.patch("causalcrit.graph._BackdoorCheck", wraps=_BackdoorCheck) as prepared,
    ):
        assert backdoor_admissible(a, [], "A", "C")
        assert enumerate_adjustment_sets(b, "A", "C", 4) == [frozenset()]
        assert _backdoor_check(b, "A", "C") is _backdoor_check(a, "A", "C")
    assert prepared.call_count == 1


@st.composite
def shuffled_graphs(draw, max_nodes=7, acyclic=True):
    """Nodes named in a random order, so name order is not topological order.

    Acyclic graphs only add edges from earlier to later positions; otherwise
    any ordered pair may become an edge.
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(n)
        if i != j and (i < j or not acyclic)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return names, edges


@given(shuffled_graphs(max_nodes=5), st.data())
@settings(max_examples=swept(150), deadline=None)
def test_enumeration_contains_parent_set(graph, data):
    # The whole returned list must follow the docstring, read with the path
    # oracle: admissible subsets of the pool in (size, names) order, cut at
    # max_count, then pa(x) in the last slot when the scan filled them all
    # and appended otherwise, whenever x has no confounding arc and no
    # parent is latent or y. Latent flags go only on nodes without an arc.
    nodes, edges = graph
    pairs = list(itertools.combinations(sorted(nodes), 2))
    arcs = []
    if pairs:
        arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2))
    free = [n for n in nodes if not any(n in arc for arc in arcs)]
    latent = data.draw(st.sets(st.sampled_from(free), max_size=2)) if free else set()
    s = build_structure(nodes, edges, arcs, latent)
    for x, y in itertools.permutations(sorted(set(nodes) - latent), 2):
        candidates = data.draw(st.none() | st.sets(st.sampled_from(nodes)))
        banned = brute_reachable(s.directed, x) | {x, y} | latent
        pool = sorted(set(nodes if candidates is None else candidates) - banned)
        scan = [
            frozenset(adj)
            for size in range(len(pool) + 1)
            for adj in itertools.combinations(pool, size)
            if brute_backdoor_admissible(s, adj, x, y)
        ]
        parents = frozenset(p for p, c in edges if c == x)
        confounded = any(x in arc for arc in arcs)
        guaranteed = not (confounded or parents & (latent | {y}))
        if guaranteed:
            assert brute_backdoor_admissible(s, parents, x, y)
        # Past len(scan) + 1 every count gives the same list; each smaller
        # one fills every slot before pa(x) may be reached.
        drawn = data.draw(st.integers(1, 1 << len(nodes)))
        for max_count in {*range(1, len(scan) + 2), drawn}:
            expected = scan[:max_count]
            if guaranteed and parents not in expected:
                if len(expected) == max_count:
                    expected[-1] = parents
                else:
                    expected.append(parents)
            assert enumerate_adjustment_sets(s, x, y, max_count, candidates) == expected


@st.composite
def walk_queries(draw, max_nodes=9):
    """(structure, x, y, candidates): a shuffled graph with up to three
    confounding arcs and two latent nodes, x and y observed, and a random
    pool or None; None when fewer than two nodes are observed."""
    nodes, edges = draw(shuffled_graphs(max_nodes=max_nodes))
    pairs = list(itertools.combinations(sorted(nodes), 2))
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) if pairs else []
    free = [n for n in nodes if not any(n in arc for arc in arcs)]
    latent = draw(st.sets(st.sampled_from(free), max_size=2)) if free else set()
    observed = sorted(set(nodes) - latent)
    if len(observed) < 2:
        return None
    x, y = draw(st.permutations(observed))[:2]
    candidates = draw(st.none() | st.sets(st.sampled_from(nodes)))
    return build_structure(nodes, edges, arcs, latent), x, y, candidates


@given(walk_queries())
@settings(max_examples=swept(120), deadline=None)
def test_pruned_walk_matches_plain_scan(query):
    # The walk skips prefixes that no admissible superset can complete; the
    # plain scan puts every subset to the back-door check. The lists must
    # agree at every cut, so the prune may drop no set and reorder none.
    if query is None:
        return
    s, x, y, candidates = query
    every = plain_adjustment_scan(s, x, y, 1 << len(s.nodes), candidates)
    for max_count in range(1, len(every) + 3):
        assert enumerate_adjustment_sets(s, x, y, max_count, candidates) == (
            plain_adjustment_scan(s, x, y, max_count, candidates)
        )


@given(walk_queries(), st.integers(1, 1 << 9))
@settings(max_examples=swept(120), deadline=None)
def test_walk_asks_each_set_once(query, max_count):
    # One call puts each distinct Z to the back-door check at most once;
    # every later visit reuses its answer.
    if query is None:
        return
    s, x, y, candidates = query
    _, asked = walk_asking(s, x, y, max_count, candidates)
    assert len(asked) == len(set(asked))


@given(shuffled_graphs(max_nodes=9), st.data())
@settings(max_examples=swept(120), deadline=None)
def test_disjoint_paths_bound_the_smallest_set(graph, data):
    # Once Z0 = An({x, y}) & pool is admissible, every admissible set meets
    # each packed path at a pool member of An({x, y}), a different one per
    # path: so the paths are nonempty, disjoint and within Z0, their count is
    # at most the smallest admissible size, and 0 just when {} is admissible.
    nodes, edges = graph
    pairs = list(itertools.combinations(sorted(nodes), 2))
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) if pairs else []
    free = [n for n in nodes if not any(n in arc for arc in arcs)]
    latent = data.draw(st.sets(st.sampled_from(free), max_size=2)) if free else set()
    s = build_structure(nodes, edges, arcs, latent)
    reversed_edges = [(b, a) for a, b in edges]
    for x, y in itertools.permutations(sorted(set(nodes) - latent), 2):
        candidates = data.draw(st.none() | st.sets(st.sampled_from(nodes)))
        banned = brute_reachable(s.directed, x) | {x, y} | latent
        pool = sorted(set(nodes if candidates is None else candidates) - banned)
        # Ancestors in the full graph: they meet the pool as those of the
        # graph with x's out-edges cut do, since no member descends from x.
        area = brute_reachable(reversed_edges, x) | brute_reachable(reversed_edges, y)
        z0 = sorted(area.intersection(pool))
        if not backdoor_admissible(s, z0, x, y):
            continue
        check = _backdoor_check(s, x, y)
        paths = check.disjoint_paths(check.masks(pool)[0])
        within = check.masks(z0)[0]
        assert all(path and not path & ~within for path in paths)
        assert all(not a & b for a, b in itertools.combinations(paths, 2))
        smallest = next(
            size
            for size in range(len(pool) + 1)
            for adj in itertools.combinations(pool, size)
            if backdoor_admissible(s, adj, x, y)
        )
        assert len(paths) <= smallest
        assert (not paths) == backdoor_admissible(s, (), x, y)


@given(shuffled_graphs())
@settings(max_examples=150, deadline=None)
def test_topological_order_is_lexicographic_kahn(graph):
    names, edges = graph
    s = build_structure(names, edges)
    assert s.topological_order() == tuple(kahn_order(names, edges))


@given(shuffled_graphs(acyclic=False))
@settings(max_examples=200, deadline=None)
def test_cycle_detected_exactly_on_cycles(graph):
    names, edges = graph
    if kahn_order(names, edges) is not None:
        build_structure(names, edges)
        return
    with pytest.raises(CycleDetected) as exc:
        build_structure(names, edges)
    hops = str(exc.value).split(": ", 1)[1].split(" -> ")
    assert hops[0] == hops[-1] and len(hops) >= 3
    assert all(hop in set(edges) for hop in zip(hops, hops[1:]))


@given(shuffled_graphs())
@settings(max_examples=150, deadline=None)
def test_ancestors_descendants_match_reachability(graph):
    names, edges = graph
    s = build_structure(names, edges)
    reversed_edges = [(b, a) for a, b in edges]
    for node in names:
        assert descendants(s, node) == brute_reachable(edges, node)
        assert ancestors(s, node) == brute_reachable(reversed_edges, node)
