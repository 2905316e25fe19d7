"""Causal structures: DAGs with bidirected confounding arcs and graph-level queries.

A structure is immutable after construction; every query here is read-only.
Bidirected arcs encode correlated error terms between two endogenous nodes.
For all path algorithms they are expanded into an explicit latent common
parent, which gives one uniform d-separation procedure for the
semi-Markovian case. Adjacency, the topological order and the ancestor and
descendant sets are plain tuples and sets, computed once per structure.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Optional

from .errors import (
    CycleDetected,
    DuplicateNode,
    InvalidQuery,
    OverlappingSets,
    SelfLoop,
    UnknownEndpoint,
    UnknownNode,
)

__all__ = [
    "CausalStructure",
    "PathQueryResult",
    "build_structure",
    "d_separated",
    "backdoor_admissible",
    "open_backdoor_path",
    "enumerate_adjustment_sets",
    "descendants",
    "ancestors",
]

# Direction tags for the reachability walk: _UP means the trail arrived at a
# node from one of its children, _DOWN from one of its parents.
_UP = 0
_DOWN = 1

Adjacency = dict[Hashable, tuple[Hashable, ...]]


def _sorted_adjacency(keys: Iterable[Hashable], edges: Iterable[tuple]) -> Adjacency:
    """key -> heads of the edges leaving it, sorted by ``str``."""
    out: dict[Hashable, list] = {k: [] for k in keys}
    for a, b in edges:
        out[a].append(b)
    return {k: tuple(sorted(v, key=str)) for k, v in out.items()}


@dataclass(frozen=True)
class CausalStructure:
    """A DAG over named nodes plus unordered bidirected confounding arcs."""

    nodes: tuple[str, ...]
    latent: frozenset[str]
    directed: frozenset[tuple[str, str]]
    bidirected: frozenset[frozenset[str]]

    @cached_property
    def _parents(self) -> Adjacency:
        return _sorted_adjacency(self.nodes, ((b, a) for a, b in self.directed))

    @cached_property
    def _children(self) -> Adjacency:
        return _sorted_adjacency(self.nodes, self.directed)

    @cached_property
    def _expanded(self) -> tuple[Adjacency, Adjacency]:
        """(parents, children) with each bidirected arc replaced by a latent fork."""
        hubs = [("__confounder__", *sorted(pair)) for pair in self.bidirected]
        edges = [*self.directed]
        for hub in hubs:
            edges += [(hub, hub[1]), (hub, hub[2])]
        keys = [*self.nodes, *hubs]
        return (
            _sorted_adjacency(keys, ((b, a) for a, b in edges)),
            _sorted_adjacency(keys, edges),
        )

    @cached_property
    def _topological_order(self) -> tuple[str, ...]:
        return tuple(_lexicographic_kahn(self._parents, self._children))

    @cached_property
    def _ancestors(self) -> dict[str, frozenset[str]]:
        return _closures(self._topological_order, self._parents)

    @cached_property
    def _descendants(self) -> dict[str, frozenset[str]]:
        return _closures(reversed(self._topological_order), self._children)

    @cached_property
    def _backdoor_checks(self) -> dict[tuple[str, str], "_BackdoorCheck"]:
        """One prepared :class:`_BackdoorCheck` per (x, y), filled on first use."""
        return {}

    def ensure_nodes(self, names: Iterable[str]) -> None:
        for name in names:
            if name not in self._parents:
                raise UnknownNode(f"unknown node {name!r}")

    def parents(self, node: str) -> frozenset[str]:
        self.ensure_nodes((node,))
        return frozenset(self._parents[node])

    def topological_order(self) -> tuple[str, ...]:
        """Topological order of the directed part, name-sorted tie-break."""
        return self._topological_order

    def is_markovian(self) -> bool:
        return not self.bidirected

    def confounded_with(self, node: str) -> frozenset[str]:
        return frozenset(
            next(iter(pair - {node})) for pair in self.bidirected if node in pair
        )


def _lexicographic_kahn(parents: Adjacency, children: Adjacency) -> list[str]:
    """Kahn's algorithm taking the smallest ready name first.

    Nodes on a cycle, or below one, never become ready and are left out.
    """
    indegree = {n: len(ps) for n, ps in parents.items()}
    ready = [n for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for c in children[node]:
            indegree[c] -= 1
            if not indegree[c]:
                heapq.heappush(ready, c)
    return order


def _closures(order: Iterable[str], step: Adjacency) -> dict[str, frozenset[str]]:
    """Everything reachable along ``step``, for nodes ordered so that each
    node's ``step`` neighbours come before it."""
    out: dict[str, frozenset[str]] = {}
    for node in order:
        reach: set[str] = set()
        for nbr in step[node]:
            reach.add(nbr)
            reach |= out[nbr]
        out[node] = frozenset(reach)
    return out


def _find_cycle(parents: Adjacency, stuck: set[str]) -> list[str]:
    """One cycle among the nodes a Kahn pass could not order.

    Each of them keeps a parent among them, so walking from the smallest
    one to its smallest such parent must repeat a node. The cycle is
    returned in edge direction, starting at its smallest name.
    """
    path: list[str] = []
    at: dict[str, int] = {}
    node = min(stuck)
    while node not in at:
        at[node] = len(path)
        path.append(node)
        node = min(p for p in parents[node] if p in stuck)
    cycle = path[at[node]:][::-1]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


@dataclass(frozen=True)
class PathQueryResult:
    """Outcome of a d-separation query.

    ``witness_path`` is an unblocked path drawn with its edge marks, nodes
    and marks alternating as in ``("P", "->", "A", "<->", "W")``, and is
    present exactly when ``separated`` is False.
    """

    separated: bool
    witness_path: Optional[tuple[str, ...]] = None


def build_structure(
    nodes: Iterable[str],
    directed: Iterable[tuple[str, str]] = (),
    bidirected: Iterable[tuple[str, str]] = (),
    latent: Iterable[str] = (),
) -> CausalStructure:
    """Validate and build a causal structure.

    Raises
    ------
    DuplicateNode, UnknownEndpoint, SelfLoop, CycleDetected
    """
    node_list = list(nodes)
    seen: set[str] = set()
    for name in node_list:
        if not name:
            raise UnknownEndpoint("node names must be non-empty")
        if name in seen:
            raise DuplicateNode(f"node {name!r} declared twice")
        seen.add(name)

    latent_set = frozenset(latent)
    for name in latent_set:
        if name not in seen:
            raise UnknownEndpoint(f"latent flag on undeclared node {name!r}")

    directed_edges = set()
    for a, b in directed:
        if a not in seen or b not in seen:
            raise UnknownEndpoint(f"edge ({a!r}, {b!r}) uses an undeclared node")
        if a == b:
            raise SelfLoop(f"self-loop on {a!r}")
        directed_edges.add((a, b))

    bidirected_edges = set()
    for a, b in bidirected:
        if a not in seen or b not in seen:
            raise UnknownEndpoint(f"bidirected ({a!r}, {b!r}) uses an undeclared node")
        if a == b:
            raise SelfLoop(f"bidirected self-loop on {a!r}")
        if a in latent_set or b in latent_set:
            # Confounding arcs pair endogenous nodes; latent marking is the
            # per-node unobservability flag, not an error-term handle.
            raise UnknownEndpoint(
                f"bidirected ({a!r}, {b!r}) must connect non-latent endogenous nodes"
            )
        bidirected_edges.add(frozenset((a, b)))

    s = CausalStructure(
        nodes=tuple(sorted(node_list)),
        latent=latent_set,
        directed=frozenset(directed_edges),
        bidirected=frozenset(bidirected_edges),
    )
    ordered = _lexicographic_kahn(s._parents, s._children)
    if len(ordered) < len(s.nodes):
        cycle = _find_cycle(s._parents, seen.difference(ordered))
        as_text = " -> ".join(cycle) + f" -> {cycle[0]}"
        raise CycleDetected(f"directed part contains a cycle: {as_text}")
    return s


def descendants(s: CausalStructure, node: str) -> frozenset[str]:
    """All nodes reachable from ``node`` along directed edges, excluding it."""
    s.ensure_nodes((node,))
    return s._descendants[node]


def ancestors(s: CausalStructure, node: str) -> frozenset[str]:
    s.ensure_nodes((node,))
    return s._ancestors[node]


def _reach_active(
    s: CausalStructure,
    sources: Iterable[str],
    targets: set,
    conditioned: set,
) -> Optional[list]:
    """Search for an active (unblocked) trail from ``sources`` to ``targets``.

    Standard two-direction reachability over (node, direction) states on the
    expanded graph: chains and forks pass through nodes outside the
    conditioning set, colliders pass through nodes whose descendants meet it.
    Returns the (node, direction) states of one active trail, or None if
    every trail is blocked.
    """
    parents_of, children_of = s._expanded
    cond_closure = set(conditioned)
    for z in conditioned:
        cond_closure |= s._ancestors[z]

    pred: dict[tuple, Optional[tuple]] = {}
    queue: deque[tuple] = deque()
    for src in sorted(sources, key=str):
        state = (src, _UP)
        if state not in pred:
            pred[state] = None
            queue.append(state)

    while queue:
        state = queue.popleft()
        node, direction = state
        if direction == _UP:
            if node in conditioned:
                continue
            hops = ((parents_of[node], _UP), (children_of[node], _DOWN))
        else:
            hops = (
                (children_of[node] if node not in conditioned else (), _DOWN),
                (parents_of[node] if node in cond_closure else (), _UP),
            )
        for neighbours, heading in hops:
            for nbr in neighbours:
                step = (nbr, heading)
                if step in pred:
                    continue
                pred[step] = state
                if nbr in targets:
                    trail = []
                    cursor = step
                    while cursor is not None:
                        trail.append(cursor)
                        cursor = pred[cursor]
                    trail.reverse()
                    return trail
                queue.append(step)
    return None


def d_separated(
    s: CausalStructure,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str] = (),
) -> PathQueryResult:
    """Test whether ``z`` blocks every path between ``x`` and ``y``.

    Bidirected arcs are treated as latent forks. When the sets are not
    separated, the result carries one unblocked witness path drawn with its
    edge marks.
    """
    x_set, y_set, z_set = set(x), set(y), set(z)
    s.ensure_nodes(x_set | y_set | z_set)
    if x_set & y_set or x_set & z_set or y_set & z_set:
        raise OverlappingSets("x, y and z must be pairwise disjoint")

    trail = _reach_active(s, x_set, y_set, z_set)
    if trail is None:
        return PathQueryResult(separated=True)
    # A state reached going up came from a child, one going down from a
    # parent. Confounder hubs are never drawn: each ``<- hub ->`` is a ``<->``.
    witness = [trail[0][0]]
    for (before, _), (node, direction) in zip(trail, trail[1:]):
        if isinstance(node, str):
            hub = not isinstance(before, str)
            witness += ["<->" if hub else "->" if direction == _DOWN else "<-", node]
    return PathQueryResult(separated=False, witness_path=tuple(witness))


def _or_masks(masks: list[int], members: int) -> int:
    """The union of ``masks[i]`` over the bits ``i`` set in ``members``."""
    out = 0
    while members:
        low = members & -members
        members ^= low
        out |= masks[low.bit_length() - 1]
    return out


class _BackdoorCheck:
    """The back-door criterion for one (x, y), prepared once per structure.

    It works on the expanded graph with x's out-edges cut, each node a bit
    of a Python int, and holds every node's parents, children, ancestors
    (itself included) and moral-graph neighbours within An({x, y}) there as
    bitmasks. A set Z is admissible exactly when
    it holds no latent node and no descendant of x, and it separates x from
    y in the moral graph of An({x, y} | Z) (Lauritzen, Dawid, Larsen &
    Leimer 1990; van der Zander, Liskiewicz & Textor 2019 give the
    adjustment form). No member descends from x, so the cut leaves the
    members' ancestors as they are. When y is x there is no path to block.
    """

    def __init__(self, s: CausalStructure, x: str, y: str):
        parents_of, children_of = s._expanded
        self._index = {node: i for i, node in enumerate(parents_of)}
        bit = {node: 1 << i for node, i in self._index.items()}
        self._parents = [
            sum(bit[p] for p in ps if p != x) for ps in parents_of.values()
        ]
        self._children = [
            0 if node == x else sum(bit[c] for c in cs)
            for node, cs in children_of.items()
        ]
        # Hubs have no parents, so they come first in a topological order.
        hubs = [n for n in parents_of if not isinstance(n, str)]
        self._ancestors = [0] * len(bit)
        for node in [*hubs, *s._topological_order]:
            i = self._index[node]
            self._ancestors[i] = bit[node] | _or_masks(self._ancestors, self._parents[i])
        self._banned = sum(bit[n] for n in s._descendants[x] | s.latent)
        self._source = bit[x]
        self._target = 0 if x == y else bit[y]
        self._area = self._ancestors[self._index[x]] | self._ancestors[self._index[y]]
        # Each node's moral-graph neighbours in An({x, y}): its parents, its
        # children there and their other parents. Z's ancestors only add.
        self._moral = [
            pa | (ch & self._area) | _or_masks(self._parents, ch & self._area)
            for pa, ch in zip(self._parents, self._children)
        ]

    def masks(self, adjustment: Iterable[str]) -> tuple[int, int]:
        """(Z, the union of its members' ancestors) as bitmasks."""
        z = z_area = 0
        for node in adjustment:
            i = self._index[node]
            z |= 1 << i
            z_area |= self._ancestors[i]
        return z, z_area

    def admits_mask(self, z: int, z_area: int) -> bool:
        """Whether the set ``z`` is admissible; ``z_area`` must agree with
        An(Z) outside An({x, y})."""
        parents, children, moral = self._parents, self._children, self._moral
        if z & self._banned:
            return False
        # Breadth-first search of the moral graph of An({x, y} | Z) that
        # never enters Z: the children that only Z's ancestors bring in, and
        # their other parents, join the neighbours prepared for An({x, y}).
        extra = z_area & ~self._area
        seen = frontier = self._source
        seen |= z
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            reach = moral[i]
            kids = children[i] & extra
            if kids:
                reach |= kids | _or_masks(parents, kids)
            reach &= ~seen
            if reach & self._target:
                return False
            seen |= reach
            frontier |= reach
        return True


def _backdoor_check(s: CausalStructure, x: str, y: str) -> _BackdoorCheck:
    """The :class:`_BackdoorCheck` for (x, y), prepared on first use."""
    check = s._backdoor_checks.get((x, y))
    if check is None:
        check = s._backdoor_checks[(x, y)] = _BackdoorCheck(s, x, y)
    return check


def backdoor_admissible(
    s: CausalStructure,
    adjustment: Iterable[str],
    x: str,
    y: str,
) -> bool:
    """Back-door criterion: no member descends from ``x`` and the set blocks
    every path from ``x`` to ``y`` that enters ``x`` through an incoming arrow.

    Latent-flagged nodes are rejected as members (they cannot be measured,
    hence not adjusted for). Blocking every arrow-into-x path is
    d-separation of x and y once x's outgoing directed edges are removed;
    confounding arcs at x stay, as they open back-door paths through the
    latent fork. The check is prepared once per (structure, x, y).
    """
    adj = set(adjustment)
    s.ensure_nodes(adj | {x, y})
    if adj & {x, y}:
        raise OverlappingSets("adjustment set must not contain x or y")
    check = _backdoor_check(s, x, y)
    return check.admits_mask(*check.masks(adj))


def open_backdoor_path(
    s: CausalStructure,
    adjustment: Iterable[str],
    x: str,
    y: str,
) -> Optional[str]:
    """One back-door path from ``x`` to ``y`` that ``adjustment`` leaves open,
    drawn with its edge marks (``X <-> W -> phi``), or None if it blocks all.

    The path is the :func:`d_separated` witness on ``s`` with x's outgoing
    directed edges removed.
    """
    s.ensure_nodes((x, y))
    if x == y:
        return None
    cut = CausalStructure(
        nodes=s.nodes,
        latent=s.latent,
        directed=frozenset(e for e in s.directed if e[0] != x),
        bidirected=s.bidirected,
    )
    witness = d_separated(cut, {x}, {y}, adjustment).witness_path
    return None if witness is None else " ".join(witness)


def enumerate_adjustment_sets(
    s: CausalStructure,
    x: str,
    y: str,
    max_count: int,
    candidates: Optional[Iterable[str]] = None,
) -> list[frozenset[str]]:
    """Enumerate back-door admissible sets of non-latent nodes.

    Subsets of the candidate pool are listed in (size ascending, then
    lexicographic by sorted member names) order when admissible, stopping
    after ``max_count``. The parent set of ``x`` is guaranteed to be
    included whenever ``x`` carries no confounding arc and no parent is latent
    or ``y``: if the listing fills all ``max_count`` slots without it, it
    replaces the final slot, and otherwise it is appended.

    ``candidates`` optionally restricts the search pool (default: every
    non-latent node that is not ``x``, ``y`` or a descendant of ``x``).

    For each size the pool is walked depth-first as bitmasks, prefixes in
    the order of :func:`itertools.combinations`. A prefix I, with R' the
    pool members after its last one, is entered only when some admissible
    set Z has I <= Z <= I | R'. One check decides that: such a Z exists
    exactly when An({x, y} | I) & (I | R') is admissible (van der Zander,
    Liskiewicz & Textor 2019, on the graph with x's out-edges cut).
    """
    s.ensure_nodes({x, y})
    if x == y:
        raise InvalidQuery("x and y must differ")
    if x in s.latent or y in s.latent:
        raise InvalidQuery("x and y must be non-latent")
    if max_count <= 0:
        return []

    banned = descendants(s, x) | {x, y} | s.latent
    if candidates is None:
        pool = [n for n in s.nodes if n not in banned]
    else:
        cand = list(candidates)
        s.ensure_nodes(cand)
        pool = sorted(n for n in set(cand) if n not in banned)

    check = _backdoor_check(s, x, y)
    admits, area = check.admits_mask, check._area
    bits = [1 << check._index[n] for n in pool]
    ancestors_of = [check._ancestors[check._index[n]] for n in pool]
    # tail[i]: the pool members from position i on.
    tail = [0] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        tail[i] = tail[i + 1] | bits[i]
    results: list[frozenset[str]] = []
    chosen: list[str] = []

    def walk(start: int, z: int, z_area: int, need: int) -> bool:
        """Extend the prefix ``z`` by ``need`` members from ``pool[start:]``;
        True once ``max_count`` sets are found."""
        for i in range(start, len(pool) - need + 1):
            zi, ai = z | bits[i], z_area | ancestors_of[i]
            if need == 1:
                if admits(zi, ai):
                    results.append(frozenset((*chosen, pool[i])))
                    if len(results) == max_count:
                        return True
            # Z* = An({x, y} | I) & (I | R'). Its ancestors lie in
            # An({x, y} | I) and include An(I), so An(I) gives the same moral
            # graph as Z*'s own ancestor mask.
            elif admits((area | ai) & (zi | tail[i + 1]), ai):
                chosen.append(pool[i])
                done = walk(i + 1, zi, ai, need - 1)
                chosen.pop()
                if done:
                    return True
        return False

    # The empty prefix: Z0 = An({x, y}) & pool is admissible or nothing is.
    if admits(area & tail[0], 0):
        if admits(0, 0):
            results.append(frozenset())
        for size in range(1, len(pool) + 1):
            if len(results) == max_count or walk(0, 0, 0, size):
                break
    # Needs no check: with no confounding arc at x, every back-door path
    # leaves x through a parent, a non-collider on it, so pa(x) blocks it
    # (Pearl 2009, Thm 3.2.2).
    parents = frozenset(s.parents(x))
    if not (parents & (s.latent | {y}) or s.confounded_with(x) or parents in results):
        results[max_count - 1 :] = [parents]
    return results
