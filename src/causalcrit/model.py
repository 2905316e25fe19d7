"""Categorical variables, CPD tables, exact inference, sampling, estimation.

Models are immutable after construction. All probability computations are
exact: :func:`joint_table` computes the joint over just the queried nodes by
variable elimination over the CPDs of their ancestral closure. A query whose
output or largest intermediate factor exceeds a configurable state-space
bound is rejected instead of being silently approximated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    InsufficientInstantiation,
    InvalidQuery,
    StateSpaceExceeded,
    UnknownCategory,
    UnknownNode,
    UnseenParentConfigurationWarning,
    ValidationError,
)
from .graph import CausalStructure

__all__ = [
    "VariableSpec",
    "Cpd",
    "DiscreteModel",
    "Dataset",
    "build_model",
    "make_cpd",
    "sample",
    "estimate_cpds",
    "DEFAULT_STATE_SPACE_LIMIT",
]

DEFAULT_STATE_SPACE_LIMIT = 1 << 24

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class VariableSpec:
    """A categorical variable: ordered labels, one numeric code per label.

    ``value_range`` and ``unit`` carry the declared range/unit as free text;
    they document measurability and are not interpreted numerically.
    """

    name: str
    domain: tuple[str, ...]
    codes: tuple[float, ...]
    unit: str = "1"
    value_range: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValidationError("variable name must be non-empty")
        if len(self.domain) < 1:
            raise ValidationError(f"{self.name}: domain must have at least one label")
        if len(set(self.domain)) != len(self.domain):
            raise ValidationError(f"{self.name}: duplicate labels in domain")
        if len(self.codes) != len(self.domain):
            raise ValidationError(f"{self.name}: need one code per label")
        if not all(math.isfinite(c) for c in self.codes):
            raise ValidationError(f"{self.name}: codes must be finite")

    @property
    def cardinality(self) -> int:
        return len(self.domain)

    def index_of(self, label: str) -> int:
        try:
            return self.domain.index(label)
        except ValueError:
            raise UnknownCategory(f"{label!r} is not a category of {self.name!r}")

    def code_of(self, label: str) -> float:
        return self.codes[self.index_of(label)]


@dataclass(frozen=True, eq=False)
class Cpd:
    """P(child | parents) as a row-per-parent-configuration table.

    Parents are ordered by sorted name; configurations enumerate in C order
    with the rightmost parent varying fastest. Rows sum to one.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray  # shape (#parent configurations, child cardinality)


def make_cpd(
    child: str,
    parents: Sequence[str],
    table: Sequence[Sequence[float]],
    specs: Mapping[str, VariableSpec],
) -> Cpd:
    """Validate a CPD against the variable specs."""
    parent_list = tuple(parents)
    if tuple(sorted(parent_list)) != parent_list:
        raise ValidationError(f"CPD for {child!r}: parents must be name-sorted")
    for name in (child, *parent_list):
        if name not in specs:
            raise UnknownNode(f"CPD for {child!r} references unknown node {name!r}")
    try:
        arr = np.array(table, dtype=float)
    except (TypeError, ValueError):  # rows of unequal length, or a cell that is no number
        arr = None
    if arr is None or arr.ndim != 2:
        raise ValidationError(f"CPD for {child!r}: table must be a list of equal-length rows of numbers")
    n_cfg = math.prod(specs[p].cardinality for p in parent_list)
    card = specs[child].cardinality
    if arr.shape != (n_cfg, card):
        raise ValidationError(
            f"CPD for {child!r}: expected {n_cfg} rows x {card} columns, got {arr.shape}"
        )
    # Every comparison with NaN is false, so the range check asks what must
    # hold of each cell rather than what must not.
    if not ((arr >= -ROW_SUM_TOL) & (arr <= 1 + ROW_SUM_TOL)).all():
        rule = "lie in [0, 1]" if np.isfinite(arr).all() else "be finite"
        raise ValidationError(f"CPD for {child!r}: entries must {rule}")
    sums = arr.sum(axis=1)
    if (np.abs(sums - 1.0) > ROW_SUM_TOL).any():
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(
            f"CPD for {child!r}: row {bad} sums to {sums[bad]!r}, expected 1"
        )
    arr.setflags(write=False)
    return Cpd(child=child, parents=parent_list, table=arr)


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """A causal structure with specs for every node and CPDs for a subset N."""

    structure: CausalStructure
    specs: Mapping[str, VariableSpec]
    cpds: Mapping[str, Cpd]

    @property
    def instantiated(self) -> frozenset[str]:
        return frozenset(self.cpds)

    def spec_of(self, node: str) -> VariableSpec:
        try:
            return self.specs[node]
        except KeyError:
            raise UnknownNode(f"unknown node {node!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rectangular table of categorical observations, stored by column.

    ``codes[k]`` is a read-only integer array holding, for every row, the
    index of its label in ``domains[k]``. Labels are materialized only
    when a CSV is written. A dataset without columns has no rows.
    """

    columns: tuple[str, ...]
    codes: tuple[np.ndarray, ...]
    domains: tuple[tuple[str, ...], ...]
    provenance: str = "fixture"

    def __post_init__(self):
        columns, domains = tuple(self.columns), tuple(map(tuple, self.domains))
        if len(domains) != len(columns) or len(self.codes) != len(columns):
            raise ValidationError("a dataset needs one code array and one domain per column")
        codes = []
        for c, domain, arr in zip(columns, domains, self.codes):
            arr = np.array(arr, dtype=np.intp)
            if arr.ndim != 1 or (codes and arr.shape != codes[0].shape):
                raise ValidationError(f"column {c!r}: codes must be one array of one length per column")
            if arr.size and (arr.min() < 0 or arr.max() >= len(domain)):
                raise ValidationError(f"column {c!r}: codes outside its {len(domain)}-label domain")
            arr.setflags(write=False)
            codes.append(arr)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "codes", tuple(codes))
        object.__setattr__(self, "domains", domains)

    def __len__(self) -> int:
        return len(self.codes[0]) if self.codes else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.domains == other.domains
            and self.provenance == other.provenance
            and all(np.array_equal(a, b) for a, b in zip(self.codes, other.codes))
        )


def build_model(
    structure: CausalStructure,
    specs: Mapping[str, VariableSpec],
    cpds: Iterable[Cpd] = (),
) -> DiscreteModel:
    """Validate spec coverage and CPD/graph consistency, then freeze the model."""
    spec_map = dict(specs)
    for node in structure.nodes:
        if node not in spec_map:
            raise ValidationError(f"no variable spec for node {node!r}")
    for name, sp in spec_map.items():
        if name not in structure.nodes:
            raise UnknownNode(f"spec for undeclared node {name!r}")
        if sp.name != name:
            raise ValidationError(f"spec name {sp.name!r} filed under {name!r}")
    cpd_map: dict[str, Cpd] = {}
    for cpd in cpds:
        if cpd.child in cpd_map:
            raise ValidationError(f"duplicate CPD for {cpd.child!r}")
        expected = tuple(sorted(structure.parents(cpd.child)))
        if cpd.parents != expected:
            raise ValidationError(
                f"CPD for {cpd.child!r} conditions on {cpd.parents}, "
                f"graph parents are {expected}"
            )
        cpd_map[cpd.child] = cpd
    return DiscreteModel(structure=structure, specs=spec_map, cpds=cpd_map)


def _closure_within(
    m: DiscreteModel,
    over: Iterable[str],
    clamped: Container[str] = (),
) -> tuple[str, ...]:
    """Ancestral closure of ``over``, not followed past ``clamped`` nodes.

    Every member except the clamped ones must carry a CPD.
    """
    needed = set(over)
    frontier = list(needed)
    while frontier:
        node = frontier.pop()
        if node in clamped:
            continue
        cpd = m.cpds.get(node)
        parents = m.structure.parents(node) if cpd is None else cpd.parents
        for p in parents:
            if p not in needed:
                needed.add(p)
                frontier.append(p)
    missing = sorted(n for n in needed if n not in m.cpds and n not in clamped)
    if missing:
        raise InsufficientInstantiation(
            f"need CPDs for {missing} to enumerate over {sorted(set(over))}"
        )
    return tuple(sorted(needed))


# The leading row axis of an interventional joint; not a node name.
_ROWS = object()


def joint_table(
    m: DiscreteModel,
    over: Optional[Iterable[str]] = None,
    state_space_limit: int = DEFAULT_STATE_SPACE_LIMIT,
    do: Optional[Mapping[str, Sequence[int]]] = None,
) -> tuple[tuple[str, ...], np.ndarray]:
    """Exact joint over ``sorted(over)`` (default: every instantiated node).

    Returns the sorted node tuple and a dense array whose axes follow it.
    This is :func:`joint_tables` with one scope, the root, so there is no
    downward pass: the CPD factors of the ancestral closure of ``over`` are
    multiplied and every closure node outside ``over`` is summed out by
    sum-product variable elimination (Zhang & Poole 1994). The next node to
    eliminate is the one whose bucket, the union of the factors that mention
    it, spans the fewest states, ties broken by name.
    :class:`StateSpaceExceeded` is raised before any array is allocated when
    the output would exceed ``state_space_limit`` states, and before a
    bucket or the final contraction that would exceed it is built.

    ``do`` maps each intervened node to a sequence of label indices, one per
    row, all of the same length n; row r is the r-th intervention. Each such
    node's CPD factor becomes an n x |node| one-hot selector on a shared
    leading row axis and the closure does not follow its parents, so the
    array has shape (n, *axes) and row r is the joint of the truncated
    factorization under that intervention (Pearl 2009, *Causality*, §3.2).
    An intervened node in ``over`` is a point mass on its row's label.
    """
    names = tuple(sorted(m.instantiated if over is None else set(over)))
    return names, joint_tables(m, [names], state_space_limit, do)[0]


def joint_tables(
    m: DiscreteModel,
    scopes: Iterable[Iterable[str]],
    state_space_limit: int = DEFAULT_STATE_SPACE_LIMIT,
    do: Optional[Mapping[str, Sequence[int]]] = None,
) -> list[np.ndarray]:
    """Exact joints over several node sets from one calibrated elimination.

    Entry k is the joint over ``sorted(scopes[k])``, laid out as
    :func:`joint_table` lays out a single scope, ``do`` rows included.

    The root is the scope that reaches furthest down the topological order
    (then the one with the most states, then the first): its nodes, the
    intervened nodes and the row axis are kept, and the rest of the
    ancestral closure of all scopes is eliminated once, in
    :func:`joint_table`'s order. Every scope that reaches past the kept
    nodes adds a unit factor over itself, so the bucket that eliminates the
    first of its nodes covers it. The buckets form a cluster tree. Messages
    go up it once, then down only along the paths from the root to the
    buckets that hold a scope, and each scope is summed out of its bucket
    or the root (Shenoy & Shafer 1990; Lauritzen & Spiegelhalter 1988).
    :class:`StateSpaceExceeded` is raised before an output, a bucket or the
    root that would exceed ``state_space_limit`` states is built, and no
    downward message or read spans more than the cluster that sends it.
    """
    scopes = [tuple(sorted(set(s))) for s in scopes]
    if not scopes:
        return []
    do = do or {}
    n_rows = {len(rows) for rows in do.values()}
    if len(n_rows) > 1:
        raise InvalidQuery(f"do rows differ in length: {sorted(n_rows)}")
    closure = _closure_within(m, {n for s in scopes for n in s}, do)
    card = {n: m.specs[n].cardinality for n in closure}
    lead: tuple = ()
    if do:
        (card[_ROWS],) = n_rows
        lead = (_ROWS,)
    axes = [(*lead, *s) for s in scopes]
    sizes = [math.prod(card[n] for n in a) for a in axes]
    for s, size in zip(scopes, sizes):
        _check_states(size, s, state_space_limit)
    # Factors are (scope, array) pairs, told apart by identity. Single-state
    # variables get no axis: summing one out is the identity. The row axis
    # also carries a ones factor, so it survives when no intervened node
    # lies in the closure.
    factors = []
    for n in (*lead, *closure):
        if n is _ROWS:
            table, parents = np.ones(card[n]), ()
        elif n in do:
            table, parents = np.eye(card[n])[list(do[n])], lead
        else:
            table, parents = m.cpds[n].table, m.cpds[n].parents
        scope = tuple(v for v in (*parents, n) if card[v] != 1)
        factors.append((scope, table.reshape([card[v] for v in scope])))
    # The root is the scope that reaches furthest down the topological
    # order, then the largest, so the closure is eliminated from the sources
    # down toward it. Its nodes are kept, and so are the intervened nodes,
    # which are summed out last with their selectors so that every bucket is
    # that of the joint that keeps their axes. Every scope that reaches past
    # the kept nodes gets a unit factor, which the bucket of its first
    # eliminated node takes.
    root = 0
    if len(scopes) > 1:
        order = m.structure.topological_order()
        root = max(
            range(len(scopes)),
            key=lambda k: (max(map(order.index, scopes[k]), default=-1), sizes[k]),
        )
    kept = {*axes[root], *do}
    unit = {}
    for k, a in enumerate(axes):
        scope = tuple(v for v in a if card[v] != 1)
        if not kept.issuperset(scope):
            unit[k] = (scope, np.ones([card[v] for v in scope]))
            factors.append(unit[k])
    nbrs: dict = {n: set() for n in card if card[n] != 1}
    for scope, _ in factors:
        for v in scope:
            nbrs[v].update(scope)
    for v, vs in nbrs.items():
        vs.discard(v)
    hidden = set(nbrs) - kept
    # (states spanned by its bucket, name) for each hidden node; the bucket
    # holds the node and its neighbours.
    rank = {v: (card[v] * math.prod(map(card.__getitem__, nbrs[v])), v) for v in hidden}
    buckets = []  # (factors, message) per eliminated node
    while hidden:
        v = min(hidden, key=rank.__getitem__)
        _check_states(rank[v][0], (v, *nbrs[v]), state_space_limit)
        hidden.discard(v)
        # Only hidden nodes' neighbours are read again.
        for u in nbrs[v] & hidden:
            nbrs[u] |= nbrs[v]
            nbrs[u] -= {u, v}
            rank[u] = (card[u] * math.prod(map(card.__getitem__, nbrs[u])), u)
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = tuple(dict.fromkeys(w for s, _ in bucket for w in s if w != v))
        buckets.append((bucket, (scope, _contract(bucket, scope))))
        factors.append(buckets[-1][1])
    # The root is the last cluster, what no bucket took. A downward message
    # or a read spans no more than the bucket or root that sends it.
    last = tuple(dict.fromkeys(w for s, _ in factors for w in s))
    _check_states(math.prod(card[w] for w in last), last, state_space_limit)
    cluster = {None: factors}  # bucket (None: the root) -> its factors and downward message
    at = [None] * len(scopes)  # the bucket each scope is read from (None: the root)
    if unit:
        owner = {id(f): i for i, (bucket, _) in enumerate(buckets) for f in bucket}
        at = [owner.get(id(unit.get(k))) for k in range(len(scopes))]
        path = set()
        for i in at:
            while i is not None and i not in path:
                path.add(i)
                i = owner.get(id(buckets[i][1]))
        # A bucket is eliminated before the one that takes its message, so in
        # descending order every sender has its own downward message.
        for i in sorted(path, reverse=True):
            bucket, msg = buckets[i]
            sender = [f for f in cluster[owner.get(id(msg))] if f is not msg]
            # The sender's other factors may miss a node of the message answered.
            rest = tuple(w for w in msg[0] if all(w not in s for s, _ in sender))
            if rest or not sender:
                sender.append((rest, np.ones([card[w] for w in rest])))
            cluster[i] = [*bucket, (msg[0], _contract(sender, msg[0]))]
    tables = []
    for i, a in zip(at, axes):
        # A bucket's unit factor spans the scope it holds. The root holds no
        # factor only when there is none: no do rows and every scope empty.
        out = tuple(v for v in a if card[v] != 1)
        table = _contract(cluster[i], out) if cluster[i] else np.ones(())
        tables.append(table.reshape([card[v] for v in a]))
    return tables


# numpy 1.x einsum takes at most 32 operands.
_MAX_OPERANDS = 32


def _contract(
    factors: list[tuple[tuple[str, ...], np.ndarray]],
    out: tuple[str, ...],
) -> np.ndarray:
    """Product of ``factors`` summed down to the axes ``out``, via np.einsum.

    Subscripts are numbered per call, so a call uses only as many as its
    factors span.
    """
    while len(factors) > _MAX_OPERANDS:
        head = factors[:_MAX_OPERANDS]
        scope = tuple(dict.fromkeys(w for s, _ in head for w in s))
        factors = [(scope, _contract(head, scope)), *factors[_MAX_OPERANDS:]]
    label: dict[str, int] = {}
    args: list = []
    for scope, arr in factors:
        args += [arr, [label.setdefault(w, len(label)) for w in scope]]
    return np.einsum(*args, [label[w] for w in out])


def _check_states(size: int, nodes: Sequence[str], limit: int) -> None:
    if size > limit:
        raise StateSpaceExceeded(
            f"a factor over {len(nodes)} nodes spans {size} states, above the limit of {limit}"
        )


def sample(m: DiscreteModel, n: int, seed: int) -> Dataset:
    """Ancestral forward sampling of the observed nodes; deterministic for a
    fixed seed. Their ancestral closure, latent ancestors included, needs
    CPDs, or :class:`InsufficientInstantiation` names the missing ones."""
    if n < 0:
        raise ValidationError(f"sample size must be >= 0, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    observed = [node for node in m.structure.nodes if node not in m.structure.latent]
    needed = set(_closure_within(m, observed))
    order = [node for node in m.structure.topological_order() if node in needed]
    rng = np.random.default_rng(seed)
    drawn: dict[str, np.ndarray] = {}
    for node in order:
        cpd = m.cpds[node]
        card = m.specs[node].cardinality
        # One cumulative row per parent configuration, gathered per sample.
        cdfs = np.cumsum(cpd.table, axis=1)
        if cpd.parents:
            parent_cards = [m.specs[p].cardinality for p in cpd.parents]
            cfg = np.ravel_multi_index(
                tuple(drawn[p] for p in cpd.parents), tuple(parent_cards)
            )
            cdf = cdfs[cfg]
        else:
            cdf = np.broadcast_to(cdfs[0], (n, card))
        u = rng.random(n)
        drawn[node] = np.minimum((cdf < u[:, None]).sum(axis=1), card - 1)
    return Dataset(
        columns=tuple(observed),
        codes=tuple(drawn[c] for c in observed),
        domains=tuple(m.specs[c].domain for c in observed),
        provenance="synthetic",
    )


def estimate_cpds(
    structure: CausalStructure,
    specs: Mapping[str, VariableSpec],
    dataset: Dataset,
    smoothing: float = 0.0,
) -> DiscreteModel:
    """Maximum-likelihood CPD estimation with optional additive smoothing.

    Every node whose own column and all parent columns are present gets a CPD
    of (count + a) / (row total + a * |child domain|). With smoothing a = 0, a
    parent configuration that never occurs leaves the row undefined: the node
    is dropped from the instantiated set and an
    :class:`UnseenParentConfigurationWarning` is emitted per empty row.
    """
    if not 0 <= smoothing < math.inf:
        raise ValidationError(f"smoothing must be finite and >= 0, got {smoothing}")
    if len(dataset) == 0:
        raise EmptyDataset("cannot estimate CPDs from an empty dataset")
    present = set(dataset.columns)
    for c in dataset.columns:
        if c not in specs:
            raise UnknownNode(f"dataset column {c!r} is not a structure variable")

    encoded: dict[str, np.ndarray] = {}
    for c, codes, domain in zip(dataset.columns, dataset.codes, dataset.domains):
        # The dataset's label k is the spec's label lookup[k]; -1 if it has none.
        index = {label: i for i, label in enumerate(specs[c].domain)}
        lookup = np.array([index.get(label, -1) for label in domain], dtype=np.intp)
        encoded[c] = lookup[codes]
        outside = np.flatnonzero(encoded[c] < 0)
        if outside.size:
            label = domain[codes[outside[0]]]
            raise UnknownCategory(
                f"column {c!r} contains label {label!r} outside its domain"
            )

    cpds: list[Cpd] = []
    for node in structure.nodes:
        parents = tuple(sorted(structure.parents(node)))
        if node not in present or any(p not in present for p in parents):
            continue
        card = specs[node].cardinality
        if parents:
            parent_cards = [specs[p].cardinality for p in parents]
            cfg = np.ravel_multi_index(
                tuple(encoded[p] for p in parents), tuple(parent_cards)
            )
            n_cfg = int(np.prod(parent_cards, dtype=np.int64))
        else:
            cfg = np.zeros(len(dataset), dtype=np.int64)
            n_cfg = 1
        flat = cfg * card + encoded[node]
        counts = np.bincount(flat, minlength=n_cfg * card).reshape(n_cfg, card)
        counts = counts.astype(float) + smoothing
        totals = counts.sum(axis=1)
        empty_rows = np.flatnonzero(totals == 0.0)
        if empty_rows.size:
            for r in empty_rows:
                labels = _config_labels(parents, specs, int(r))
                warnings.warn(
                    f"node {node!r}: no observations for parent configuration "
                    f"{labels}; node left uninstantiated",
                    UnseenParentConfigurationWarning,
                    stacklevel=2,
                )
            continue
        table = counts / totals[:, None]
        cpds.append(make_cpd(node, parents, table, specs))
    return build_model(structure, specs, cpds)


def _config_labels(
    parents: tuple[str, ...],
    specs: Mapping[str, VariableSpec],
    row: int,
) -> dict[str, str]:
    cards = [specs[p].cardinality for p in parents]
    idx = np.unravel_index(row, tuple(cards))
    return {p: specs[p].domain[i] for p, i in zip(parents, idx)}
