"""CPD tables, exact inference, sampling, estimation.

The model record, :class:`VariableSpec`, :class:`Cpd`, :class:`DiscreteModel`
and :func:`build_model`, lives in :mod:`causalcrit.variables`, which needs no
numpy, and is re-exported here. Models are immutable after construction. All
probability computations are exact: :func:`joint_tables` computes one model's
joints over just the queried nodes by variable elimination over the CPDs of
their ancestral closure. :func:`_plan` plans the elimination by factor index
into a :class:`_Plan`, which holds no arrays and is cached by structure
value, so models on equal structures share their plans, and every call
replays a plan on its own model's arrays. A query whose output or largest
intermediate factor exceeds :data:`DEFAULT_STATE_SPACE_LIMIT` states is
rejected before the first contraction, not approximated. One driver,
:func:`_run`, the only caller of :func:`joint_tables` in the package,
answers the joints that the route and indicator steps ask for.
"""

from __future__ import annotations

import heapq
import math
import sys
import warnings
import weakref
from typing import Callable, Collection, Generator, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ._record import record
from .errors import (
    CausalCritError,
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
from .variables import Cpd, DiscreteModel, VariableSpec, build_model

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


def make_cpd(
    child: str,
    parents: Sequence[str],
    table: Sequence[Sequence[float]],
    specs: Mapping[str, VariableSpec],
) -> Cpd:
    """One CPD, checked against the variable specs: the one-table case of
    :func:`_cpds`, the check that each model's CPDs pass in one call."""
    return _cpds([(child, parents, table)], specs)[0]


def _cpds(
    entries: Sequence[tuple[str, Sequence[str], Sequence[Sequence[float]]]],
    specs: Mapping[str, VariableSpec],
) -> list[Cpd]:
    """The CPDs of (child, parents, table) entries, checked against the specs.

    Each entry, in order: its parents are name-sorted, each name has a spec,
    and its table is a 2-D array of integers or floats with one row per
    parent configuration and one column per child label. All tables then go
    into one float array, which gets one range check (each entry in [0, 1])
    and one row-sum check (each row sums to 1 within ``ROW_SUM_TOL``), and
    each table is a read-only view of it. Every rule holds of one entry, so
    the error is that of the first entry that fails alone; its ``entry``
    attribute is that entry's index.
    """
    heads, starts, at = [], [], 0
    try:
        for child, parents, table in entries:
            parents, what = tuple(parents), f"CPD for {child!r}"
            if sorted(parents) != list(parents):
                raise ValidationError(f"{what}: parents must be name-sorted")
            for name in (child, *parents):
                if name not in specs:
                    raise UnknownNode(f"{what} references unknown node {name!r}")
            try:
                arr = np.array(table)
            except (TypeError, ValueError):  # rows of unequal length
                arr = None
            if arr is None or arr.ndim != 2 or arr.dtype.kind not in "iuf":
                raise ValidationError(f"{what}: table must be a list of equal-length rows of numbers")
            n_cfg, card = math.prod(specs[p].cardinality for p in parents), specs[child].cardinality
            if arr.shape != (n_cfg, card):
                raise ValidationError(f"{what}: expected {n_cfg} rows x {card} columns, got {arr.shape}")
            heads.append((child, parents, arr, slice(at, at + arr.size)))
            starts += range(at, at + arr.size, card)
            at += arr.size
        flat = np.concatenate([np.empty(0), *(arr.ravel() for _, _, arr, _ in heads)], dtype=float)
        # The two messages below name the last entry, which is the only one
        # when they reach the caller. Every comparison with NaN is false, so
        # the range check asks what must hold of each cell, not what must not.
        if not ((flat >= 0.0) & (flat <= 1 + ROW_SUM_TOL)).all():
            rule = "lie in [0, 1]" if np.isfinite(flat).all() else "be finite"
            raise ValidationError(f"{what}: entries must {rule}")
        if starts and (np.abs(np.add.reduceat(flat, starts) - 1.0) > ROW_SUM_TOL).any():
            # As sum(axis=1) adds them: reduceat's order differs, and it keeps a lone -0.0.
            sums = arr.astype(float).sum(axis=1)
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(f"{what}: row {bad} sums to {float(sums[bad])!r}, expected 1")
    except CausalCritError as exc:
        if len(entries) > 1:  # the first entry that fails alone, at its index
            for k, entry in enumerate(entries):
                try:
                    _cpds([entry], specs)
                except CausalCritError as alone:
                    alone.entry = k
                    raise alone from None
        exc.entry = 0
        raise
    flat.setflags(write=False)
    cpds = [Cpd(child, parents, flat[cells].reshape(arr.shape)) for child, parents, arr, cells in heads]
    for cpd in cpds:
        object.__setattr__(cpd, "_checked", True)
    return cpds


@record(eq=False)
class Dataset:
    """Weighted table of categorical records, stored by column.

    ``codes[k]`` is a read-only integer array holding, for every row, the
    index of its label in ``domains[k]``; codes that are not integers are
    refused, not truncated. Row r stands for ``counts[r]`` records, one each
    when ``counts`` is not given: a read-only 1-D integer array of one
    non-negative entry per row whose total is below 2**53, so that every
    count sum is exact in floats and a weighted dataset estimates the same
    bits as its rows repeated. Column names are distinct. Labels are
    materialized only when a CSV is written. A dataset without columns has
    no rows.
    """

    columns: tuple[str, ...]
    codes: tuple[np.ndarray, ...]
    domains: tuple[tuple[str, ...], ...]
    provenance: str = "fixture"
    counts: Optional[np.ndarray] = None

    def __post_init__(self):
        columns, domains = tuple(self.columns), tuple(map(tuple, self.domains))
        if len(domains) != len(columns) or len(self.codes) != len(columns):
            raise ValidationError("a dataset needs one code array and one domain per column")
        for k, c in enumerate(columns):
            if c in columns[:k]:
                raise ValidationError(f"column {c!r} appears twice")
        codes = []
        for c, domain, arr in zip(columns, domains, self.codes):
            arr = np.array(arr)
            if arr.ndim != 1 or (codes and arr.shape != codes[0].shape):
                raise ValidationError(f"column {c!r}: codes must be one array of one length per column")
            if arr.size and arr.dtype.kind not in "iu":
                raise ValidationError(f"column {c!r}: codes must be integers, got {arr.dtype} values")
            if arr.size and (arr.min() < 0 or arr.max() >= len(domain)):
                raise ValidationError(f"column {c!r}: codes outside its {len(domain)}-label domain")
            arr = arr.astype(np.intp, copy=False)
            arr.setflags(write=False)
            codes.append(arr)
        rows = len(codes[0]) if codes else 0
        counts = np.ones(rows, dtype=np.int64) if self.counts is None else np.array(self.counts)
        if counts.shape != (rows,) or (counts.size and counts.dtype.kind not in "iu"):
            raise ValidationError(f"counts must be a 1-D integer array of {rows} entries, one per dataset row")
        if counts.size and counts.min() < 0:
            raise ValidationError("counts must be >= 0")
        # Every partial sum of the float total is exact while the total is below 2**53.
        total = counts.sum(dtype=float)
        if not total < 2**53:
            raise ValidationError(f"counts total {int(total)} records, not below 2**53")
        counts = counts.astype(np.int64, copy=False)
        counts.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "codes", tuple(codes))
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.domains == other.domains
            and self.provenance == other.provenance
            and all(np.array_equal(a, b) for a, b in zip(self.codes, other.codes))
            and np.array_equal(self.counts, other.counts)
        )


def _closure_within(
    m: DiscreteModel,
    over: Iterable[str],
    clamped: Collection[str] = (),
) -> tuple[str, ...]:
    """Ancestral closure of ``over``, not followed past ``clamped`` nodes.

    Every member except the clamped ones must carry a CPD. The names of
    ``over`` are checked first, in name order, so an unknown one is the
    first of them in that order.
    """
    needed = set(over)
    m.structure.ensure_nodes(n for n in sorted(needed) if n not in clamped)
    parents = m.structure._parents
    frontier = list(needed)
    while frontier:
        node = frontier.pop()
        if node in clamped:
            continue
        for p in parents[node]:
            if p not in needed:
                needed.add(p)
                frontier.append(p)
    missing = needed.difference(m.cpds, clamped)
    if missing:
        raise InsufficientInstantiation(
            f"need CPDs for {sorted(missing)} to enumerate over {sorted(set(over))}"
        )
    return tuple(sorted(needed))


def _check_closure(m: DiscreteModel, over: Iterable[str], clamped: Collection[str] = ()) -> None:
    """The errors of :func:`_closure_within`. No closure lacks a CPD when every
    node has one (:func:`build_model` files each under a distinct node), so
    then only its name check runs. This fork stays: with it the bench's 99
    seed-7 ``indicators`` requests make 198 closure walks, one per plan
    miss, against 1,980 without, and walking every ask read 2.0 to 8.4 %
    slower in median latency on a 2-vCPU VM, in 6 of 6 alternating pairs."""
    if len(m.cpds) < len(m.structure.nodes):
        _closure_within(m, over, clamped)
    else:
        m.structure.ensure_nodes(n for n in sorted(set(over)) if n not in clamped)


# The leading row axis of a joint; not a node name.
_ROWS = object()

# The character of axis 0 in a plan's factor strings, later axes following:
# past ",", "-" and ">", which np.einsum subscripts spell.
_AXIS = ord("?")

# joint_tables' plans by structure value, then by query. Equal structures share
# one entry, which lives as long as the first structure stored under that value.
_PLANS: weakref.WeakKeyDictionary[CausalStructure, dict] = weakref.WeakKeyDictionary()
_PLANS_PER_STRUCTURE = 64


class _Plan(NamedTuple):
    """An elimination of :func:`joint_tables` by factor index; it holds no arrays.

    Factor k spans the axes of the string ``axes[k]``, in order: axis i,
    node i of the sorted closure or, after them, the do() row axis, is the
    character ``chr(_AXIS + i)``, and a single-state node has none. ``ones``
    lists every ones factor as (factor, size, shape); a call takes each as
    a view of one buffer of ``width`` ones, which is quicker than making
    each with ``np.ones``. ``tables`` lists the CPD table or do() selector
    of each closure node as (factor, node, shape). ``steps`` are the
    contractions in order, each as (factor, its precompiled np.einsum
    subscripts such as ``"AB,BC->AC"``, input factors), and ``reads`` the
    factor each scope is read from, of shape ``outs[k]``.
    """

    axes: tuple[str, ...]
    ones: tuple[tuple[int, int, tuple[int, ...]], ...]
    width: int
    tables: tuple[tuple[int, str, tuple[int, ...]], ...]
    steps: tuple[tuple[int, str, tuple[int, ...]], ...]
    reads: tuple[int, ...]
    outs: tuple[tuple[int, ...], ...]


def joint_tables(
    m: DiscreteModel,
    scopes: Iterable[Iterable[str]],
    do: Optional[Mapping[str, Sequence[int]]] = None,
) -> list[np.ndarray]:
    """Exact joints of ``m`` over several node sets from one elimination.

    Entry k is a dense array whose axes follow ``sorted(set(scopes[k]))``.
    ``do`` maps each intervened node, a node of the structure (else
    :class:`UnknownNode`), to a sequence of integer label indices in
    ``range(cardinality)``, one per row, all of the same length n (else
    :class:`InvalidQuery`, naming the row, the node and the entry; a bool
    or a float is no label index); row r is the r-th intervention. Each such node's
    CPD factor becomes an n x |node| one-hot selector on a shared row axis
    and the closure does not follow its parents, so every entry has shape
    (n, *axes) and its row r is the joint of the truncated factorization
    under that intervention (Pearl 2009, *Causality*, §3.2). An intervened
    node in a scope is a point mass on its row's label.

    The CPD factors of the ancestral closure of all scopes (else
    :class:`InsufficientInstantiation`, naming the missing CPDs) are
    multiplied and summed out by sum-product variable elimination (Zhang &
    Poole 1994). :func:`_plan` decides the elimination by factor index and
    returns it as a :class:`_Plan`, a frozen value that holds no arrays, in
    which each contraction is a precompiled np.einsum subscript string.
    Every call then lays out its arrays in the plan's slots: the CPD
    tables, the do() selectors, and every ones factor as a view of one
    buffer of ones; and replays the plan with one :func:`_contract` call
    per step.
    The root is the scope that reaches furthest down the topological order
    (then the one with the most states, then the first): its nodes and the
    row axis are kept, and every other closure node, intervened or not, is
    eliminated once. The next node to eliminate is the one whose
    bucket, the union of the factors that mention it, spans the fewest
    states, ties broken by name. Every scope that reaches past the root adds
    a unit factor over itself, so the bucket that eliminates the first of
    its nodes covers it. The buckets form a cluster tree. Messages go up it
    once, then down only along the paths from the root to the buckets that
    hold a scope, and each scope is summed out of its bucket or the root
    (Shenoy & Shafer 1990; Lauritzen & Spiegelhalter 1988); a lone scope is
    the root and needs no downward pass.
    The plan checks every limit before the first contraction:
    :class:`StateSpaceExceeded` is raised when an output or a bucket would
    exceed :data:`DEFAULT_STATE_SPACE_LIMIT` states (read at each call).
    The root spans no more than its scope's output, and no downward message
    or read more than the cluster that sends it. A unit factor can still
    make a bucket that no scope alone needs, so a batch of several scopes
    whose plan is refused is planned again one scope at a time, every plan
    before any replay: the batch then raises only what some scope alone
    raises, still before the first contraction, and each entry is the
    single-scope call's, bit for bit.

    Plans are cached in :data:`_PLANS` by structure value, the model's
    cardinalities and the nodes with a CPD, the sorted scopes in their
    given order, each intervened node with its row count, and the limit,
    so another model on an equal structure, or other do() labels, replay
    the plan, and a call under another limit plans afresh. A refused query
    is never cached. A structure value keeps at most
    :data:`_PLANS_PER_STRUCTURE` plans and drops the oldest first.
    """
    scopes = tuple(tuple(sorted(set(s))) for s in scopes)
    if not scopes:
        return []
    do = do or {}
    n_rows = {len(rows) for rows in do.values()}
    if len(n_rows) > 1:
        raise InvalidQuery(f"do rows differ in length: {sorted(n_rows)}")
    for n, rows in do.items():
        card = m.spec_of(n).cardinality
        for r, i in enumerate(rows):
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise InvalidQuery(f"do() row {r} sets {n!r} to {i!r}, not an integer label index")
            if not 0 <= i < card:
                raise InvalidQuery(f"do() row {r} sets {n!r} to label index {i}, outside range({card})")
    counts = {n: len(rows) for n, rows in do.items()}
    try:
        plans = [_cached_plan(m, scopes, counts)]
    except StateSpaceExceeded:
        if len(scopes) == 1:
            raise
        plans = [_cached_plan(m, (s,), counts) for s in scopes]
    tables = []
    for plan in plans:
        arrays: list = [None] * len(plan.axes)
        buffer = np.ones(plan.width)
        for k, size, shape in plan.ones:
            arrays[k] = buffer[:size].reshape(shape)
        for k, n, shape in plan.tables:
            table = np.eye(m.specs[n].cardinality)[list(do[n])] if n in do else m.cpds[n].table
            arrays[k] = table.reshape(shape)
        for k, subscripts, ins in plan.steps:
            arrays[k] = _contract(subscripts, *[arrays[j] for j in ins])
        # A contraction down to no axis returns a numpy scalar, not an array.
        tables += [np.asarray(arrays[k]).reshape(out) for k, out in zip(plan.reads, plan.outs)]
    return tables


def _cached_plan(m: DiscreteModel, scopes: tuple[tuple[str, ...], ...], counts: Mapping[str, int]) -> _Plan:
    """The :class:`_Plan` of ``scopes`` from :data:`_PLANS`, planned and
    stored on a miss."""
    key = (m._shape_key, scopes, frozenset(counts.items()), DEFAULT_STATE_SPACE_LIMIT)
    plans = _PLANS.setdefault(m.structure, {})
    plan = plans.get(key)
    if plan is None:
        plans[key] = plan = _plan(m, scopes, counts)
        if len(plans) > _PLANS_PER_STRUCTURE:
            del plans[next(iter(plans))]
    return plan


def _plan(m: DiscreteModel, scopes: Sequence[tuple[str, ...]], do: Mapping[str, int]) -> _Plan:
    """The :class:`_Plan` of :func:`joint_tables` for the factor structure
    of ``m``, the sorted ``scopes``, and ``do`` mapping each intervened node
    to the number of do() rows. Every :class:`StateSpaceExceeded` check runs
    here, in the order the plan meets it.

    Factors are strings of axis characters, so unions, orders and
    membership are string and set operations. Each hidden node keeps its
    bucket's axes and the factors that span it, both updated as nodes are
    eliminated, and the next node comes off a heap. Each contraction's
    subscripts are written as the step is decided."""
    over = set().union(*scopes)
    closure = _closure_within(m, over, do)
    names = (*closure, _ROWS) if do else closure
    cards = {n: len(m.specs[n].domain) for n in closure}
    rows: tuple = ()
    if do:
        cards[_ROWS] = next(iter(do.values()))
        rows = (_ROWS,)
    outs = [tuple(map(cards.__getitem__, (*rows, *s))) for s in scopes]
    sizes = [math.prod(out) for out in outs]
    for s, size in zip(scopes, sizes):
        _check_states(size, len(s), lambda: f"the joint over {_named(s)}")
    # Axis i, closure node i or the row axis after them, is the character
    # chr(_AXIS + i), so a factor's axes are a string, in which character
    # order is name order. A single-state variable has no axis (its string
    # is empty): summing one out is the identity.
    axis = {n: chr(_AXIS + i) if cards[n] != 1 else "" for i, n in enumerate(names)}
    card = {axis[n]: c for n, c in cards.items() if c != 1}
    axes = ["".join(map(axis.__getitem__, (*rows, *s))) for s in scopes]
    # A factor is an index into ``fs``, its axes: a ones factor, a CPD or
    # do() factor of a closure node, or the result of one of ``steps``. The
    # row axis carries a ones factor, so it survives when no intervened node
    # lies in the closure, and a ones factor over no axis leaves the root a
    # factor.
    fs: list = []
    ones: list = []
    tables: list = []
    steps: list = []

    def ones_factor(scope: str) -> int:
        shape = tuple(map(card.__getitem__, scope))
        ones.append((len(fs), math.prod(shape), shape))
        fs.append(scope)
        return len(fs) - 1

    def contract(scope: str, ins: list, operands: list) -> int:
        """A step: the product of the factors ``ins``, over the axes
        ``operands``, summed down to ``scope``, as a new factor. Its np.einsum
        labels are numbered per step, in the order in which its axes first
        appear, so a step uses only as many as its factors span.
        A step of more than ``_MAX_OPERANDS`` factors first contracts its
        first ``_MAX_OPERANDS`` into the new factor's slot, over all their
        axes, and that partial product then comes first."""
        k = len(fs)
        order = "".join(dict.fromkeys("".join(operands)))
        letters = str.maketrans(order, _LETTERS[: len(order)])
        while len(ins) > _MAX_OPERANDS:
            head = operands[:_MAX_OPERANDS]
            union = "".join(dict.fromkeys("".join(head)))
            steps.append((k, f"{','.join(head)}->{union}".translate(letters), tuple(ins[:_MAX_OPERANDS])))
            ins, operands = [k, *ins[_MAX_OPERANDS:]], [union, *operands[_MAX_OPERANDS:]]
        steps.append((k, f"{','.join(operands)}->{scope}".translate(letters), tuple(ins)))
        fs.append(scope)
        return k

    ones_factor("")
    if rows:
        ones_factor(axis[_ROWS])
    for n in closure:
        scope = "".join(map(axis.__getitem__, (*(rows if n in do else m.cpds[n].parents), n)))
        tables.append((len(fs), n, tuple(map(card.__getitem__, scope))))
        fs.append(scope)
    # The root is the scope that reaches furthest down the topological
    # order, then the largest, so the closure is eliminated from the sources
    # down toward it. Only its nodes and the row axis are kept: an
    # intervened node elsewhere is summed out in its own bucket, with its
    # selector. Every scope that reaches past the root gets a unit factor,
    # which the bucket of its first eliminated node takes.
    root = 0
    if len(scopes) > 1 and over:
        position = dict(zip(m.structure.topological_order(), range(len(m.structure.nodes))))
        deepest = max(over, key=position.__getitem__)
        root = max((k for k, s in enumerate(scopes) if deepest in s), key=sizes.__getitem__)
    kept = set(axes[root])
    unit = {k: ones_factor(a) for k, a in enumerate(axes) if not kept.issuperset(a)}
    # Each axis's bucket, the set of its axes, and the factors that span it,
    # in index order; a factor that a bucket took is in ``owner``. Both are
    # kept up to date for the hidden nodes as nodes are eliminated.
    bucket_of: dict = {v: set() for v in card}
    members: dict = {v: [] for v in card}
    for f, scope in enumerate(fs):
        for v in scope:
            bucket_of[v].update(scope)
            members[v].append(f)
    # The next node to eliminate is the least by (states of its bucket,
    # name): a heap of (states, axis), in which an entry whose rank has
    # changed since it was pushed is skipped. Taking the least of the ranks
    # at each step instead would be quadratic in the hidden nodes.
    rank = {v: math.prod(map(card.__getitem__, b)) for v, b in bucket_of.items() if v not in kept}
    heap = [(size, v) for v, size in rank.items()]
    heapq.heapify(heap)
    owner: dict = {}  # factor -> the bucket that took it
    buckets: list = []  # (the factor it sends on, its factors)
    while heap:
        size, v = heapq.heappop(heap)
        if rank.get(v) != size:
            continue
        del rank[v]
        scope = bucket_of[v]
        scope.discard(v)
        _check_states(
            size,
            1 + len(scope),
            lambda: f"the bucket of {names[ord(v) - _AXIS]!r} and its neighbours "
            + _named([names[ord(u) - _AXIS] for u in scope]),
        )
        bucket = [f for f in members[v] if f not in owner]
        owner.update(dict.fromkeys(bucket, len(buckets)))
        operands = [fs[f] for f in bucket]
        k = contract("".join(dict.fromkeys("".join(operands))).replace(v, ""), bucket, operands)
        buckets.append((k, bucket))
        # Only hidden nodes' buckets are read again.
        for u in fs[k]:
            if u in rank:
                b = bucket_of[u]
                b |= scope
                b.discard(v)
                members[u].append(k)
                size = math.prod(map(card.__getitem__, b))
                if size != rank[u]:
                    rank[u] = size
                    heapq.heappush(heap, (size, u))
    # The root is the last cluster, what no bucket took, and it holds the
    # ones factor over no axis at least. It spans no more than the root
    # scope's output, and a downward message or a read no more than the
    # bucket or root that sends it.
    cluster = {None: [f for f in range(len(fs)) if f not in owner]}  # bucket (None: the root) -> its factors
    # The bucket each scope is read from (None: the root).
    at = [owner.get(unit.get(k)) for k in range(len(scopes))]
    path = set()
    for i in at:
        while i is not None and i not in path:
            path.add(i)
            i = owner.get(buckets[i][0])
    # A bucket is eliminated before the one that takes its message, so in
    # descending order every sender has its own downward message.
    for i in sorted(path, reverse=True):
        msg, bucket = buckets[i]
        sender = cluster[owner.get(msg)].copy()
        sender.remove(msg)
        operands = [fs[f] for f in sender]
        # The sender's other factors may miss a node of the message answered.
        covered = "".join(operands)
        rest = "".join([w for w in fs[msg] if w not in covered])
        if rest or not sender:
            sender.append(ones_factor(rest))
            operands.append(rest)
        cluster[i] = [*bucket, contract(fs[msg], sender, operands)]
    # A bucket's unit factor spans the scope it holds.
    reads = [contract(a, cluster[i], [fs[f] for f in cluster[i]]) for i, a in zip(at, axes)]
    return _Plan(
        axes=tuple(fs),
        ones=tuple(ones),
        width=max(size for _, size, _ in ones),
        tables=tuple(tables),
        steps=tuple(steps),
        reads=tuple(reads),
        outs=tuple(outs),
    )


# A step is a generator that yields a list of asks, each made by _ask, is
# sent the {scope: joint} dict of each ask and returns its value.
_Step = Generator[list, list, object]


def _ask(
    m: DiscreteModel,
    scopes: Iterable[Iterable[str]],
    do: Optional[Mapping[str, Sequence[int]]] = None,
) -> tuple:
    """A step's ask for the joints of ``m`` over ``scopes``: their keys, each
    a sorted node tuple, and the key of the group whose call answers it.

    An ask with ``do``, the do() rows of :func:`joint_tables` (``{}`` for
    none), is a query of its own: only the same query on the same model
    shares its call, so its answer is that of the query alone. An ask
    without, such as an indicator's joints or an observational route step,
    shares one call with every other such ask on ``m`` in the round. The
    closure check that :func:`joint_tables` would make of the ask alone runs
    here, so its error is raised in the step that makes the ask.
    """
    scopes = tuple(dict.fromkeys(tuple(sorted(set(s))) for s in scopes))
    _check_closure(m, {n for s in scopes for n in s}, do or ())
    if do is None:
        return scopes, (m, None, None)
    return scopes, (m, tuple((n, tuple(do[n])) for n in sorted(do)), scopes)


def _run(steps: Sequence[_Step]) -> list:
    """Drive ``steps`` in lockstep; the value each returns, in step order.

    In each round every live step is advanced, in order, to its next asks.
    The round is then answered with one :func:`joint_tables` call per group
    of asks on one model and, for a query of its own, its scopes and do()
    rows: each group is sent the joints over every scope it asked for.
    """
    values: list = [None] * len(steps)
    sent: dict[int, Optional[list]] = dict.fromkeys(range(len(steps)))
    while sent:
        asked = {}
        for i, answer in sent.items():
            try:
                asked[i] = steps[i].send(answer)
            except StopIteration as done:
                values[i] = done.value
        groups: dict[tuple, dict] = {}
        for asks in asked.values():
            for scopes, group in asks:
                groups.setdefault(group, {}).update(dict.fromkeys(scopes))
        tables = {
            (m, rows, q): dict(zip(scopes, joint_tables(m, list(scopes), do=dict(rows or ()))))
            for (m, rows, q), scopes in groups.items()
        }
        sent = {i: [tables[group] for _, group in asks] for i, asks in asked.items()}
    return values


# numpy 1.x einsum takes at most 32 operands.
_MAX_OPERANDS = 32

# The letter of each np.einsum label, as numpy spells label i of a sublist.
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

# The one contraction kernel, called as ``_contract(subscripts, *arrays)``:
# the C function that np.einsum calls when not asked to optimize, so the
# same numbers, without the array-function dispatch, which costs about as
# much as a contraction of a few small factors.
try:
    from numpy._core.multiarray import c_einsum as _contract
except ImportError:  # numpy 1.x
    _contract = np.einsum


def _check_states(size: int, count: int, what: Callable[[], str]) -> None:
    """Refuse ``size`` states past the limit, naming the factor by ``what()``."""
    if size > DEFAULT_STATE_SPACE_LIMIT:
        raise StateSpaceExceeded(
            f"a factor over {count} nodes spans {size} states, above the limit of {DEFAULT_STATE_SPACE_LIMIT}: "
            + what()
        )


def _named(nodes: Iterable) -> str:
    """The names of ``nodes`` in name order, then the do() row axis, if there."""
    names = sorted(repr(n) for n in nodes if n is not _ROWS)
    return f"[{', '.join(names + ['do() rows'] * (_ROWS in nodes))}]"


def _config_codes(
    parents: Sequence[str], codes: Mapping[str, np.ndarray], specs: Mapping[str, VariableSpec], n: int
) -> np.ndarray:
    """The CPD row of each of ``n`` rows' in-domain ``parents`` codes, as an
    intp array: mixed radix, first parent most significant."""
    cfg = np.zeros(n, dtype=np.intp)
    for p in parents:
        cfg *= specs[p].cardinality
        cfg += codes[p]
    return cfg


def sample(m: DiscreteModel, n: int, seed: int) -> Dataset:
    """Ancestral forward sampling of the observed nodes; deterministic for a
    fixed seed. Their ancestral closure, latent ancestors included, needs
    CPDs, or :class:`InsufficientInstantiation` names the missing ones.

    The stream is part of the output: each closure node, in topological
    order, takes one ``default_rng(seed).random(n)`` draw u, and row r's label
    is the number of cumulative CPD columns below u_r, the last one left out.
    A sample that does not fit in memory raises :class:`ValidationError`.
    """
    if n < 0:
        raise ValidationError(f"sample size must be >= 0, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    observed = [node for node in m.structure.nodes if node not in m.structure.latent]
    needed = set(_closure_within(m, observed))
    order = [node for node in m.structure.topological_order() if node in needed]
    rng = np.random.default_rng(seed)
    drawn: dict[str, np.ndarray] = {}
    try:
        for node in order:
            cpd = m.cpds[node]
            cfg = _config_codes(cpd.parents, drawn, m.specs, n)
            u = rng.random(n)
            drawn[node] = draw = np.zeros(n, dtype=np.intp)
            for cdf in np.cumsum(cpd.table, axis=1).T[:-1]:
                draw += cdf[cfg] < u
        return Dataset(
            columns=tuple(observed),
            codes=tuple(drawn[c] for c in observed),
            domains=tuple(m.specs[c].domain for c in observed),
            provenance="synthetic",
        )
    except MemoryError:
        raise ValidationError(f"a sample of {n} rows does not fit in memory") from None


def estimate_cpds(
    structure: CausalStructure,
    specs: Mapping[str, VariableSpec],
    dataset: Dataset,
    smoothing: float = 0.0,
) -> DiscreteModel:
    """Maximum-likelihood CPD estimation with optional additive smoothing.

    Row r of ``dataset`` counts as ``dataset.counts[r]`` records, so a
    dataset of distinct records and their counts estimates the same bits as
    its rows repeated. Every node whose own column and all parent columns
    are present gets a CPD of (count + a) / (row total + a * |child
    domain|); a family whose table would exceed
    :data:`DEFAULT_STATE_SPACE_LIMIT` cells raises
    :class:`StateSpaceExceeded` before the table is built. With smoothing
    a = 0, a parent configuration that never occurs leaves the row
    undefined: the node is dropped from the instantiated set and an
    :class:`UnseenParentConfigurationWarning` is emitted per empty row.
    """
    if not 0 <= smoothing <= sys.float_info.max:
        raise ValidationError(f"smoothing must be finite and >= 0, got {smoothing}")
    records = int(dataset.counts.sum())
    if records == 0:
        raise EmptyDataset("cannot estimate CPDs from an empty dataset")
    present = set(dataset.columns)
    for c in dataset.columns:
        if c not in specs:
            raise UnknownNode(f"dataset column {c!r} is not a structure variable")
    # A row total is its count plus the smoothing once per child label.
    largest = max(specs[c].cardinality for c in dataset.columns)
    if not math.isfinite(float(smoothing) * largest + records):
        raise ValidationError(
            f"smoothing {smoothing} overflows the CPD row totals of {records} rows "
            f"and up to {largest} labels"
        )

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

    entries = []
    for node in structure.nodes:
        parents = tuple(sorted(structure.parents(node)))
        if node not in present or any(p not in present for p in parents):
            continue
        card = specs[node].cardinality
        n_cfg = math.prod(specs[p].cardinality for p in parents)
        _check_states(
            n_cfg * card, len(parents) + 1, lambda: f"the family of {node!r} and its parents {_named(parents)}"
        )
        flat = _config_codes((*parents, node), encoded, specs, len(dataset))
        # Exact float sums of integer weights below 2**53: the bits of the rows repeated.
        table = np.bincount(flat, weights=dataset.counts, minlength=n_cfg * card).reshape(n_cfg, card)
        table = table + float(smoothing)
        totals = table.sum(axis=1)
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
        entries.append((node, parents, table / totals[:, None]))
    return build_model(structure, specs, _cpds(entries, specs))


def _config_labels(
    parents: tuple[str, ...],
    specs: Mapping[str, VariableSpec],
    row: int,
) -> dict[str, str]:
    cards = [specs[p].cardinality for p in parents]
    idx = np.unravel_index(row, tuple(cards))
    return {p: specs[p].domain[i] for p, i in zip(parents, idx)}
