"""Interventional distributions via three interchangeable routes.

Truncated factorization (the intervened nodes clamped inside the
elimination), adjustment on the intervened node's parents, and back-door
adjustment all identify the same effect on a Markovian model. Each needs
only the CPDs of the ancestral closure of the joint it computes. On a
Markovian model the truncated closure lies inside every other route's, so
the adjustment routes serve semi-Markovian models. Every query maps each
intervened node to one label per do() row, and one route step computes all
rows through one route: the truncated route asks for one joint with the rows
on its leading axis, the adjustment routes take every row from one joint.
The step yields what it asks for, and :func:`~causalcrit.model._run`, the
driver of every step, answers it with one :func:`joint_tables` call per
model and query.
:func:`plan_effect` is that driver over one route step, and holds the one
rule that picks a route.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._record import record
from .choices import ROUTES
from .context import PhenomenonBinding
from .errors import (
    InsufficientInstantiation,
    InvalidQuery,
    NotAdmissible,
    NotIdentifiable,
    NotMarkovian,
    ParentsNotInstantiated,
    ZeroProbabilityCondition,
)
from .graph import _node_names, ancestors, backdoor_admissible, descendants, open_backdoor_path
from .model import DiscreteModel, _ask, _config_labels, _run, _Step

__all__ = [
    "ROUTES",
    "SafetyPrinciple",
    "SafetyPrincipleReport",
    "plan_effect",
    "expectation",
    "evaluate_safety_principle",
]


@record
class SafetyPrinciple:
    """A named do() expected to lower phenomenon probability or impact."""

    name: str
    assignments: Mapping[str, str]

    def __post_init__(self):
        if not self.assignments:
            raise InvalidQuery("a safety principle needs a non-empty intervention")


def _do_rows(
    m: DiscreteModel, do: Mapping[str, Sequence[str]]
) -> tuple[int, dict[str, list[int]]]:
    """The row count of ``do`` and each node's label index per row, by node name."""
    rows = {}
    for node in sorted(do):
        labels = do[node]
        if isinstance(labels, str):
            raise InvalidQuery(f"do() needs a list of labels for {node!r}, got {labels!r}")
        spec = m.spec_of(node)
        rows[node] = [spec.index_of(label) for label in labels]
    counts = {node: len(r) for node, r in rows.items()}
    if len(set(counts.values())) > 1 or 0 in counts.values():
        raise InvalidQuery(f"do() needs one label per row for every node, got {counts}")
    return next(iter(counts.values()), 1), rows


def _single_node(do: Mapping[str, Sequence[int]]) -> str:
    if len(do) != 1:
        raise InvalidQuery(
            "adjustment formulas are stated for single-node interventions; "
            "use the truncated route for multi-node do()"
        )
    (x,) = do
    return x


def _adjusted_table(
    m: DiscreteModel,
    x: str,
    rows: Sequence[int],
    target: str,
    adjustment: Iterable[str],
) -> _Step:
    """Sum_s P(target | x, s) P(s) for each label index of x in ``rows``.

    One row per entry of ``rows``, all from the exact joint of the set, x and
    target, which the step asks for. Strata with P(s) = 0 contribute nothing
    and are skipped; a conditioning event P(x, s) = 0 with P(s) > 0 is an
    error rather than NaN, raised for the first such row.
    """
    adj = tuple(sorted(set(adjustment)))
    names = sorted({*adj, x, target})
    (joints,) = yield [_ask(m, [names], {})]
    arr = joints[tuple(names)]
    spec_x, spec_t = m.spec_of(x), m.spec_of(target)
    order = [*adj, x]
    arr = np.transpose(arr, [names.index(n) for n in dict.fromkeys([*order, target])])
    if target in order:
        # The target is x or in the set: give it its own axis on which
        # P(target | x, s) is a point mass.
        eye_shape = [1] * len(order) + [spec_t.cardinality]
        eye_shape[order.index(target)] = spec_t.cardinality
        arr = arr[..., None] * np.eye(spec_t.cardinality).reshape(eye_shape)
    # axes: stratum s, value of x, value of target
    arr = arr.reshape(-1, spec_x.cardinality, spec_t.cardinality)
    p_s = arr.sum(axis=(1, 2))
    p_xst = arr[:, rows, :]
    p_xs = p_xst.sum(axis=2)
    live = p_s > 0.0
    undefined = live[:, None] & (p_xs == 0.0)
    if undefined.any():
        r = np.flatnonzero(undefined.any(axis=0))[0]
        labels = _config_labels(adj, m.specs, int(np.flatnonzero(undefined[:, r])[0]))
        raise ZeroProbabilityCondition(
            f"P({x}={spec_x.domain[rows[r]]}, {labels}) = 0; conditional undefined"
        )
    return (p_s[live, None, None] * (p_xst[live] / p_xs[live][..., None])).sum(axis=0)


def expectation(dist: Mapping[str, float], m: DiscreteModel, node: str) -> float:
    """Expected numeric code of ``node`` under a distribution over its labels."""
    spec = m.spec_of(node)
    return float(sum(spec.code_of(label) * p for label, p in dist.items()))


def _effect_rows(
    m: DiscreteModel,
    do: Mapping[str, Sequence[int]],
    target: str,
    route: str,
    adjustment: Optional[Iterable[str]] = None,
) -> _Step:
    """The route step: P(target | do) for each do row, through ``route``.

    ``do`` maps each intervened node to its label index per row, as in
    :func:`joint_tables`. The step asks for the one joint its route reads
    and returns the route label and one row per do row.
    ``point-mass`` and ``observational`` are the truncated joint without the
    Markov check: the auto rule takes them only where the do() leaves nothing
    to identify, as it sets the target or no intervened node lies in the
    target's closure. An empty ``do`` is ``observational`` on every route
    that passes the Markov check; it asks without do(), so it shares a call.
    """
    if route == "truncated" and not m.structure.is_markovian():
        raise NotMarkovian("truncated factorization needs independent error terms")
    if not do:
        route = "observational"
    elif route == "auto":
        return (yield from _auto_route(m, do, target))
    elif route == "parents":
        x = _single_node(do)
        if m.structure.confounded_with(x):
            raise NotMarkovian(
                f"{x!r} carries a confounding arc; its observed parents do not "
                "suffice for adjustment"
            )
        if target != x:
            try:
                return route, (yield from _adjusted_table(m, x, do[x], target, m.structure.parents(x)))
            except InsufficientInstantiation as exc:
                raise ParentsNotInstantiated(str(exc)) from None
    elif route == "backdoor":
        x, adj = _single_node(do), sorted(set(adjustment))
        if not backdoor_admissible(m.structure, adj, x, target):
            path = open_backdoor_path(m.structure, adj, x, target)
            why = (
                f"it leaves the back-door path {path} open"
                if path
                else f"it holds a latent node or a descendant of {x!r}"
            )
            raise NotAdmissible(
                f"{adj} does not satisfy the back-door criterion "
                f"for ({x!r}, {target!r}): {why}"
            )
        return f"backdoor:{adj}", (yield from _adjusted_table(m, x, do[x], target, adj))
    (joints,) = yield [_ask(m, [[target]], do or None)]
    return route, joints[(target,)]


def _auto_route(m: DiscreteModel, do: Mapping[str, Sequence[int]], target: str) -> _Step:
    """The auto rule of :func:`plan_effect`, as a route step. A zero
    probability condition on the parents route is one more round."""
    if m.structure.is_markovian() or len(do) > 1:
        return (yield from _effect_rows(m, do, target, "truncated"))
    try:
        return (yield from _effect_rows(m, do, target, "parents"))
    except (ParentsNotInstantiated, NotMarkovian, ZeroProbabilityCondition):
        pass
    (x,) = do
    if target == x:
        return (yield from _effect_rows(m, do, target, "point-mass"))
    if target not in descendants(m.structure, x):
        return (yield from _effect_rows(m, do, target, "observational"))
    latent = sorted({x, target} & m.structure.latent)
    if latent:
        raise NotIdentifiable(
            f"back-door adjustment for ({x!r}, {target!r}) needs both measured; "
            f"latent-flagged: {latent}"
        )
    # Every adjusted joint spans the target's closure, and x lies in it.
    scope = ancestors(m.structure, target)
    missing = sorted((scope | {target}) - m.instantiated)
    if missing:
        raise NotIdentifiable(
            f"back-door adjustment for ({x!r}, {target!r}) needs CPDs for {missing}"
        )
    # Members may be the measured non-descendants R of x whose closure has
    # CPDs. If R holds a back-door set, then An({x, target}) & R, which is
    # z below, is one (Tian, Paz & Pearl 1998; van der Zander, Liskiewicz
    # & Textor 2019): one check decides.
    z = sorted(scope - descendants(m.structure, x) - m.structure.latent - {x})
    if not backdoor_admissible(m.structure, z, x, target):
        raise NotIdentifiable(
            f"no back-door set for ({x!r}, {target!r}): the largest candidate, "
            f"{z}, leaves the back-door path "
            f"{open_backdoor_path(m.structure, z, x, target)} open"
        )
    for node in list(z):
        if backdoor_admissible(m.structure, [n for n in z if n != node], x, target):
            z.remove(node)
    return (yield from _effect_rows(m, do, target, "backdoor", z))


def _plan_step(
    m: DiscreteModel,
    do: Mapping[str, Sequence[str]],
    target: str,
    route: str = "auto",
    adjustment: Optional[Iterable[str]] = None,
) -> _Step:
    """:func:`plan_effect` as a step: its checks, then the route step."""
    if route not in ROUTES:
        raise InvalidQuery(f"unknown route {route!r}")
    if route == "backdoor":
        if adjustment is None:
            raise InvalidQuery("backdoor route needs an adjustment set")
        _node_names(adjustment, "adjustment")
    elif adjustment is not None:
        raise InvalidQuery(f"an adjustment set needs the backdoor route, got route {route!r}")
    n_rows, rows = _do_rows(m, do)
    m.spec_of(target)
    route, table = yield from _effect_rows(m, rows, target, route, adjustment)
    domain = m.specs[target].domain
    table = np.broadcast_to(table, (n_rows, len(domain)))
    return route, [dict(zip(domain, row)) for row in table.tolist()]


def plan_effect(
    m: DiscreteModel,
    do: Mapping[str, Sequence[str]],
    target: str,
    route: str = "auto",
    adjustment: Optional[Iterable[str]] = None,
) -> tuple[str, list[dict[str, float]]]:
    """P(target | do) for each do() row, all rows through one route.

    ``do`` maps each intervened node to one label per row:
    ``{"X": ["CP", "notCP"]}`` is two rows, ``{"X": ["CP"], "V2": ["Fast"]}``
    is one row that sets two nodes, and ``{}`` is one observational row.
    Label lists of unequal length, or an empty one, raise
    :class:`InvalidQuery`. Returns the route label and one distribution per
    row. Explicit routes are ``truncated``, ``parents`` and ``backdoor``.
    ``parents`` needs CPDs only for the closure of the intervened node, its
    parents and the target. ``backdoor`` needs ``adjustment``, a collection
    of node names that no other route takes, and checks it against the
    back-door criterion instead of assuming it: a set that fails raises
    :class:`NotAdmissible`. With no intervened node every route,
    ``auto`` included, gives the observational marginal (``observational``);
    ``truncated`` first checks that the model is Markovian.
    ``auto`` takes the truncated route on a Markovian model, where every
    other route needs a superset of its CPDs, or when a row sets several
    nodes; otherwise parent adjustment. When that fails, a target that the
    do() sets is a point mass (``point-mass``), and a target that does not
    descend from the intervened node x keeps its observational marginal
    (``observational``). Otherwise the measured non-descendants of x among
    the target's ancestors decide: they hold a back-door set exactly when
    they are one, and dropping members in name order while it stays one
    gives the set used. :class:`NotIdentifiable` is raised when they are
    not one, when the target's closure lacks CPDs, or when x or the target
    is latent-flagged. Every row goes through the same route, so contrasts
    between them stay comparable. The route step runs on
    :func:`~causalcrit.model._run`, the driver of every step.
    """
    (planned,) = _run([_plan_step(m, do, target, route, adjustment)])
    return planned


def _other_label(m: DiscreteModel, cp: PhenomenonBinding) -> str:
    """The label of the binary phenomenon variable that is not ``cp_label``."""
    spec = m.spec_of(cp.variable)
    if spec.cardinality != 2:
        raise InvalidQuery(
            f"phenomenon variable {cp.variable!r} must be binary, "
            f"has {spec.cardinality} categories"
        )
    spec.index_of(cp.cp_label)
    return next(c for c in spec.domain if c != cp.cp_label)


@record
class SafetyPrincipleReport:
    principle: str
    delta_p_phenomenon: float
    delta_metric_expectation: float
    p_phenomenon_baseline: float
    p_phenomenon_intervened: float
    metric_expectation_baseline: float
    metric_expectation_intervened: float
    notes: tuple[str, ...] = ()


def evaluate_safety_principle(
    m: DiscreteModel,
    sp: SafetyPrinciple,
    cp: PhenomenonBinding,
    metric: str,
) -> SafetyPrincipleReport:
    """Effect of a safety principle on phenomenon probability and metric mean.

    Reports P(X = CP | do(sp)) - P(X = CP) and E(metric | do(sp)) - E(metric).
    The request is one :func:`~causalcrit.model._run` of four
    :func:`plan_effect` steps under the auto rule: both baselines, which
    share one call, then both under do(sp), so a semi-Markovian model
    answers wherever the planner does. A principle
    whose targets influence neither the phenomenon nor the metric is not an
    error, since principles may act downstream of the phenomenon; the
    report's ``notes`` say so.
    """
    _other_label(m, cp)
    m.spec_of(metric)
    do = {node: [label] for node, label in sp.assignments.items()}
    _do_rows(m, do)

    influence_scope = (
        ancestors(m.structure, cp.variable)
        | {cp.variable}
        | ancestors(m.structure, metric)
        | {metric}
    )
    notes = ()
    if influence_scope.isdisjoint(sp.assignments):
        notes = (
            f"safety principle {sp.name!r} targets {sorted(sp.assignments)}, none of "
            f"which influence {cp.variable!r} or {metric!r}",
        )

    steps = [_plan_step(m, d, node) for d in ({}, do) for node in (cp.variable, metric)]
    (_, (base_x,)), (_, (base_metric,)), (_, (dist_x,)), (_, (dist_metric,)) = _run(steps)
    baseline_p, p_do = base_x[cp.cp_label], dist_x[cp.cp_label]
    baseline_e, e_do = (expectation(d, m, metric) for d in (base_metric, dist_metric))
    return SafetyPrincipleReport(
        principle=sp.name,
        delta_p_phenomenon=p_do - baseline_p,
        delta_metric_expectation=e_do - baseline_e,
        p_phenomenon_baseline=baseline_p,
        p_phenomenon_intervened=p_do,
        metric_expectation_baseline=baseline_e,
        metric_expectation_intervened=e_do,
        notes=notes,
    )
