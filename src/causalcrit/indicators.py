"""Causality indicator functions for judging modeling quality.

Five indicators compare a model's causal account of a phenomenon against an
assumed reality: the average and relative causal effect and the explained
share of the metric (effect side), and three divergence measures over the
emergence side (phenomenon marginal, joint over a node set, and per-node
causal-influence differences).

Every report embeds the conventions it was computed under: log base, KL
argument order, and the numeric codes of the metric categories. The same
inputs therefore reproduce the same value from the report alone.

Each indicator that reads a joint is written once, as a step: a generator
that runs its own spec and cut checks, yields the ``(model, scopes)`` joints
it needs, is sent them and returns its reports. :func:`_run` drives steps in
lockstep and answers each round with one calibrated elimination per model.
:func:`sigma`, :func:`rho1`, :func:`rho2` and :func:`rho3` run their one
step; :func:`indicator_reports`, the table ``cli indicators`` prints, runs
them all, plus the two effect-row calls, one :func:`plan_effect` per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .context import PhenomenonBinding
from .engine import _other_label, expectation, plan_effect
from .errors import (
    DivisionByZeroEffect,
    InfiniteDivergence,
    InvalidQuery,
    NotMarkovian,
    ValidationError,
    ZeroMeanCriticality,
    ZeroProbabilityCondition,
)
from .graph import CausalStructure
from .model import Cpd, DiscreteModel, build_model, joint_tables, make_cpd
from .model import _closure_within

__all__ = [
    "IndicatorReport",
    "ModelPair",
    "kl_divergence",
    "ace",
    "rce",
    "sigma",
    "rho1",
    "rho2",
    "rho3",
    "causal_influence",
    "indicator_reports",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class IndicatorReport:
    """One indicator value plus every convention needed to reproduce it."""

    name: str
    value: float
    node_set: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "node_set": list(self.node_set),
            "metadata": self.metadata,
        }


@dataclass(frozen=True)
class ModelPair:
    """Reference plays the role of assumed reality, candidate models it."""

    reference: DiscreteModel
    candidate: DiscreteModel

    def check_shared_specs(self, nodes: Iterable[str]) -> None:
        for n in nodes:
            ref = self.reference.spec_of(n)
            cand = self.candidate.spec_of(n)
            if ref.domain != cand.domain:
                raise ValidationError(
                    f"domain mismatch for {n!r}: {ref.domain} vs {cand.domain}"
                )


def _by_role(pair: ModelPair) -> dict[str, DiscreteModel]:
    return {"reference": pair.reference, "candidate": pair.candidate}


def _align(
    p: Union[Sequence[float], np.ndarray, Mapping[str, float]],
    q: Union[Sequence[float], np.ndarray, Mapping[str, float]],
) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, Mapping) != isinstance(q, Mapping):
        raise ValidationError("cannot mix mapping and sequence distributions")
    if isinstance(p, Mapping):
        if set(p) != set(q):
            raise ValidationError("distributions have different supports")
        keys = sorted(p)
        return (
            np.asarray([p[k] for k in keys], dtype=float),
            np.asarray([q[k] for k in keys], dtype=float),
        )
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValidationError("distributions have different support sizes")
    return pa, qa


def kl_divergence(
    p: Union[Sequence[float], np.ndarray, Mapping[str, float]],
    q: Union[Sequence[float], np.ndarray, Mapping[str, float]],
    bits: bool = False,
) -> float:
    """Kullback-Leibler divergence sum p log(p/q), natural log by default.

    ``p`` and ``q`` are mappings over the same keys or arrays of the same
    shape, compared cell by cell. Terms with p = 0 contribute nothing; p > 0
    against q = 0 raises :class:`InfiniteDivergence` instead of silently
    returning infinity. A negative or non-finite entry in either argument
    raises :class:`ValidationError`.
    """
    pa, qa = _align(p, q)
    for a in (pa, qa):
        # A NaN fails both comparisons.
        if not (a.min(initial=0.0) >= 0.0 and a.max(initial=0.0) < np.inf):
            raise ValidationError("distributions need finite, non-negative entries")
    mask = pa > 0.0
    p_in, q_in = pa[mask], qa[mask]
    if not q_in.all():
        raise InfiniteDivergence("support of p is not contained in support of q")
    value = max(float((p_in * np.log(p_in / q_in)).sum()), 0.0)
    return value / LN2 if bits else value


def _joints(m: DiscreteModel, scopes: Iterable[Sequence[str]]) -> dict[tuple[str, ...], np.ndarray]:
    """The joint over each scope, keyed by its sorted node tuple, from one
    :func:`~causalcrit.model.joint_tables` call."""
    keys = list(dict.fromkeys(tuple(sorted(set(s))) for s in scopes))
    return dict(zip(keys, joint_tables(m, keys)))


# A step yields a list of asks, each a model and the sorted node tuples whose
# joints it needs; it is sent the {scope: joint} dict of each ask's model and
# returns its reports.
_Step = Generator[list, list, list]


def _run(steps: Sequence[_Step]) -> list[IndicatorReport]:
    """Drive ``steps`` in lockstep; their reports, in step order.

    In each round every live step is advanced, in order, to its next ask,
    and the closure check that :func:`~causalcrit.model.joint_tables` would
    make of each ask alone runs as it is made. The round is then answered
    with one call per model, keyed by identity, its scopes in ask order.
    """
    reports: list[list[IndicatorReport]] = [[] for _ in steps]
    sent: dict[int, Optional[list]] = dict.fromkeys(range(len(steps)))
    while sent:
        asked = {}
        for i, answer in sent.items():
            try:
                asked[i] = steps[i].send(answer)
            except StopIteration as done:
                reports[i] = done.value
                continue
            for m, scopes in asked[i]:
                _closure_within(m, {n for s in scopes for n in s})
        by_model: dict[int, tuple[DiscreteModel, list]] = {}
        for asks in asked.values():
            for m, scopes in asks:
                by_model.setdefault(id(m), (m, []))[1].extend(scopes)
        tables = {key: _joints(m, scopes) for key, (m, scopes) in by_model.items()}
        sent = {i: [tables[id(m)] for m, _ in asks] for i, asks in asked.items()}
    return [r for rs in reports for r in rs]


def _effects(
    m: DiscreteModel, cp: PhenomenonBinding, metric: str
) -> tuple[float, float, dict]:
    """E(metric | do(CP)), E(metric | do(notCP)) and the shared report metadata.

    Both are rows of one :func:`plan_effect` call, so they share one route.
    """
    not_label = _other_label(m, cp)
    route, (d_cp, d_not) = plan_effect(m, {cp.variable: [cp.cp_label, not_label]}, metric)
    e_cp, e_not = expectation(d_cp, m, metric), expectation(d_not, m, metric)
    spec = m.spec_of(metric)
    meta = {
        "phenomenon": {"variable": cp.variable, "cp_label": cp.cp_label},
        "metric_codes": {c: spec.codes[i] for i, c in enumerate(spec.domain)},
        "route": route,
        "e_do_cp": e_cp,
        "e_do_not_cp": e_not,
    }
    return e_cp, e_not, meta


def _ace(
    cp: PhenomenonBinding, metric: str, e_cp: float, e_not: float, meta: dict
) -> IndicatorReport:
    return IndicatorReport("ACE", e_cp - e_not, (cp.variable, metric), meta)


def _rce(
    cp: PhenomenonBinding, metric: str, e_cp: float, e_not: float, meta: dict
) -> IndicatorReport:
    if e_not == 0.0:
        raise DivisionByZeroEffect("E(metric | do(notCP)) is zero")
    return IndicatorReport("RCE", e_cp / e_not, (cp.variable, metric), meta)


def _effect_step(
    m: DiscreteModel,
    cp: PhenomenonBinding,
    metric: str,
    role: Optional[str] = None,
    sigma_only: bool = False,
) -> _Step:
    """ACE and RCE of one model, unless ``sigma_only``, then sigma from its
    P(metric) ask; RCE's zero denominator is raised before the ask."""
    e_cp, e_not, meta = _effects(m, cp, metric)
    if role is not None:
        meta["role"] = role
    reports = [] if sigma_only else [
        _ace(cp, metric, e_cp, e_not, dict(meta)),
        _rce(cp, metric, e_cp, e_not, dict(meta)),
    ]
    (tables,) = yield [(m, [(metric,)])]
    p_metric = tables[(metric,)]
    e_obs = expectation(dict(zip(m.specs[metric].domain, p_metric.tolist())), m, metric)
    if e_obs == 0.0:
        raise ZeroMeanCriticality("observational E(metric) is zero")
    meta = {**meta, "e_observational": e_obs, "precondition_holds": e_not <= e_cp}
    return [*reports, IndicatorReport("sigma", 1.0 - e_not / e_obs, (cp.variable, metric), meta)]


def ace(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Average causal effect: E(metric | do(CP)) - E(metric | do(notCP))."""
    return _ace(cp, metric, *_effects(m, cp, metric))


def rce(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Relative causal effect: E(metric | do(CP)) / E(metric | do(notCP))."""
    return _rce(cp, metric, *_effects(m, cp, metric))


def sigma(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Explained share of measured criticality: 1 - E(metric|do(notCP)) / E(metric).

    The definition presumes E(do notCP) <= E(do CP). The value is reported
    either way, and metadata ``precondition_holds`` records whether it held.
    """
    (report,) = _run([_effect_step(m, cp, metric, sigma_only=True)])
    return report


def _rho1_step(pair: ModelPair, cp: PhenomenonBinding, bits: bool) -> _Step:
    x = (cp.variable,)
    pair.check_shared_specs(x)
    cand, ref = yield [(pair.candidate, [x]), (pair.reference, [x])]
    domain = pair.reference.specs[cp.variable].domain
    p_cand, p_ref = dict(zip(domain, cand[x].tolist())), dict(zip(domain, ref[x].tolist()))
    value = kl_divergence(p_cand, p_ref, bits=bits)
    meta = {
        "log_base": "bits" if bits else "nats",
        "kl_order": "candidate||reference",
        "candidate_marginal": p_cand,
        "reference_marginal": p_ref,
        "reverse_value": kl_divergence(p_ref, p_cand, bits=bits),
    }
    return [IndicatorReport("rho1", value, x, meta)]


def rho1(pair: ModelPair, cp: PhenomenonBinding, bits: bool = False) -> IndicatorReport:
    """KL of the phenomenon marginal, candidate (model) against reference."""
    (report,) = _run([_rho1_step(pair, cp, bits)])
    return report


def _node_set(pair: ModelPair, name: str, nodes: Iterable[str]) -> tuple[str, ...]:
    """The sorted, non-empty node set of ``name``, its specs shared by the pair."""
    node_list = tuple(sorted(set(nodes)))
    if not node_list:
        raise InvalidQuery(f"{name} needs a non-empty node set")
    pair.check_shared_specs(node_list)
    return node_list


def _rho2_step(pair: ModelPair, nodes: Iterable[str], bits: bool) -> _Step:
    node_list = _node_set(pair, "rho2", nodes)
    cand, ref = yield [(pair.candidate, [node_list]), (pair.reference, [node_list])]
    q, p = cand[node_list], ref[node_list]
    value = kl_divergence(q, p, bits=bits)
    meta = {
        "log_base": "bits" if bits else "nats",
        "kl_order": "candidate||reference",
        "reverse_value": kl_divergence(p, q, bits=bits),
    }
    return [IndicatorReport("rho2", value, node_list, meta)]


def rho2(pair: ModelPair, nodes: Iterable[str], bits: bool = False) -> IndicatorReport:
    """KL between the joints over a node set, candidate against reference.

    Both directions are informative; the default takes the candidate first
    and the reverse direction always rides along in the metadata.
    """
    (report,) = _run([_rho2_step(pair, nodes, bits)])
    return report


def _cut_parents(m: DiscreteModel, edges: Iterable[tuple[str, str]]) -> dict[str, list[str]]:
    """The cut parents of each child, once the edges pass causal influence's checks."""
    if not m.structure.is_markovian():
        raise NotMarkovian("causal influence is defined for Markovian models")
    edge_list = sorted(set(tuple(e) for e in edges))
    for e in edge_list:
        if e not in m.structure.directed:
            raise InvalidQuery(f"edge {e!r} is not in the structure")
    cut_by_child: dict[str, list[str]] = {}
    for a, b in edge_list:
        cut_by_child.setdefault(b, []).append(a)
    _closure_within(m, cut_by_child)
    return cut_by_child


def _families(m: DiscreteModel, cuts: Sequence[Mapping[str, list[str]]]) -> list[tuple[str, ...]]:
    """The parents of every cut child: the scopes P(pa_c) that the cuts read."""
    return list(dict.fromkeys(m.cpds[c].parents for cut in cuts for c in cut))


def _influences(
    m: DiscreteModel,
    cuts: Sequence[Mapping[str, list[str]]],
    p_family: Mapping[tuple[str, ...], np.ndarray],
    bits: bool,
) -> list[float]:
    """Causal influence of each cut, reading P(pa_c) from ``p_family``."""
    totals = []
    for cut_by_child in cuts:
        total = 0.0
        for child, cut in cut_by_child.items():
            parents = m.cpds[child].parents
            p_pa = p_family[parents]  # axes follow the sorted parents
            cond = m.cpds[child].table.reshape(p_pa.shape + (m.specs[child].cardinality,))
            cut_axes = tuple(parents.index(a) for a in cut)
            weight = np.ones(p_pa.ndim * (1,))  # product of the cut parents' marginals
            for k in cut_axes:
                others = tuple(i for i in range(p_pa.ndim) if i != k)
                weight = weight * p_pa.sum(axis=others, keepdims=True)
            cut_cond = (cond * weight[..., None]).sum(axis=cut_axes, keepdims=True)
            family = p_pa[..., None] * cond
            total += kl_divergence(family, p_pa[..., None] * cut_cond, bits=bits)
        totals.append(total)
    return totals


def causal_influence(
    m: DiscreteModel,
    edges: Iterable[tuple[str, str]],
    bits: bool = False,
) -> float:
    """KL between the joint and the joint with the given edges cut.

    Cutting an edge feeds the child an independent copy of the parent's
    marginal instead of its actual value. The influence of the empty edge set
    is zero. Only the CPDs of the cut edges' children change, so the KL is a
    sum over those children c of
    sum_{pa_c} P(pa_c) KL(P(c | pa_c) || P_cut(c | kept pa_c)), where P_cut
    averages P(c | pa_c) over the product of the cut parents' marginals
    (Janzing et al. 2013, "Quantifying causal influences"). Each term needs
    only the joint over the child's parents, and every P(pa_c) comes from one
    calibrated elimination (:func:`~causalcrit.model.joint_tables`).
    """
    cuts = [_cut_parents(m, edges)]
    return _influences(m, cuts, _joints(m, _families(m, cuts)), bits)[0]


def _kept_families(m: DiscreteModel, keep: Sequence[str]) -> list[tuple[str, ...]]:
    """Each kept node with its kept parents, as sorted node tuples."""
    keep_set = set(keep)
    return [tuple(sorted({n, *(m.structure.parents(n) & keep_set)})) for n in keep]


def _induced_submodel(
    m: DiscreteModel, keep: tuple[str, ...], joints: Mapping[tuple[str, ...], np.ndarray]
) -> DiscreteModel:
    """Sub-model over the sorted nodes ``keep``: induced edges, CPDs conditioned
    on kept parents.

    Each kept node's CPD becomes its exact conditional given the parents that
    survive the restriction, derived from the full joint over its
    :func:`_kept_families` entry, read from ``joints``. This treats the
    restricted joint as factorizing over the induced DAG, which is a
    sensitivity-analysis view rather than a marginalization theorem.
    """
    keep_set = set(keep)
    directed = frozenset(
        e for e in m.structure.directed if e[0] in keep_set and e[1] in keep_set
    )
    sub_structure = CausalStructure(
        nodes=keep,
        latent=frozenset(m.structure.latent & keep_set),
        directed=directed,
        bidirected=frozenset(
            p for p in m.structure.bidirected if p <= keep_set
        ),
    )
    sub_specs = {n: m.specs[n] for n in keep}
    cpds: list[Cpd] = []
    for n, names in zip(keep, _kept_families(m, keep)):
        joint = np.moveaxis(joints[names], names.index(n), -1)
        card = m.specs[n].cardinality
        flat = joint.reshape(-1, card)
        totals = flat.sum(axis=1)
        if np.any(totals == 0.0):
            raise ZeroProbabilityCondition(
                f"cannot condition {n!r} on a zero-probability parent configuration"
            )
        parents = tuple(p for p in names if p != n)
        cpds.append(make_cpd(n, parents, flat / totals[:, None], sub_specs))
    return build_model(sub_structure, sub_specs, cpds)


def _rho3_step(
    pair: ModelPair,
    nodes: Iterable[str],
    cp: PhenomenonBinding,
    restrict_to_set: bool,
    bits: bool,
) -> _Step:
    node_list = _node_set(pair, "rho3", nodes)
    models = _by_role(pair)
    if restrict_to_set:
        kept = yield [(m, _kept_families(m, node_list)) for m in models.values()]
        models = {
            role: _induced_submodel(m, node_list, joints)
            for (role, m), joints in zip(models.items(), kept)
        }
    component_nodes = [n for n in node_list if n != cp.variable]
    cuts: dict[str, list] = {role: [] for role in models}
    for n in component_nodes:  # every cut is checked, reference first, before any is answered
        for role, m in models.items():
            cuts[role].append(_cut_parents(m, [e for e in m.structure.directed if e[0] == n]))
    families = yield [(m, _families(m, cuts[role])) for role, m in models.items()]
    influences = {
        role: dict(zip(component_nodes, _influences(m, cuts[role], joints, bits)))
        for (role, m), joints in zip(models.items(), families)
    }
    components = {
        n: influences["reference"][n] - influences["candidate"][n] for n in component_nodes
    }
    value = math.sqrt(sum(v * v for v in components.values()))
    meta = {
        "log_base": "bits" if bits else "nats",
        "semantics": "restricted-to-set" if restrict_to_set else "full-graph",
        "components": components,
        "influences": influences,
        "phenomenon": cp.variable,
    }
    return [IndicatorReport("rho3", value, node_list, meta)]


def rho3(
    pair: ModelPair,
    nodes: Iterable[str],
    cp: PhenomenonBinding,
    restrict_to_set: bool = False,
    bits: bool = False,
) -> IndicatorReport:
    """L2 norm of per-node causal-influence differences over a node set.

    For each node except the phenomenon variable, the influence of its
    outgoing edges is computed in the reference and the candidate; the
    component is their difference. By default outgoing edges are taken in
    each model's full graph; with ``restrict_to_set`` both models are first
    restricted to the node set and edges are taken in the induced sub-model.
    Each model answers all of its cuts from one calibration, and each
    induced sub-model is built from one more.
    """
    (report,) = _run([_rho3_step(pair, nodes, cp, restrict_to_set, bits)])
    return report


def indicator_reports(
    pair: ModelPair,
    cp: PhenomenonBinding,
    metric: str,
    nodes: Optional[Iterable[str]] = None,
    restrict_to_set: bool = False,
    bits: bool = False,
) -> list[IndicatorReport]:
    """Every indicator of a pair, with one calibrated elimination per model.

    The reports are ACE, RCE and sigma of the reference and then of the
    candidate, each report's metadata naming its ``role``, then
    :func:`rho1` and, when ``nodes`` is given, :func:`rho2` and
    :func:`rho3`, from the steps those functions run. Each model's two
    effect rows come from :func:`plan_effect`, and every other joint it is
    asked for from one :func:`~causalcrit.model.joint_tables` call (Shenoy
    & Shafer 1990): sigma's P(metric), rho1's P(X), rho2's joint over the
    set and rho3's P(pa_c) families, or with ``restrict_to_set`` the kept
    families that its induced sub-model is built from; the sub-model's
    families are one more call. Every closure and spec check runs first,
    in report order, so a request fails where the separate calls would. The
    errors that need values (zero mean, infinite divergence, a
    zero-probability parent configuration) follow in report order. A
    violated sigma precondition is no error: each sigma report's metadata
    records it in ``precondition_holds``.
    """
    steps = [_effect_step(m, cp, metric, role) for role, m in _by_role(pair).items()]
    steps.append(_rho1_step(pair, cp, bits))
    if nodes is not None:
        nodes = tuple(nodes)
        steps += [_rho2_step(pair, nodes, bits), _rho3_step(pair, nodes, cp, restrict_to_set, bits)]
    return _run(steps)
