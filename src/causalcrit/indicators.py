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
that runs its own spec and cut checks, yields the joints it needs, is sent
them and returns its reports. The effect step delegates its two do() rows
to the route step of :func:`~causalcrit.engine.plan_effect`. One driver,
:func:`~causalcrit.model._run`, runs every step in lockstep and answers
each round with one :func:`~causalcrit.model.joint_tables` call per model
and query; a pair on equal structures shares its cached plans.
:func:`ace`, :func:`rce`, :func:`sigma`, :func:`rho1`, :func:`rho2`,
:func:`rho3` and :func:`causal_influence` run their one step;
:func:`indicator_reports`, the table ``cli indicators`` prints, runs them all.
"""

from __future__ import annotations

import functools
import math
from collections import abc
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ._record import field, record
from .context import PhenomenonBinding
from .engine import _other_label, _plan_step, expectation
from .errors import (
    DivisionByZeroEffect,
    InfiniteDivergence,
    InvalidQuery,
    NotMarkovian,
    ValidationError,
    ZeroMeanCriticality,
    ZeroProbabilityCondition,
)
from .graph import _node_names, build_structure
from .model import DiscreteModel, build_model
from .model import _ask, _check_closure, _cpds, _run, _Step

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


@record
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


@record
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
    mapping = isinstance(p, abc.Mapping)
    if mapping != isinstance(q, abc.Mapping):
        raise ValidationError("cannot mix mapping and sequence distributions")
    if mapping and set(p) != set(q):
        raise ValidationError("distributions have different supports")
    try:
        if mapping:
            keys = sorted(p)
            p, q = [p[k] for k in keys], [q[k] for k in keys]
        pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    except (TypeError, ValueError):  # entries that are not numbers, ragged rows or unsortable keys
        raise ValidationError("distributions need numbers, in equal-length rows or under sortable keys") from None
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
    returning infinity. Ragged rows, or an entry in either argument that is
    not a finite non-negative number, raise :class:`ValidationError`.
    """
    pa, qa = _align(p, q)
    both = np.concatenate((pa, qa), axis=None)
    # A NaN fails both comparisons.
    if not (both.min(initial=0.0) >= 0.0 and both.max(initial=0.0) < np.inf):
        raise ValidationError("distributions need finite, non-negative entries")
    return _kl(pa, qa, bits)


def _kl(pa: np.ndarray, qa: np.ndarray, bits: bool) -> float:
    """:func:`kl_divergence` of float arrays of one shape whose entries are
    finite and non-negative, as every array built from checked CPDs is."""
    mask = pa > 0.0
    p_in, q_in = pa[mask], qa[mask]
    if not q_in.all():
        raise InfiniteDivergence("support of p is not contained in support of q")
    value = max(float((p_in * np.log(p_in / q_in)).sum()), 0.0)
    return value / LN2 if bits else value


_EFFECTS = ("ACE", "RCE", "sigma")


def _effect_step(
    m: DiscreteModel,
    cp: PhenomenonBinding,
    metric: str,
    role: Optional[str] = None,
    names: Sequence[str] = _EFFECTS,
) -> _Step:
    """The effect reports of one model named in ``names``, in the order ACE,
    RCE, sigma.

    E(metric | do(CP)) and E(metric | do(notCP)) are the two rows of the
    route step of :func:`plan_effect`'s auto rule, so they share one route;
    sigma asks for P(metric) in the route's first round.
    """
    not_label = _other_label(m, cp)
    rows = _plan_step(m, {cp.variable: [cp.cp_label, not_label]}, metric)
    asks = next(rows)
    own = [_ask(m, [(metric,)])] if "sigma" in names else []
    answers = yield [*asks, *own]
    answers, tables = answers[:len(asks)], answers[len(asks):]
    try:
        while True:  # a fallback of the route is one more round
            answers = yield rows.send(answers)
    except StopIteration as done:
        route, (d_cp, d_not) = done.value
    e_cp, e_not = expectation(d_cp, m, metric), expectation(d_not, m, metric)
    spec = m.spec_of(metric)
    meta = {
        "phenomenon": {"variable": cp.variable, "cp_label": cp.cp_label},
        "metric_codes": {c: spec.codes[i] for i, c in enumerate(spec.domain)},
        "route": route,
        "e_do_cp": e_cp,
        "e_do_not_cp": e_not,
    }
    if role is not None:
        meta["role"] = role
    nodes, reports = (cp.variable, metric), []
    if "ACE" in names:
        reports.append(IndicatorReport("ACE", e_cp - e_not, nodes, dict(meta)))
    if "RCE" in names:
        if e_not == 0.0:
            raise DivisionByZeroEffect("E(metric | do(notCP)) is zero")
        reports.append(IndicatorReport("RCE", e_cp / e_not, nodes, dict(meta)))
    if "sigma" in names:
        p_metric = tables[0][(metric,)]
        e_obs = expectation(dict(zip(spec.domain, p_metric.tolist())), m, metric)
        if e_obs == 0.0:
            raise ZeroMeanCriticality("observational E(metric) is zero")
        meta = {**meta, "e_observational": e_obs, "precondition_holds": e_not <= e_cp}
        reports.append(IndicatorReport("sigma", 1.0 - e_not / e_obs, nodes, meta))
    return reports


def _reports(steps: Sequence[_Step]) -> list[IndicatorReport]:
    """The reports of ``steps``, run on one driver, in step order."""
    return [r for reports in _run(steps) for r in reports]


def ace(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Average causal effect: E(metric | do(CP)) - E(metric | do(notCP))."""
    (report,) = _reports([_effect_step(m, cp, metric, names=("ACE",))])
    return report


def rce(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Relative causal effect: E(metric | do(CP)) / E(metric | do(notCP))."""
    (report,) = _reports([_effect_step(m, cp, metric, names=("RCE",))])
    return report


def sigma(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Explained share of measured criticality: 1 - E(metric|do(notCP)) / E(metric).

    The definition presumes E(do notCP) <= E(do CP). The value is reported
    either way, and metadata ``precondition_holds`` records whether it held.
    """
    (report,) = _reports([_effect_step(m, cp, metric, names=("sigma",))])
    return report


def _node_set(pair: ModelPair, name: str, nodes: Iterable[str]) -> tuple[str, ...]:
    """The sorted, non-empty node set of ``name``, its specs shared by the pair."""
    node_list = tuple(sorted(set(_node_names(nodes, "nodes"))))
    if not node_list:
        raise InvalidQuery(f"{name} needs a non-empty node set")
    pair.check_shared_specs(node_list)
    return node_list


def _kl_step(pair: ModelPair, name: str, nodes: Iterable[str], bits: bool) -> _Step:
    """KL report ``name`` of the joints over ``nodes``; rho1's adds its node's marginals."""
    node_list = _node_set(pair, name, nodes)
    cand, ref = yield [_ask(pair.candidate, [node_list]), _ask(pair.reference, [node_list])]
    q, p = cand[node_list], ref[node_list]
    value = _kl(q, p, bits)
    meta = {
        "log_base": "bits" if bits else "nats",
        "kl_order": "candidate||reference",
        "reverse_value": _kl(p, q, bits),
    }
    if name == "rho1":
        domain = pair.reference.specs[node_list[0]].domain
        meta["candidate_marginal"] = dict(zip(domain, q.tolist()))
        meta["reference_marginal"] = dict(zip(domain, p.tolist()))
    return [IndicatorReport(name, value, node_list, meta)]


def rho1(pair: ModelPair, cp: PhenomenonBinding, bits: bool = False) -> IndicatorReport:
    """KL of the phenomenon marginal, candidate against reference: :func:`rho2` over X."""
    (report,) = _reports([_kl_step(pair, "rho1", (cp.variable,), bits)])
    return report


def rho2(pair: ModelPair, nodes: Iterable[str], bits: bool = False) -> IndicatorReport:
    """KL between the joints over a node set, candidate against reference.

    Both directions are informative; the default takes the candidate first
    and the reverse direction always rides along in the metadata.
    """
    (report,) = _reports([_kl_step(pair, "rho2", nodes, bits)])
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
    _check_closure(m, cut_by_child)
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
            axes = range(p_pa.ndim)
            marginals = (p_pa.sum(axis=tuple(i for i in axes if i != k), keepdims=True) for k in cut_axes)
            weight = functools.reduce(np.multiply, marginals)  # product of the cut parents' marginals
            cut_cond = (cond * weight[..., None]).sum(axis=cut_axes, keepdims=True)
            family = p_pa[..., None] * cond
            total += _kl(family, p_pa[..., None] * cut_cond, bits)
        totals.append(total)
    return totals


def _influence_step(m: DiscreteModel, edges: Iterable[tuple[str, str]], bits: bool) -> _Step:
    cuts = [_cut_parents(m, edges)]
    (joints,) = yield [_ask(m, _families(m, cuts))]
    return _influences(m, cuts, joints, bits)[0]


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
    calibrated elimination, in one round of :func:`~causalcrit.model._run`.
    """
    if isinstance(edges, str):  # not read as its characters
        raise InvalidQuery(f"edges needs a collection of (parent, child) pairs, got {edges!r}")
    (value,) = _run([_influence_step(m, edges, bits)])
    return value


def _kept_families(m: DiscreteModel, keep: Sequence[str]) -> list[tuple[str, ...]]:
    """Each kept node with its kept parents, as sorted node tuples."""
    keep_set = set(keep)
    return [tuple(sorted({n, *keep_set.intersection(m.structure.parents(n))})) for n in keep]


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
    sub_structure = build_structure(
        keep,
        [e for e in m.structure.directed if keep_set.issuperset(e)],
        [tuple(p) for p in m.structure.bidirected if p <= keep_set],
        m.structure.latent & keep_set,
    )
    sub_specs = {n: m.specs[n] for n in keep}
    entries = []
    for n, names in zip(keep, _kept_families(m, keep)):
        joint = np.moveaxis(joints[names], names.index(n), -1)
        card = m.specs[n].cardinality
        flat = joint.reshape(-1, card)
        totals = flat.sum(axis=1)
        if np.any(totals == 0.0):
            raise ZeroProbabilityCondition(
                f"cannot condition {n!r} on a zero-probability parent configuration"
            )
        entries.append((n, tuple(p for p in names if p != n), flat / totals[:, None]))
    return build_model(sub_structure, sub_specs, _cpds(entries, sub_specs))


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
        kept = yield [_ask(m, _kept_families(m, node_list)) for m in models.values()]
        models = {
            role: _induced_submodel(m, node_list, joints)
            for (role, m), joints in zip(models.items(), kept)
        }
    component_nodes = [n for n in node_list if n != cp.variable]
    cuts: dict[str, list] = {role: [] for role in models}
    for n in component_nodes:  # every cut is checked, reference first, before any is answered
        for role, m in models.items():
            cuts[role].append(_cut_parents(m, [(n, c) for c in m.structure._children[n]]))
    families = yield [_ask(m, _families(m, cuts[role])) for role, m in models.items()]
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
    (report,) = _reports([_rho3_step(pair, nodes, cp, restrict_to_set, bits)])
    return report


def indicator_reports(
    pair: ModelPair,
    cp: PhenomenonBinding,
    metric: str,
    nodes: Optional[Iterable[str]] = None,
    restrict_to_set: bool = False,
    bits: bool = False,
) -> list[IndicatorReport]:
    """Every indicator of a pair, with two calibrated eliminations per model.

    The reports are ACE, RCE and sigma of the reference and then of the
    candidate, each report's metadata naming its ``role``, then
    :func:`rho1` and, when ``nodes`` is given, :func:`rho2` and
    :func:`rho3`, from the steps those functions run, all on one driver.
    Each model's two effect rows come from the route step of
    :func:`plan_effect`, which on a Markovian model is one
    :func:`~causalcrit.model.joint_tables` call with both do() rows, and
    every other joint it is asked for from one more call (Shenoy & Shafer
    1990): sigma's P(metric), rho1's P(X), rho2's joint over the set and
    rho3's P(pa_c) families, or with ``restrict_to_set`` the kept families
    that its induced sub-model is built from; the sub-model's families are
    one more call. Two models on equal structures, such as one relation
    estimated from two datasets, replay one cached plan per query, and each
    model's rows equal those of its own :func:`plan_effect` call. Every
    closure and spec check runs first, in report order, so a request fails
    where the separate calls would. The
    errors that need values (a zero RCE denominator, zero mean, infinite
    divergence, a zero-probability parent configuration) follow in report
    order, except that an auto route which meets a zero-probability
    condition on the parents route makes its fallback's checks in one more
    round. A violated sigma precondition is no error: each sigma report's
    metadata records it in ``precondition_holds``.
    """
    steps = [_effect_step(m, cp, metric, role) for role, m in _by_role(pair).items()]
    steps.append(_kl_step(pair, "rho1", (cp.variable,), bits))
    if nodes is not None:
        nodes = tuple(_node_names(nodes, "nodes"))
        steps += [_kl_step(pair, "rho2", nodes, bits), _rho3_step(pair, nodes, cp, restrict_to_set, bits)]
    return _reports(steps)
