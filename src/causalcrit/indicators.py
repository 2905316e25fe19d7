"""Causality indicator functions for judging modeling quality.

Five indicators compare a model's causal account of a phenomenon against an
assumed reality: the average and relative causal effect and the explained
share of the metric (effect side), and three divergence measures over the
emergence side (phenomenon marginal, joint over a node set, and per-node
causal-influence differences).

Every report embeds the conventions it was computed under: log base, KL
argument order, and the numeric codes of the metric categories. The same
inputs therefore reproduce the same value from the report alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .context import PhenomenonBinding
from .engine import _other_label, expectation, plan_effect
from .errors import (
    DivisionByZeroEffect,
    InfiniteDivergence,
    InvalidQuery,
    NotMarkovian,
    PreconditionWarning,
    ValidationError,
    ZeroMeanCriticality,
    ZeroProbabilityCondition,
)
from .graph import CausalStructure
from .model import Cpd, DiscreteModel, build_model, joint_table, joint_tables, make_cpd, marginal1
from .model import _closure_within

__all__ = [
    "IndicatorReport",
    "ModelPair",
    "kl_divergence",
    "ace",
    "rce",
    "sigma",
    "effect_indicators",
    "rho1",
    "rho2",
    "rho3",
    "causal_influence",
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
    returning infinity.
    """
    pa, qa = _align(p, q)
    mask = pa > 0.0
    if np.any(qa[mask] == 0.0):
        raise InfiniteDivergence("support of p is not contained in support of q")
    value = float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))
    value = max(value, 0.0)
    return value / LN2 if bits else value


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


def _sigma(
    m: DiscreteModel, cp: PhenomenonBinding, metric: str, e_cp: float, e_not: float, meta: dict
) -> IndicatorReport:
    e_obs = expectation(marginal1(m, metric), m, metric)
    if e_obs == 0.0:
        raise ZeroMeanCriticality("observational E(metric) is zero")
    meta["e_observational"] = e_obs
    meta["precondition_holds"] = e_not <= e_cp
    if e_not > e_cp:
        # Attributed to the caller of the public function.
        warnings.warn(
            f"sigma precondition violated: E(do notCP)={e_not} exceeds "
            f"E(do CP)={e_cp}; value reported anyway",
            PreconditionWarning,
            stacklevel=3,
        )
    return IndicatorReport("sigma", 1.0 - e_not / e_obs, (cp.variable, metric), meta)


def ace(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Average causal effect: E(metric | do(CP)) - E(metric | do(notCP))."""
    return _ace(cp, metric, *_effects(m, cp, metric))


def rce(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Relative causal effect: E(metric | do(CP)) / E(metric | do(notCP))."""
    return _rce(cp, metric, *_effects(m, cp, metric))


def sigma(m: DiscreteModel, cp: PhenomenonBinding, metric: str) -> IndicatorReport:
    """Explained share of measured criticality: 1 - E(metric|do(notCP)) / E(metric).

    The definition presumes E(do notCP) <= E(do CP); a violation downgrades
    to a warning and the value is still reported.
    """
    return _sigma(m, cp, metric, *_effects(m, cp, metric))


def effect_indicators(
    m: DiscreteModel, cp: PhenomenonBinding, metric: str
) -> tuple[IndicatorReport, IndicatorReport, IndicatorReport]:
    """``(ace, rce, sigma)`` of one model from one pair of interventional
    distributions, plus sigma's observational mean.

    Values, metadata, warnings and the first error raised are those of the
    three calls in that order.
    """
    e_cp, e_not, meta = _effects(m, cp, metric)
    return (
        _ace(cp, metric, e_cp, e_not, dict(meta)),
        _rce(cp, metric, e_cp, e_not, dict(meta)),
        _sigma(m, cp, metric, e_cp, e_not, dict(meta)),
    )


def rho1(pair: ModelPair, cp: PhenomenonBinding, bits: bool = False) -> IndicatorReport:
    """KL of the phenomenon marginal, candidate (model) against reference."""
    pair.check_shared_specs([cp.variable])
    p_cand = marginal1(pair.candidate, cp.variable)
    p_ref = marginal1(pair.reference, cp.variable)
    value = kl_divergence(p_cand, p_ref, bits=bits)
    meta = {
        "log_base": "bits" if bits else "nats",
        "kl_order": "candidate||reference",
        "candidate_marginal": p_cand,
        "reference_marginal": p_ref,
        "reverse_value": kl_divergence(p_ref, p_cand, bits=bits),
    }
    return IndicatorReport("rho1", value, (cp.variable,), meta)


def rho2(pair: ModelPair, nodes: Iterable[str], bits: bool = False) -> IndicatorReport:
    """KL between the joints over a node set, candidate against reference.

    Both directions are informative; the default takes the candidate first
    and the reverse direction always rides along in the metadata.
    """
    node_list = tuple(sorted(set(nodes)))
    if not node_list:
        raise InvalidQuery("rho2 needs a non-empty node set")
    pair.check_shared_specs(node_list)
    _, q = joint_table(pair.candidate, over=node_list)
    _, p = joint_table(pair.reference, over=node_list)
    value = kl_divergence(q, p, bits=bits)
    meta = {
        "log_base": "bits" if bits else "nats",
        "kl_order": "candidate||reference",
        "reverse_value": kl_divergence(p, q, bits=bits),
    }
    return IndicatorReport("rho2", value, node_list, meta)


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


def _influences(
    m: DiscreteModel, cuts: Sequence[Mapping[str, list[str]]], bits: bool
) -> list[float]:
    """Causal influence of each cut, every P(pa_c) from one :func:`joint_tables` call."""
    families = list(dict.fromkeys(m.cpds[c].parents for cut in cuts for c in cut))
    p_family = dict(zip(families, joint_tables(m, families)))
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
    return _influences(m, [_cut_parents(m, edges)], bits)[0]


def _induced_submodel(m: DiscreteModel, nodes: Sequence[str]) -> DiscreteModel:
    """Sub-model over ``nodes``: induced edges, CPDs conditioned on kept parents.

    Each kept node's CPD becomes its exact conditional given the parents that
    survive the restriction, derived from the full joint. This treats the
    restricted joint as factorizing over the induced DAG, which is a
    sensitivity-analysis view rather than a marginalization theorem.
    """
    keep = sorted(set(nodes))
    keep_set = set(keep)
    for n in keep:
        m.spec_of(n)
    directed = frozenset(
        e for e in m.structure.directed if e[0] in keep_set and e[1] in keep_set
    )
    sub_structure = CausalStructure(
        nodes=tuple(keep),
        latent=frozenset(m.structure.latent & keep_set),
        directed=directed,
        bidirected=frozenset(
            p for p in m.structure.bidirected if p <= keep_set
        ),
    )
    sub_specs = {n: m.specs[n] for n in keep}
    kept_parents = [tuple(sorted(p for p in m.structure.parents(n) if p in keep_set)) for n in keep]
    # One calibration gives every family's joint, with axes in sorted order.
    families = [sorted((*pa, n)) for n, pa in zip(keep, kept_parents)]
    cpds: list[Cpd] = []
    for n, pa, names, joint in zip(keep, kept_parents, families, joint_tables(m, families)):
        joint = np.moveaxis(joint, names.index(n), -1)
        card = m.specs[n].cardinality
        flat = joint.reshape(-1, card)
        totals = flat.sum(axis=1)
        if np.any(totals == 0.0):
            raise ZeroProbabilityCondition(
                f"cannot condition {n!r} on a zero-probability parent configuration"
            )
        cpds.append(make_cpd(n, pa, flat / totals[:, None], sub_specs))
    return build_model(sub_structure, sub_specs, cpds)


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
    """
    node_list = tuple(sorted(set(nodes)))
    pair.check_shared_specs(node_list)
    component_nodes = [n for n in node_list if n != cp.variable]
    if restrict_to_set:
        ref = _induced_submodel(pair.reference, node_list)
        cand = _induced_submodel(pair.candidate, node_list)
    else:
        ref = pair.reference
        cand = pair.candidate
    models = {"reference": ref, "candidate": cand}
    # Every cut is checked, in node order and reference first, before any
    # inference; then each model answers all of its cuts from one calibration.
    cuts: dict[str, list] = {role: [] for role in models}
    for n in component_nodes:
        for role, model in models.items():
            out = [e for e in model.structure.directed if e[0] == n]
            cuts[role].append(_cut_parents(model, out))
    influences = {
        role: dict(zip(component_nodes, _influences(model, cuts[role], bits)))
        for role, model in models.items()
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
    return IndicatorReport("rho3", value, node_list, meta)
