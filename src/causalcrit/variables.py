"""Categorical variables and the model record that binds them to a structure.

A :class:`DiscreteModel` is a causal structure, a :class:`VariableSpec` for
every node and a :class:`Cpd` for each instantiated node. Nothing here
computes with the tables, so a model without CPDs, such as the friction
relation, is built and checked without numpy. :mod:`causalcrit.model` checks
each model's tables in one call, whether they come from a file, from data or
from a restricted sub-model, and computes with them; :func:`build_model`
refuses a CPD that did not pass that check.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from ._record import record
from .errors import UnknownCategory, UnknownNode, ValidationError
from .graph import CausalStructure

if TYPE_CHECKING:
    import numpy as np

__all__ = ["VariableSpec", "Cpd", "DiscreteModel", "build_model"]


@record
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
        if isinstance(self.domain, str):  # not read as its characters
            raise ValidationError(f"{self.name}: domain needs a collection of labels, got {self.domain!r}")
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


@record(eq=False)
class Cpd:
    """P(child | parents) as a row-per-parent-configuration table.

    Parents are ordered by sorted name; configurations enumerate in C order
    with the rightmost parent varying fastest. Rows sum to one.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray  # shape (#parent configurations, child cardinality)

    _checked = False  # set by model._cpds, the one check of CPD tables; build_model asks for it


@record(eq=False)
class DiscreteModel:
    """A causal structure with specs for every node and CPDs for a subset N."""

    structure: CausalStructure
    specs: Mapping[str, VariableSpec]
    cpds: Mapping[str, Cpd]

    @property
    def instantiated(self) -> frozenset[str]:
        return frozenset(self.cpds)

    @cached_property
    def _shape_key(self) -> tuple:
        """The cardinality of each node and the nodes with a CPD: what, on one
        structure, fixes the shape of every factor, since :func:`build_model`
        pins each CPD's parents to the structure's."""
        return tuple(self.specs[n].cardinality for n in self.structure.nodes), frozenset(self.cpds)

    def spec_of(self, node: str) -> VariableSpec:
        try:
            return self.specs[node]
        except KeyError:
            raise UnknownNode(f"unknown node {node!r}")


def build_model(
    structure: CausalStructure,
    specs: Mapping[str, VariableSpec],
    cpds: Iterable[Cpd] = (),
) -> DiscreteModel:
    """Validate spec coverage and CPD/graph consistency, then freeze the model.
    Each CPD must come from the CPD check: ``make_cpd``, a model file or data."""
    spec_map, nodes = dict(specs), set(structure.nodes)
    for node in structure.nodes:
        if node not in spec_map:
            raise ValidationError(f"no variable spec for node {node!r}")
    for name, sp in spec_map.items():
        if name not in nodes:
            raise UnknownNode(f"spec for undeclared node {name!r}")
        if sp.name != name:
            raise ValidationError(f"spec name {sp.name!r} filed under {name!r}")
    cpd_map: dict[str, Cpd] = {}
    for cpd in cpds:
        if not cpd._checked:
            raise ValidationError(f"CPD for {cpd.child!r} has not passed the CPD check: make it with make_cpd")
        if cpd.child in cpd_map:
            raise ValidationError(f"duplicate CPD for {cpd.child!r}")
        expected = structure.parents(cpd.child)
        if cpd.parents != expected:
            raise ValidationError(
                f"CPD for {cpd.child!r} conditions on {cpd.parents}, "
                f"graph parents are {expected}"
            )
        cpd_map[cpd.child] = cpd
    return DiscreteModel(structure=structure, specs=spec_map, cpds=cpd_map)
