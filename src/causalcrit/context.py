"""Contexts as structured statement lists and causal-relation validation.

A context scopes the scenario class a causal relation covers: statements
assert the existence or absence of ontology individuals, or constrain their
properties. Statements are checked structurally against flat property
records; no description-logic reasoning happens here.
"""

from __future__ import annotations

import operator
from typing import Mapping, Optional, Union

from ._record import field, record
from .errors import ValidationError
from .graph import CausalStructure
from .variables import VariableSpec

__all__ = [
    "ContextStatement",
    "ConstraintExpression",
    "PropertyRef",
    "PhenomenonBinding",
    "CausalRelation",
    "Violation",
    "validate_causal_relation",
    "validate_record",
]

_OP_FUNCS = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt, "!=": operator.ne,
}
OPERATORS = tuple(_OP_FUNCS)


@record
class PropertyRef:
    """Reference to another individual's property, e.g. the b.p2 in a.p2 < b.p2."""

    individual: str
    prop: str

    def key(self) -> str:
        return f"{self.individual}.{self.prop}"


@record
class ConstraintExpression:
    """Comparison of a subject property against a literal or another property."""

    prop: str
    op: str
    value: Union[float, str, PropertyRef]
    unit: str = ""

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise ValidationError(f"unknown operator {self.op!r}")
        if not self.prop:
            raise ValidationError("constraint needs a property name")


@record
class ContextStatement:
    """One statement of a context, tagged with its 6-layer-model layer."""

    layer: int
    subject: str
    kind: str  # existence | absence | constraint
    expression: Optional[ConstraintExpression] = None

    def __post_init__(self):
        if not 1 <= self.layer <= 6:
            raise ValidationError(f"layer must be 1..6, got {self.layer}")
        if self.kind not in ("existence", "absence", "constraint"):
            raise ValidationError(f"unknown statement kind {self.kind!r}")
        if not self.subject:
            raise ValidationError("statement needs a subject individual")
        if self.kind == "constraint" and self.expression is None:
            raise ValidationError("constraint statements need an expression")
        if self.kind != "constraint" and self.expression is not None:
            raise ValidationError(f"{self.kind} statements carry no expression")


@record
class PhenomenonBinding:
    """Which category of which variable counts as the criticality phenomenon."""

    variable: str
    cp_label: str


@record
class Violation:
    clause: str
    message: str

    def __str__(self) -> str:
        return f"[{self.clause}] {self.message}"


@record
class CausalRelation:
    """A causal structure plus context, phenomenon binding and metric sink.

    The variable specs ride along so the definitional invariants (binary
    phenomenon, declared ranges and units) are checkable from the relation
    alone.
    """

    structure: CausalStructure
    context: tuple[ContextStatement, ...]
    phenomenon: PhenomenonBinding
    metric: str
    specs: Mapping[str, VariableSpec] = field(default_factory=dict)


def validate_causal_relation(cr: CausalRelation) -> list[Violation]:
    """Check the definitional clauses; an empty list means the relation is valid.

    Violations are data, not exceptions: the CLI surfaces them for the
    modeling loop instead of aborting.
    """
    out: list[Violation] = []
    nodes = set(cr.structure.nodes)

    x = cr.phenomenon.variable
    if x not in nodes:
        out.append(Violation("i", f"phenomenon variable {x!r} is not a node"))
    else:
        spec = cr.specs.get(x)
        if spec is None:
            out.append(Violation("i", f"phenomenon variable {x!r} has no spec"))
        else:
            if spec.cardinality != 2:
                out.append(
                    Violation(
                        "i",
                        f"phenomenon variable {x!r} must be binary, has "
                        f"{spec.cardinality} categories",
                    )
                )
            if cr.phenomenon.cp_label not in spec.domain:
                out.append(
                    Violation(
                        "i",
                        f"phenomenon label {cr.phenomenon.cp_label!r} is not a "
                        f"category of {x!r}",
                    )
                )

    if cr.metric not in nodes:
        out.append(Violation("ii", f"metric {cr.metric!r} is not a node"))
    else:
        outgoing = [e for e in cr.structure.directed if e[0] == cr.metric]
        if outgoing:
            out.append(
                Violation(
                    "ii",
                    f"metric {cr.metric!r} must be a sink, has outgoing edges "
                    f"{sorted(outgoing)}",
                )
            )

    for name in cr.structure.nodes:
        spec = cr.specs.get(name)
        if spec is None:
            out.append(Violation("iv", f"variable {name!r} has no spec"))
            continue
        if not spec.value_range:
            out.append(Violation("iv", f"variable {name!r} declares no value range"))
        if not spec.unit:
            out.append(Violation("iv", f"variable {name!r} declares no unit"))

    # Statement well-formedness is enforced at construction; clause (v) keeps
    # cross-statement checks, currently contradictory existence/absence pairs.
    subjects: dict[str, set[str]] = {}
    for st in cr.context:
        subjects.setdefault(st.subject, set()).add(st.kind)
    for subject, kinds in sorted(subjects.items()):
        if {"existence", "absence"} <= kinds:
            out.append(
                Violation(
                    "v",
                    f"context both requires and forbids individual {subject!r}",
                )
            )
    return out


def _individual_present(record: Mapping[str, object], individual: str) -> bool:
    if individual in record:
        return True
    prefix = individual + "."
    return any(key.startswith(prefix) for key in record)


def _split_value(raw: object) -> tuple[object, str]:
    """Record values are either bare or (value, unit) pairs."""
    if isinstance(raw, (tuple, list)) and len(raw) == 2:
        return raw[0], str(raw[1])
    return raw, ""


def validate_record(
    cr: CausalRelation,
    record: Mapping[str, object],
) -> list[Violation]:
    """Check one individual/property record against the relation's context.

    Adding statements to a context can only add violations, never remove
    them: each statement is judged independently.
    """
    out: list[Violation] = []
    for st in cr.context:
        tag = f"L{st.layer}:{st.kind}"
        present = _individual_present(record, st.subject)
        if st.kind == "existence":
            if not present:
                out.append(Violation(tag, f"required individual {st.subject!r} missing"))
        elif st.kind == "absence":
            if present:
                out.append(Violation(tag, f"forbidden individual {st.subject!r} present"))
        else:
            expr = st.expression
            assert expr is not None
            key = f"{st.subject}.{expr.prop}"
            if key not in record:
                out.append(Violation(tag, f"property {key!r} missing from record"))
                continue
            lhs, lhs_unit = _split_value(record[key])
            if isinstance(expr.value, PropertyRef):
                ref_key = expr.value.key()
                if ref_key not in record:
                    out.append(Violation(tag, f"property {ref_key!r} missing from record"))
                    continue
                rhs, rhs_unit = _split_value(record[ref_key])
            else:
                rhs, rhs_unit = expr.value, expr.unit
            if lhs_unit != rhs_unit:
                out.append(
                    Violation(
                        "UnitMismatch",
                        f"{key}: cannot compare {lhs_unit!r} against {rhs_unit!r}",
                    )
                )
                continue
            try:
                satisfied = _OP_FUNCS[expr.op](lhs, rhs)
            except TypeError:
                out.append(
                    Violation(tag, f"{key}: {lhs!r} and {rhs!r} are not comparable")
                )
                continue
            if not satisfied:
                out.append(
                    Violation(
                        tag,
                        f"constraint {key} {expr.op} {rhs!r} violated by {lhs!r}",
                    )
                )
    return out
