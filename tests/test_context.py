import pytest

from causalcrit.context import (
    CausalRelation,
    ConstraintExpression,
    ContextStatement,
    PhenomenonBinding,
    PropertyRef,
    validate_causal_relation,
    validate_record,
)
from causalcrit.errors import ValidationError
from causalcrit.graph import build_structure
from causalcrit.model import VariableSpec


def simple_relation(phenomenon_domain=("notCP", "CP")):
    specs = {
        "X": VariableSpec(
            name="X", domain=phenomenon_domain,
            codes=tuple(float(i) for i in range(len(phenomenon_domain))),
            value_range="{" + ", ".join(phenomenon_domain) + "}",
        ),
        "phi": VariableSpec(name="phi", domain=("lo", "hi"), codes=(0.0, 1.0), value_range="{lo, hi}"),
        "V": VariableSpec(name="V", domain=("a", "b"), codes=(0.0, 1.0), value_range="{a, b}"),
    }
    s = build_structure(["X", "phi", "V"], [("X", "phi"), ("V", "X")])
    return CausalRelation(
        structure=s,
        context=(ContextStatement(layer=4, subject="ego vehicle", kind="existence"),),
        phenomenon=PhenomenonBinding(variable="X", cp_label="CP"),
        metric="phi",
        specs=specs,
    )


class TestStatementConstruction:
    def test_layer_bounds(self):
        with pytest.raises(ValidationError):
            ContextStatement(layer=7, subject="x", kind="existence")

    def test_constraint_needs_expression(self):
        with pytest.raises(ValidationError):
            ContextStatement(layer=1, subject="x", kind="constraint")

    def test_existence_must_not_carry_expression(self):
        with pytest.raises(ValidationError):
            ContextStatement(
                layer=1,
                subject="x",
                kind="existence",
                expression=ConstraintExpression(prop="p", op="<", value=1.0),
            )

    def test_unknown_operator(self):
        with pytest.raises(ValidationError):
            ConstraintExpression(prop="p", op="~", value=1.0)


class TestValidateCausalRelation:
    def test_heavy_rain_fixtures_clean(self, heavy_rain_reality, heavy_rain_model):
        for relation, _ in (heavy_rain_reality, heavy_rain_model):
            assert validate_causal_relation(relation) == []

    def test_friction_fixture_clean(self, friction_relation):
        relation, _ = friction_relation
        assert validate_causal_relation(relation) == []

    def test_metric_with_outgoing_edge_flagged(self):
        relation = simple_relation()
        s = build_structure(["X", "phi", "V"], [("X", "phi"), ("phi", "V")])
        bad = CausalRelation(
            structure=s,
            context=relation.context,
            phenomenon=relation.phenomenon,
            metric="phi",
            specs=relation.specs,
        )
        violations = validate_causal_relation(bad)
        assert any(v.clause == "ii" for v in violations)

    def test_ternary_phenomenon_flagged(self):
        relation = simple_relation(phenomenon_domain=("notCP", "CP", "maybe"))
        violations = validate_causal_relation(relation)
        assert any(v.clause == "i" for v in violations)

    def test_missing_unit_flagged(self):
        relation = simple_relation()
        specs = dict(relation.specs)
        specs["V"] = VariableSpec(name="V", domain=("a", "b"), codes=(0.0, 1.0), unit="", value_range="{a, b}")
        bad = CausalRelation(
            structure=relation.structure,
            context=relation.context,
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs=specs,
        )
        violations = [str(v) for v in validate_causal_relation(bad)]
        assert violations == ["[iv] variable 'V' declares no unit"]

    def test_missing_value_range_flagged(self):
        relation = simple_relation()
        specs = {**relation.specs, "V": VariableSpec(name="V", domain=("a", "b"), codes=(0.0, 1.0))}
        bad = CausalRelation(
            structure=relation.structure,
            context=relation.context,
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs=specs,
        )
        violations = [str(v) for v in validate_causal_relation(bad)]
        assert violations == ["[iv] variable 'V' declares no value range"]

    def test_variable_without_spec_flagged(self):
        # A hand-built relation may leave nodes without a spec; a file cannot.
        relation = simple_relation()
        bad = CausalRelation(
            structure=relation.structure,
            context=relation.context,
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs={"phi": relation.specs["phi"]},
        )
        violations = [str(v) for v in validate_causal_relation(bad)]
        assert violations == [
            "[i] phenomenon variable 'X' has no spec",
            "[iv] variable 'V' has no spec",
            "[iv] variable 'X' has no spec",
        ]

    def test_contradictory_context_flagged(self):
        relation = simple_relation()
        contradictory = CausalRelation(
            structure=relation.structure,
            context=(
                ContextStatement(layer=4, subject="bus", kind="existence"),
                ContextStatement(layer=4, subject="bus", kind="absence"),
            ),
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs=relation.specs,
        )
        violations = validate_causal_relation(contradictory)
        assert any(v.clause == "v" for v in violations)


class TestValidateRecord:
    def test_friction_context_clean_record(self, friction_relation):
        relation, _ = friction_relation
        record = {
            "road network.shape": "curved",
            "ego vehicle.id": "ego",
            "environmental conditions.sky": "overcast",
        }
        assert validate_record(relation, record) == []

    def test_missing_required_individual(self, friction_relation):
        relation, _ = friction_relation
        record = {"road network.shape": "curved", "environmental conditions.sky": "x"}
        violations = validate_record(relation, record)
        assert any("ego vehicle" in v.message for v in violations)

    def test_forbidden_individual_present(self, friction_relation):
        relation, _ = friction_relation
        record = {
            "road network.shape": "junction",
            "ego vehicle.id": "ego",
            "environmental conditions.sky": "clear",
            "other relevant vehicle.id": "npc1",
        }
        violations = validate_record(relation, record)
        assert any("other relevant vehicle" in v.message for v in violations)

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"ego": "present"}, None),
            ({"ego.id": "e1"}, None),
            ({"ego vehicle.id": "e1"}, "[L4:existence] required individual 'ego' missing"),
        ],
        ids=["direct-key", "property-key", "longer-name"],
    )
    def test_individual_keyed_by_its_own_name(self, record, message):
        # A record names an individual by its own key or by a key
        # "<individual>.<property>"; "ego vehicle.id" names another one.
        relation = simple_relation()
        ego = CausalRelation(
            structure=relation.structure,
            context=(ContextStatement(layer=4, subject="ego", kind="existence"),),
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs=relation.specs,
        )
        assert [str(v) for v in validate_record(ego, record)] == ([message] if message else [])

    def test_property_to_property_constraint(self):
        relation = simple_relation()
        cross = CausalRelation(
            structure=relation.structure,
            context=(
                ContextStatement(
                    layer=4,
                    subject="a",
                    kind="constraint",
                    expression=ConstraintExpression(
                        prop="p2", op="<", value=PropertyRef("b", "p2")
                    ),
                ),
            ),
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs=relation.specs,
        )
        ok = validate_record(cross, {"a.p2": 1.0, "b.p2": 2.0})
        assert ok == []
        bad = validate_record(cross, {"a.p2": 3.0, "b.p2": 2.0})
        assert len(bad) == 1 and "violated" in bad[0].message

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"b.p2": 2.0}, "[L4:constraint] property 'a.p2' missing from record"),
            ({"a.p2": 1.0}, "[L4:constraint] property 'b.p2' missing from record"),
            ({"a.p2": "x", "b.p2": 2.0}, "[L4:constraint] a.p2: 'x' and 2.0 are not comparable"),
        ],
        ids=["subject-property", "referenced-property", "not-comparable"],
    )
    def test_unreadable_property_reported(self, record, message):
        relation = simple_relation()
        cross = CausalRelation(
            structure=relation.structure,
            context=(
                ContextStatement(
                    layer=4,
                    subject="a",
                    kind="constraint",
                    expression=ConstraintExpression(
                        prop="p2", op="<", value=PropertyRef("b", "p2")
                    ),
                ),
            ),
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs=relation.specs,
        )
        assert [str(v) for v in validate_record(cross, record)] == [message]

    def test_unit_mismatch(self):
        relation = simple_relation()
        constrained = CausalRelation(
            structure=relation.structure,
            context=(
                ContextStatement(
                    layer=5,
                    subject="rain",
                    kind="constraint",
                    expression=ConstraintExpression(
                        prop="rate", op=">=", value=10.0, unit="mm/h"
                    ),
                ),
            ),
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs=relation.specs,
        )
        violations = validate_record(constrained, {"rain.rate": (0.01, "m/h")})
        assert any(v.clause == "UnitMismatch" for v in violations)
        ok = validate_record(constrained, {"rain.rate": (12.0, "mm/h")})
        assert ok == []

    def test_violation_list_survives_round_trip(self, tmp_path, heavy_rain_reality):
        import json

        from causalcrit.io import load_model, parse_model_text
        from causalcrit.fixtures import fixture_text

        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["metric"]["variable"] = "X"  # X has outgoing edges: clause ii
        relation, _ = parse_model_text(json.dumps(payload))
        before = [str(v) for v in validate_causal_relation(relation)]
        assert before
        path = tmp_path / "roundtrip.json"
        from causalcrit.io import save_model

        _, model = parse_model_text(json.dumps(payload))
        save_model(path, relation, model)
        reloaded, _ = load_model(path)
        after = [str(v) for v in validate_causal_relation(reloaded)]
        assert after == before

    def test_monotone_under_added_statements(self, friction_relation):
        relation, _ = friction_relation
        record = {"road network.shape": "curved"}
        base = validate_record(relation, record)
        extended = CausalRelation(
            structure=relation.structure,
            context=relation.context
            + (ContextStatement(layer=6, subject="hd map", kind="existence"),),
            phenomenon=relation.phenomenon,
            metric=relation.metric,
            specs=relation.specs,
        )
        more = validate_record(extended, record)
        base_msgs = [str(v) for v in base]
        more_msgs = [str(v) for v in more]
        for msg in base_msgs:
            assert msg in more_msgs
        assert len(more_msgs) == len(base_msgs) + 1
