import gc
import hashlib
import json
import math
import re
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit import io
from causalcrit.context import PhenomenonBinding, PropertyRef
from causalcrit.errors import (
    CausalCritError,
    InvalidQuery,
    ParseError,
    RaggedRow,
    UnknownLabel,
    ValidationError,
)
from causalcrit.fixtures import (
    FIXTURE_IDS,
    fixture,
    fixture_path,
    fixture_text,
)
from causalcrit.io import (
    canonical_json,
    load_dataset,
    load_field,
    load_model,
    load_trajectory,
    model_to_text,
    parse_model_text,
    save_dataset,
    save_model,
)
from causalcrit.indicators import ModelPair, _induced_submodel, _kept_families, indicator_reports
from causalcrit.model import VariableSpec, estimate_cpds, joint_tables, make_cpd, sample

from oracles import brute_tally
from test_model import random_models

# Shipped fixture files are pinned; regenerating them is a deliberate act
# that must update these digests.
FIXTURE_SHA256 = {
    "heavy-rain-reality": "e8c91cc0e38c50947f05bca0d51df6f75caa1b67ce283b5c4008109111c5eb7e",
    "heavy-rain-model": "b583ab245f1d5310b0c7048144dadd24296e19212e30a6cd420310a5ca76d952",
    "friction-relation": "87926ec832e6c99474a10af2255a2d2dfe8d9d25936529fa54bec4b261cadbef",
}


class TestFixtures:
    def test_checksums_pinned(self):
        for fid in FIXTURE_IDS:
            digest = hashlib.sha256(
                fixture_path(fid).read_bytes()
            ).hexdigest()
            assert digest == FIXTURE_SHA256[fid], fid

    def test_heavy_rain_reality_shape(self):
        relation, model = fixture("heavy-rain-reality")
        assert len(model.structure.nodes) == 5
        assert len(model.structure.directed) == 4
        assert model.instantiated == set(model.structure.nodes)

    def test_heavy_rain_reality_table_entries(self):
        _, model = fixture("heavy-rain-reality")
        v2 = model.cpds["V2"].table[0]
        assert v2[0] == pytest.approx(0.6)  # P(V2 = Slow)
        assert model.specs["phi"].codes == (1.0, 0.0)  # Short = 1, Long = 0

    def test_friction_structure_only(self):
        relation, model = fixture("friction-relation")
        assert model.cpds == {}
        spec = relation.specs["Coefficient of friction"]
        assert spec.value_range == "[0, inf)"
        assert spec.unit == "1"

    def test_unknown_fixture_id(self):
        with pytest.raises(InvalidQuery, match="unknown fixture 'heavy-snow'"):
            fixture("heavy-snow")

    def test_friction_latent_metric_components(self):
        _, model = fixture("friction-relation")
        assert "BTN_DT" in model.structure.latent
        assert "Max. req. lat. dec." in model.structure.latent


class TestModelRoundTrip:
    def test_save_load_save_fixed_point(self, tmp_path, heavy_rain_reality):
        relation, model = heavy_rain_reality
        first = tmp_path / "a.json"
        save_model(first, relation, model)
        relation2, model2 = load_model(first)
        second = tmp_path / "b.json"
        save_model(second, relation2, model2)
        assert first.read_bytes() == second.read_bytes()

    def test_fixture_text_is_fixed_point(self):
        for fid in FIXTURE_IDS:
            text = fixture_text(fid)
            relation, model = parse_model_text(text)
            assert model_to_text(relation, model) == text

    def test_bad_row_sum_rejected(self):
        text = fixture_text("heavy-rain-reality")
        payload = json.loads(text)
        for cpd in payload["cpds"]:
            if cpd["child"] == "V2":
                cpd["table"] = [[0.6, 0.3]]
        with pytest.raises(ValidationError) as exc:
            parse_model_text(json.dumps(payload))
        # The sum prints as a Python float under every numpy version.
        assert str(exc.value) == "cpds[1]: CPD for 'V2': row 0 sums to 0.8999999999999999, expected 1"

    def test_unknown_field_rejected(self):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["comment"] = "sneaky"
        with pytest.raises(ParseError):
            parse_model_text(json.dumps(payload))

    def test_unknown_variable_field_rejected(self):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["variables"][0]["color"] = "red"
        with pytest.raises(ParseError):
            parse_model_text(json.dumps(payload))

    @pytest.mark.parametrize(
        "where, mutate",
        [
            ("phenomenon", lambda p: p.update(phenomenon=5)),
            ("variables[0]", lambda p: p["variables"].__setitem__(0, 5)),
            ("cpds[0]", lambda p: p["cpds"].__setitem__(0, None)),
        ],
        ids=["phenomenon", "variable", "cpd"],
    )
    def test_non_object_rejected(self, where, mutate):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        mutate(payload)
        with pytest.raises(ParseError, match=rf"^{re.escape(where)}: expected an object"):
            parse_model_text(json.dumps(payload))

    def test_unsupported_format_version(self):
        text = _mutated("heavy-rain-reality", "format_version", value=2)
        with pytest.raises(ParseError, match="^unsupported format_version 2$"):
            parse_model_text(text)

    def test_duplicate_variable(self):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["variables"].append(payload["variables"][0])
        with pytest.raises(ValidationError, match=r"^variables\[5\]: duplicate variable 'V1'$"):
            parse_model_text(json.dumps(payload))

    def test_property_reference_round_trip(self):
        # A value {"ref": "individual.property"} reads as a PropertyRef and
        # is written back as one, with the expression's unit.
        expression = {"property": "speed", "op": "<", "value": {"ref": "lead vehicle.speed"}, "unit": "m/s"}
        text = _mutated("friction-relation", "context", 0, "expression", value=expression)
        relation, model = parse_model_text(text)
        (parsed,) = [st.expression for st in relation.context if st.expression and st.expression.unit]
        assert (parsed.value, parsed.unit) == (PropertyRef("lead vehicle", "speed"), "m/s")
        written = model_to_text(relation, model)
        assert expression in [st.get("expression") for st in json.loads(written)["context"]]
        assert model_to_text(*parse_model_text(written)) == written

    def test_property_reference_needs_a_dot(self):
        text = _mutated("friction-relation", "context", 0, "expression", "value", value={"ref": "speed"})
        with pytest.raises(ParseError, match=r"^context\[0\]\.expression: property reference 'speed' needs individual\.property form$"):
            parse_model_text(text)

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_model_text("not json {")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_model(tmp_path / "absent.json")


def _mutated(fid: str, *path, value=None, delete=False) -> str:
    """The fixture's text with the value at ``path`` replaced or deleted."""
    payload = json.loads(fixture_text(fid))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(payload)


class TestModelSchema:
    """A value of the wrong JSON type is a ParseError naming its JSON path."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("cpds", 3, "table", 2, 1), "x", 'cpds[3].table[2][1]: expected a number, got "x"'),
            (("cpds", 3, "table", 2, 1), True, "cpds[3].table[2][1]: expected a number, got true"),
            (("cpds", 3, "table", 2), 0.5, "cpds[3].table[2]: expected an array, got 0.5"),
            (("cpds", 0, "parents"), {}, "cpds[0].parents: expected an array, got an object"),
            (("edges", 0), ["V1"], "edges[0]: expected 2 items, got 1"),
            (("edges", 0, 1), None, "edges[0][1]: expected a string, got null"),
            (("metric", "variable"), ["phi"], "metric.variable: expected a string, got an array"),
            (("context",), {}, "context: expected an array, got an object"),
            # These were accepted before the schema: str(), float() and
            # truthiness read them as something else.
            (("variables", 0, "name"), 5, "variables[0].name: expected a string, got 5"),
            (("variables", 0, "codes", 0), "1.5", 'variables[0].codes[0]: expected a number, got "1.5"'),
            (("variables", 0, "latent"), 1, "variables[0].latent: expected a boolean, got 1"),
            (("format_version",), 1.0, "format_version: expected an integer, got 1.0"),
            (("format_version",), True, "format_version: expected an integer, got true"),
        ],
    )
    def test_wrong_type_names_json_path(self, path, value, message):
        with pytest.raises(ParseError) as exc:
            parse_model_text(_mutated("heavy-rain-reality", *path, value=value))
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [None, ["straight"], True])
    def test_expression_value_must_be_number_string_or_ref(self, value):
        text = _mutated("friction-relation", "context", 0, "expression", "value", value=value)
        with pytest.raises(ParseError, match=r"^context\[0\]\.expression\.value: expected a number or a string or an object"):
            parse_model_text(text)

    def test_missing_field_named_with_its_object(self):
        text = _mutated("heavy-rain-reality", "cpds", 1, "table", delete=True)
        with pytest.raises(ParseError, match=r"^cpds\[1\]: missing fields \['table'\]$"):
            parse_model_text(text)

    def test_bad_operator_named_with_its_expression(self):
        text = _mutated("friction-relation", "context", 0, "expression", "op", value="~")
        with pytest.raises(ValidationError, match=r"^context\[0\]\.expression: unknown operator '~'$"):
            parse_model_text(text)

    def test_ragged_table_is_a_validation_error(self):
        text = _mutated("heavy-rain-reality", "cpds", 3, "table", 1, value=[0.5])
        with pytest.raises(ValidationError, match=r"^cpds\[3\]: CPD for 'X': table must be a list of equal-length rows"):
            parse_model_text(text)

    def test_integer_past_double_range_reads_as_infinite(self):
        text = _mutated("heavy-rain-reality", "variables", 0, "codes", 0, value=10**400)
        with pytest.raises(ValidationError, match="codes must be finite"):
            parse_model_text(text)
        # Past 4,300 digits int() itself refuses a digit string.
        text = _mutated("heavy-rain-reality", "cpds", 0, "table", 0, 0, value="HUGE")
        with pytest.raises(ValidationError, match="entries must be finite"):
            parse_model_text(text.replace('"HUGE"', "-" + "9" * 5000))


# Damage to one or two CPDs of a model file, each a case the one CPD check
# must name: cells just outside [0, 1] or not finite, rows off their sum by
# more or less than the tolerance, a row or cell too many or too few,
# unsorted or unknown parents and an unknown child.
_CELLS = [-1e-9, -5e-10, -0.0, 0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 2.0, math.nan, math.inf]
_DAMAGE = ["cell", "scale", "extra row", "short table", "short row", "long row", "reversed parents",
           "unknown parent", "unknown child"]


@st.composite
def damaged_model_texts(draw):
    m = draw(random_models(sparse=draw(st.booleans())))
    nodes = m.structure.nodes
    relation = SimpleNamespace(
        phenomenon=PhenomenonBinding(variable=nodes[0], cp_label=m.specs[nodes[0]].domain[0]),
        metric=nodes[-1],
        context=(),
    )
    payload = json.loads(model_to_text(relation, m))
    picks = draw(st.lists(st.integers(0, len(payload["cpds"]) - 1), min_size=1, max_size=2, unique=True))
    for cpd in (payload["cpds"][k] for k in picks):
        table = cpd["table"]
        row = draw(st.sampled_from(table))
        damage = draw(st.sampled_from([None, *_DAMAGE]))
        if damage == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_CELLS))
        elif damage == "scale":
            factor = draw(st.sampled_from([1 - 2e-9, 1 - 5e-10, 1 + 5e-10, 1 + 2e-9]))
            row[:] = [v * factor for v in row]
        elif damage == "extra row":
            table.append(list(row))
        elif damage == "short table":
            table.pop()
        elif damage == "short row":
            row.pop()
        elif damage == "long row":
            row.append(0.0)
        elif damage == "reversed parents":
            cpd["parents"].reverse()
        elif damage == "unknown parent":
            cpd["parents"].append("Z")
        elif damage == "unknown child":
            cpd["child"] = "Z"
    return json.dumps(payload)


class TestCpdTables:
    """A model file's CPD tables are checked in one call, which fails as
    make_cpd fails on the first table, in file order, that fails alone."""

    @settings(max_examples=200, deadline=None)
    @given(text=damaged_model_texts())
    def test_one_array_check_agrees_with_make_cpd(self, text):
        payload = json.loads(text)
        specs = {
            v["name"]: VariableSpec(name=v["name"], domain=tuple(v["domain"]), codes=tuple(v["codes"]))
            for v in payload["variables"]
        }
        expected = []
        for k, c in enumerate(payload["cpds"]):
            try:
                expected.append(make_cpd(c["child"], c["parents"], c["table"], specs))
            except CausalCritError as exc:
                with pytest.raises(ValidationError) as got:
                    parse_model_text(text)
                assert str(got.value) == f"cpds[{k}]: {exc}"
                return
        _, m = parse_model_text(text)
        assert [(c.child, c.parents) for c in m.cpds.values()] == [(c.child, c.parents) for c in expected]
        for got, want in zip(m.cpds.values(), expected):
            assert got.table.dtype == want.table.dtype and not got.table.flags.writeable
            np.testing.assert_array_equal(got.table, want.table)

    def test_tables_are_views_of_one_array(self, reality_model):
        # From a file, from data and restricted to a node set alike.
        keep = ("V1", "V2", "X")
        families = _kept_families(reality_model, keep)
        models = [
            reality_model,
            estimate_cpds(reality_model.structure, reality_model.specs, sample(reality_model, 500, seed=1), 1.0),
            _induced_submodel(reality_model, keep, dict(zip(families, joint_tables(reality_model, families)))),
        ]
        for m in models:
            tables = [cpd.table for cpd in m.cpds.values()]
            assert len(tables) > 1 and len({id(t.base) for t in tables}) == 1 and tables[0].base is not None
            assert not any(t.flags.writeable for t in tables)


def _model_payload(m) -> dict:
    nodes = m.structure.nodes
    binary = [n for n in nodes if m.specs[n].cardinality == 2] or [nodes[0]]
    relation = SimpleNamespace(
        phenomenon=PhenomenonBinding(variable=binary[0], cp_label=m.specs[binary[0]].domain[0]),
        metric=nodes[-1],
        context=(),
    )
    return json.loads(model_to_text(relation, m))


@st.composite
def redrawn_pairs(draw):
    """A random model file and a second one that repeats its declaration with
    other CPD tables."""
    reference = _model_payload(draw(random_models(min_nodes=2, latent=draw(st.booleans()))))
    return reference, _redrawn(reference, draw(st.integers(0, 2**32 - 1)))


def _redrawn(payload: dict, seed: int) -> dict:
    """A copy of the model file ``payload`` with each CPD table redrawn."""
    out = json.loads(json.dumps(payload))
    rng = np.random.default_rng(seed)
    for cpd in out["cpds"]:
        table = cpd["table"]
        cpd["table"] = rng.dirichlet(np.ones(len(table[0])), size=len(table)).tolist()
    return out


def _string_cell(payload, draw):
    cpd = draw(st.sampled_from(payload["cpds"]))
    row = draw(st.sampled_from(cpd["table"]))
    row[draw(st.integers(0, len(row) - 1))] = "0.5"


def _bad_row_sum(payload, draw):
    cpd = draw(st.sampled_from(payload["cpds"]))
    row = draw(st.sampled_from(cpd["table"]))
    row[:] = [v * 0.5 for v in row]


def _extra_edge(payload, draw):
    names = [v["name"] for v in payload["variables"]]
    edges = [[a, b] for i, a in enumerate(names) for b in names[i + 1:] if [a, b] not in payload["edges"]]
    if edges:
        payload["edges"].append(draw(st.sampled_from(edges)))


def _renamed_label(payload, draw):
    var = draw(st.sampled_from(payload["variables"]))
    var["domain"][draw(st.integers(0, len(var["domain"]) - 1))] += "x"


# Damage to the candidate of a redrawn pair: the first two keep its
# declaration, the others change it; a latent flag written as 0 or 1 equals
# false or true under ==, but is no boolean.
_PAIR_DAMAGE = {
    "string cell": _string_cell,
    "bad row sum": _bad_row_sum,
    "no cpds": lambda payload, draw: payload.pop("cpds"),
    "unknown field": lambda payload, draw: payload.update(comment="x"),
    "extra edge": _extra_edge,
    "renamed label": _renamed_label,
    "latent as a number": lambda payload, draw: payload["variables"][0].update(
        latent=int(payload["variables"][0]["latent"])),
}


def _outcome(load):
    """The models ``load()`` returns, as their specs, structures and CPD
    tables, or the type and message of the error it raises."""
    try:
        loaded = load()
    except CausalCritError as exc:
        return type(exc), str(exc)
    return [
        (dict(m.specs), m.structure,
         {n: (cpd.parents, cpd.table.dtype, cpd.table.tobytes()) for n, cpd in m.cpds.items()})
        for _, m in loaded
    ]


def _alone(path):
    """``load_model(path)`` with no relation to share: the file parses fresh."""
    with mock.patch.dict(io._DECLARED, clear=True):
        return load_model(path)


def _twin_values(reference, candidate, draw):
    """Give the first variable's first code values that are ``==`` but of
    another JSON type in the two files."""
    ref_var, cand_var = reference["variables"][0], candidate["variables"][0]
    ref_code, cand_code = draw(st.sampled_from([(1, 1.0), (1.0, 1), (0.0, -0.0), (-0.0, 0.0)]))
    ref_var["codes"][0], cand_var["codes"][0] = ref_code, cand_code


def _twin_flags(reference, candidate, draw):
    cand_var = candidate["variables"][0]
    cand_var["latent"] = int(cand_var["latent"])


def _twin_key_order(reference, candidate, draw):
    k = draw(st.integers(0, len(candidate["variables"]) - 1))
    candidate["variables"][k] = dict(reversed(candidate["variables"][k].items()))


# Changes to a redrawn pair after which the two declarations are == as Python
# values but differ in a JSON type or in a nested object's key order.
_TWINS = {"number type": _twin_values, "flag as a number": _twin_flags, "key order": _twin_key_order}


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pairs")


class TestModelPairs:
    """A file that repeats the declaration of a relation in use is read through
    that relation: the models and errors are those of the file read alone."""

    @staticmethod
    def _write(pair_dir, *payloads):
        paths = [pair_dir / f"{k}.json" for k in range(len(payloads))]
        for path, payload in zip(paths, payloads):
            path.write_text(json.dumps(payload), encoding="utf-8")
        return paths

    @settings(max_examples=100, deadline=None)
    @given(pair=redrawn_pairs())
    def test_pair_equals_the_files_read_alone(self, pair_dir, pair):
        paths = self._write(pair_dir, *pair)
        loaded = [load_model(p) for p in paths]
        (relation, ref), (cand_relation, cand) = loaded
        assert cand.structure is ref.structure and cand_relation is relation
        assert _outcome(lambda: loaded) == _outcome(lambda: [_alone(p) for p in paths])

        def reports(models):
            try:
                out = indicator_reports(ModelPair(*models), relation.phenomenon, relation.metric,
                                        list(ref.structure.nodes[:2]))
            except CausalCritError as exc:
                return type(exc), str(exc)
            return canonical_json([r.as_dict() for r in out])

        assert reports((ref, cand)) == reports([_alone(p)[1] for p in paths])

    @settings(max_examples=100, deadline=None)
    @given(pair=redrawn_pairs(), damage=st.sampled_from(sorted(_PAIR_DAMAGE)), data=st.data())
    def test_damaged_candidate_fails_as_alone(self, pair_dir, pair, damage, data):
        reference, candidate = pair
        _PAIR_DAMAGE[damage](candidate, data.draw)
        ref_path, cand_path = self._write(pair_dir, reference, candidate)
        alone = _outcome(lambda: [_alone(ref_path), _alone(cand_path)])
        assert _outcome(lambda: [load_model(ref_path), load_model(cand_path)]) == alone
        if damage in ("string cell", "bad row sum"):
            assert alone[0] in (ParseError, ValidationError) and alone[1].startswith("cpds[")

    def test_other_declarations_parse_apart(self):
        paths = [fixture_path("heavy-rain-reality"), fixture_path("heavy-rain-model")]
        loaded = [load_model(p) for p in paths]
        (_, ref), (_, cand) = loaded
        assert cand.structure is not ref.structure
        assert _outcome(lambda: loaded) == _outcome(lambda: [_alone(p) for p in paths])

    @settings(max_examples=20, deadline=None)
    @given(fid=st.sampled_from(FIXTURE_IDS), seed=st.integers(0, 2**32 - 1))
    def test_a_file_shares_a_fixture_relation(self, pair_dir, fid, seed):
        relation, m = fixture(fid)
        (path,) = self._write(pair_dir, _redrawn(json.loads(fixture_text(fid)), seed))
        shared_relation, shared = load_model(path)
        assert shared_relation is relation and shared.structure is m.structure

    @settings(max_examples=50, deadline=None)
    @given(pair=redrawn_pairs(), reader=st.sampled_from(["load_model", "parse_model_text"]))
    def test_a_file_shares_the_relation_of_an_earlier_read(self, pair_dir, pair, reader):
        reference, candidate = pair
        ref_path, cand_path = self._write(pair_dir, reference, candidate)
        relation, m = load_model(ref_path) if reader == "load_model" else parse_model_text(json.dumps(reference))
        shared_relation, shared = load_model(cand_path)
        assert shared_relation is relation and shared.structure is m.structure

    @settings(max_examples=50, deadline=None)
    @given(pair=redrawn_pairs())
    def test_a_relation_nothing_holds_is_let_go(self, pair_dir, pair):
        ref_path, cand_path = self._write(pair_dir, *pair)
        relation, m = load_model(ref_path)
        (key,) = [k for k, r in io._DECLARED.items() if r is relation]
        held = weakref.ref(relation)
        del relation, m
        gc.collect()
        assert held() is None and key not in io._DECLARED
        with mock.patch.object(io, "build_structure", wraps=io.build_structure) as built:
            load_model(cand_path)
        assert built.call_count == 1

    @settings(max_examples=100, deadline=None)
    @given(pair=redrawn_pairs(), twin=st.sampled_from(sorted(_TWINS)), data=st.data())
    def test_declarations_of_other_json_types_or_key_order_parse_apart(self, pair_dir, pair, twin, data):
        reference, candidate = pair
        _TWINS[twin](reference, candidate, data.draw)
        assert {**reference, "cpds": None} == {**candidate, "cpds": None}
        ref_path, cand_path = self._write(pair_dir, reference, candidate)
        relation, _ = load_model(ref_path)
        assert _outcome(lambda: [load_model(cand_path)]) == _outcome(lambda: [_alone(cand_path)])
        if twin != "flag as a number":  # which no file passes
            assert load_model(cand_path)[0] is not relation


class TestDataset:
    def test_three_row_file(self, tmp_path, heavy_rain_reality):
        relation, _ = heavy_rain_reality
        path = tmp_path / "d.csv"
        path.write_text(
            "V1,V2,V3,X,phi\n"
            "Summer,Slow,Oceanic,CP,Short\n"
            "Winter,Fast,Continental,notCP,Long\n"
            "Summer,Fast,Oceanic,CP,Long\n",
            encoding="utf-8",
        )
        ds = load_dataset(path, relation.specs)
        assert len(ds) == 3
        assert ds.columns == ("V1", "V2", "V3", "X", "phi")

    def test_unknown_label(self, tmp_path, heavy_rain_reality):
        relation, _ = heavy_rain_reality
        path = tmp_path / "d.csv"
        path.write_text("X\nDrizzle\n", encoding="utf-8")
        with pytest.raises(UnknownLabel) as exc:
            load_dataset(path, relation.specs)
        assert exc.value.column == "X"
        assert exc.value.row == 0

    def test_ragged_row(self, tmp_path, heavy_rain_reality):
        relation, _ = heavy_rain_reality
        path = tmp_path / "d.csv"
        path.write_text("V1,V2\nSummer\n", encoding="utf-8")
        with pytest.raises(RaggedRow):
            load_dataset(path, relation.specs)

    def test_sampler_output_reloads_losslessly(self, tmp_path, heavy_rain_reality):
        relation, model = heavy_rain_reality
        ds = sample(model, 250, seed=13)
        path = tmp_path / "sampled.csv"
        save_dataset(path, ds)
        # One line per sampled row, in sampling order.
        rows = zip(*(np.array(domain)[codes].tolist() for codes, domain in zip(ds.codes, ds.domains)))
        assert path.read_bytes() == "".join(f"{','.join(r)}\n" for r in [ds.columns, *rows]).encode()
        back = load_dataset(path, relation.specs)
        assert back == brute_tally(ds)
        assert back.counts.sum() == 250 and len(back) < 250


BOM = "\ufeff".encode("utf-8")


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet tools write, is not data."""

    def test_csv(self, tmp_path, heavy_rain_reality):
        relation, model = heavy_rain_reality
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_dataset(plain, sample(model, 40, seed=5))
        marked.write_bytes(BOM + plain.read_bytes())
        assert load_dataset(marked, relation.specs) == load_dataset(plain, relation.specs)

    def test_model_file(self, tmp_path, heavy_rain_reality):
        path = tmp_path / "m.json"
        path.write_bytes(BOM + fixture_path("heavy-rain-reality").read_bytes())
        relation, model = load_model(path)
        assert model_to_text(relation, model) == model_to_text(*heavy_rain_reality)

    def test_trajectory_file(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_bytes(BOM + b"0 0 0\n0.1 2 0\n0.2 4 0\n0.3 6 0\n0.4 8 0\n")
        assert load_trajectory(path).x.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_only_one_mark_is_dropped(self, tmp_path, heavy_rain_reality):
        path = tmp_path / "d.csv"
        path.write_bytes(BOM + BOM + b"X\nCP\n")
        with pytest.raises(ParseError, match=re.escape("column '\\ufeffX' is not a declared variable")):
            load_dataset(path, heavy_rain_reality[0].specs)

    def test_utf8_error_offset_counts_the_mark(self, tmp_path, heavy_rain_reality):
        path = tmp_path / "d.csv"
        path.write_bytes(BOM + b"X\nCP\n\xff\n")
        with pytest.raises(ParseError, match="not valid UTF-8 at byte 8$"):
            load_dataset(path, heavy_rain_reality[0].specs)

    def test_writers_write_no_mark(self, tmp_path, heavy_rain_reality):
        relation, model = heavy_rain_reality
        save_model(tmp_path / "m.json", relation, model)
        save_dataset(tmp_path / "d.csv", sample(model, 5, seed=1))
        for name in ("m.json", "d.csv"):
            assert not (tmp_path / name).read_bytes().startswith(BOM)


class TestCanonicalJson:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ({("a", "b"): 1}, "keys must be str, int, float, bool or None, not tuple"),
            # The key types are checked before the keys are sorted.
            ({(1, 2): "a", "b": 1}, "keys must be str, int, float, bool or None, not tuple"),
            ({"b": 1, object(): 2}, "keys must be str, int, float, bool or None, not object"),
            ({"a": {1, 2}}, "Object of type set is not JSON serializable"),
        ],
        ids=["tuple-key", "tuple-among-str-keys", "unorderable-key", "set-value"],
    )
    def test_unsupported_input_is_a_type_error(self, payload, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            canonical_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [{"b": 1, "a": {"d": None, "c": [1, 2]}}, {2: "x", 1.5: "y", True: "z"}, {None: 1}, {"é": "ü"}],
        ids=["str-keys", "number-keys", "null-key", "non-ascii"],
    )
    def test_supported_keys_in_json_dumps_order(self, payload):
        assert canonical_json(payload) == json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    def test_keys_that_do_not_sort_fail_as_in_json_dumps(self):
        payload = {1: "a", None: 2}
        with pytest.raises(TypeError, match="'<' not supported") as dumps_error:
            json.dumps(payload, sort_keys=True)
        with pytest.raises(TypeError, match=f"^{re.escape(str(dumps_error.value))}$"):
            canonical_json(payload)


class TestTrajectoryAndField:
    def test_trajectory_round_trip(self, tmp_path):
        path = tmp_path / "traj.txt"
        rows = [(0.1 * k, 2.0 * k, 0.0) for k in range(6)]
        path.write_text(
            "\n".join(f"{t} {x} {y}" for t, x, y in rows), encoding="utf-8"
        )
        traj = load_trajectory(path)
        assert traj.t.shape == (6,)
        assert traj.x[3] == pytest.approx(6.0)

    def test_trajectory_bad_line(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_trajectory(path)

    def test_field_file(self, tmp_path):
        path = tmp_path / "field.txt"
        cells = "\n".join("-8.0 5.0" for _ in range(6))
        path.write_text(f"3 2 0.0 0.0 1.0 1.0\n{cells}\n", encoding="utf-8")
        field = load_field(path)
        assert field.long_avail.shape == (2, 3)
        assert field.lookup(1.2, 0.4) == (-8.0, 5.0)

    def test_empty_trajectory_file_is_too_short(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="need at least 5 samples"):
            load_trajectory(path)

    def test_field_file_reshapes_row_major(self, tmp_path):
        path = tmp_path / "field.txt"
        cells = "\n".join(f"-{k} {k}" for k in range(6))
        path.write_text(f"3 2 0.0 0.0 1.0 1.0\n{cells}\n", encoding="utf-8")
        field = load_field(path)
        assert field.long_avail.tolist() == [[0, -1, -2], [-3, -4, -5]]
        assert field.lat_avail.tolist() == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("loader, text", [
        (load_field, "2 1 0 0 1 1\n\n-8 5\n-8 x\n"),
        (load_trajectory, "0 0 0\n\n0.1 1 0\n0.2 x 0\n"),
    ])
    def test_bad_line_named_by_its_line_in_the_file(self, tmp_path, loader, text):
        # Line 2 is blank; the bad value sits on line 4.
        path = tmp_path / "numbers.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=r":4: non-numeric value$"):
            loader(path)
        path.write_text(text.replace(" x", ""), encoding="utf-8")
        with pytest.raises(ParseError, match=r":4: expected '(long lat|t x y)'$"):
            loader(path)

    def test_empty_field_file(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("\n \n", encoding="utf-8")
        with pytest.raises(ParseError, match="empty field file$"):
            load_field(path)

    def test_field_cell_count_checked(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("2 2 0 0 1 1\n-1 1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_field(path)

    def test_field_dimensions_must_be_positive(self, tmp_path):
        # -1 x -1 matches the one cell, so only the sign check can refuse it.
        path = tmp_path / "field.txt"
        path.write_text("-1 -1 0 0 1 1\n-1 1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="nx and ny must be >= 1"):
            load_field(path)

    @pytest.mark.parametrize("header", ["1 1 nan 0 1 1", "1 1 0 -inf 1 1", "1 1 0 0 inf 1", "1 1 0 0 1 nan"])
    def test_field_origin_and_cell_size_must_be_finite(self, tmp_path, header):
        path = tmp_path / "field.txt"
        path.write_text(f"{header}\n-1 1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="origin must be finite and its cell sizes finite and positive"):
            load_field(path)
