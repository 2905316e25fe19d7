"""The package's records behave as the frozen dataclasses they replace.

Each record class is checked against a ``dataclasses`` twin built here from
its annotations and defaults: repr, ``==`` and ``hash`` agree with the twin
(or are identity semantics for the ``eq=False`` classes), attributes can be
neither assigned nor deleted, and construction by position, by keyword and
from defaults gives the same record.
"""

import ast
import dataclasses
import functools
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import causalcrit
from causalcrit import _record
from causalcrit.context import (
    OPERATORS,
    CausalRelation,
    ConstraintExpression,
    ContextStatement,
    PhenomenonBinding,
    PropertyRef,
    Violation,
)
from causalcrit.engine import SafetyPrinciple, SafetyPrincipleReport
from causalcrit.errors import InvalidQuery, ValidationError
from causalcrit.fixtures import fixture
from causalcrit.graph import CausalStructure, PathQueryResult
from causalcrit.indicators import IndicatorReport, ModelPair
from causalcrit.metrics import AccelField, DrivingTask, Trajectory
from causalcrit.model import Dataset
from causalcrit.variables import Cpd, DiscreteModel, VariableSpec

names = st.text(alphabet="abXY_ ", min_size=1, max_size=4)
texts = st.text(max_size=6)
floats = st.floats(allow_nan=False, allow_infinity=False)
name_tuples = st.lists(names, max_size=3).map(tuple)
labels = st.lists(names, min_size=1, max_size=3, unique=True).map(tuple)
structure_fields = st.tuples(
    name_tuples,
    st.frozensets(names, max_size=2),
    st.frozensets(st.tuples(names, names), max_size=3),
    st.frozensets(st.frozensets(names, min_size=2, max_size=2), max_size=2),
)
structures = structure_fields.map(lambda v: CausalStructure(*v))


@st.composite
def variable_specs(draw):
    domain = draw(labels)
    codes = tuple(draw(st.lists(floats, min_size=len(domain), max_size=len(domain))))
    return draw(names), domain, codes, draw(texts), draw(texts)


spec_maps = st.dictionaries(names, variable_specs().map(lambda v: VariableSpec(*v)), max_size=2)
constraints = st.tuples(names, st.sampled_from(OPERATORS), floats | names | st.builds(PropertyRef, names, names), texts)


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(("existence", "absence", "constraint")))
    expression = ConstraintExpression(*draw(constraints)) if kind == "constraint" else None
    return draw(st.integers(1, 6)), draw(names), kind, expression


@st.composite
def datasets(draw):
    columns = draw(st.lists(names, max_size=3, unique=True))
    domains = [draw(labels) for _ in columns]
    rows = draw(st.integers(0, 4)) if columns else 0  # a dataset without columns has no rows
    codes = [np.array(draw(st.lists(st.integers(0, len(d) - 1), min_size=rows, max_size=rows)), dtype=int)
             for d in domains]
    counts = draw(st.none() | st.lists(st.integers(0, 5), min_size=rows, max_size=rows))
    return tuple(columns), tuple(codes), tuple(domains), counts


@st.composite
def trajectories(draw):
    n = draw(st.integers(5, 8))
    t = draw(st.integers(-3, 3)) + draw(st.sampled_from((0.1, 0.5, 1.0))) * np.arange(n)
    xy = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    return t, np.array(draw(xy)), np.array(draw(xy))


@st.composite
def driving_tasks(draw):
    t, x, y = draw(trajectories())
    paths = (Trajectory(t, x, y), Trajectory(t, y, x))[: draw(st.integers(1, 2))]
    return paths, t[0], draw(st.floats(0.01, 1.0)) * (t[-1] - t[0])


@st.composite
def accel_fields(draw):
    ny, nx = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.lists(st.floats(0, 10), min_size=nx * ny, max_size=nx * ny)
    return (draw(floats), draw(floats), draw(st.floats(0.1, 5)), draw(st.floats(0.1, 5)),
            -np.reshape(draw(cells), (ny, nx)), np.reshape(draw(cells), (ny, nx)))


MODELS = [fixture("heavy-rain-reality")[1], fixture("heavy-rain-model")[1]]
models = st.sampled_from(MODELS)

# Class -> strategy for its field values in declaration order.
FIELDS = {
    CausalStructure: structure_fields,
    PathQueryResult: st.tuples(st.booleans(), st.none() | name_tuples),
    VariableSpec: variable_specs(),
    Cpd: st.tuples(names, name_tuples, st.lists(floats, min_size=1, max_size=3).map(lambda r: np.array([r]))),
    DiscreteModel: st.tuples(structures, spec_maps, st.just({})),
    PropertyRef: st.tuples(names, names),
    ConstraintExpression: constraints,
    ContextStatement: statements(),
    PhenomenonBinding: st.tuples(names, names),
    Violation: st.tuples(texts, texts),
    CausalRelation: st.tuples(structures, st.lists(statements().map(lambda a: ContextStatement(*a)), max_size=2)
                              .map(tuple), st.builds(PhenomenonBinding, names, names), names, spec_maps),
    Dataset: datasets(),
    SafetyPrinciple: st.tuples(names, st.dictionaries(names, names, min_size=1, max_size=2)),
    SafetyPrincipleReport: st.tuples(texts, *[floats] * 6, st.lists(texts, max_size=2).map(tuple)),
    IndicatorReport: st.tuples(names, floats, name_tuples, st.dictionaries(names, floats, max_size=2)),
    ModelPair: st.tuples(models, models),
    Trajectory: trajectories(),
    DrivingTask: driving_tasks(),
    AccelField: accel_fields(),
}
IDENTITY = {Cpd, DiscreteModel, Dataset, Trajectory, AccelField}
FACTORIES = {CausalRelation: {"specs"}, IndicatorReport: {"metadata"}}


@functools.cache
def twin(cls):
    """A frozen dataclass with the fields, defaults and ``eq`` of ``cls``."""
    fields = []
    for name in cls.__match_args__:
        if name in FACTORIES.get(cls, ()):
            fields.append((name, cls.__annotations__[name], dataclasses.field(default_factory=dict)))
        elif name in vars(cls):
            fields.append((name, cls.__annotations__[name], dataclasses.field(default=vars(cls)[name])))
        else:
            fields.append((name, cls.__annotations__[name]))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, eq=cls not in IDENTITY)


def test_every_record_class_is_checked():
    found = set()
    for info in pkgutil.iter_modules(causalcrit.__path__):
        module = importlib.import_module(f"causalcrit.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and obj.__setattr__ is _record._frozen_setattr}
    assert found == set(FIELDS)
    assert (len(FIELDS) - len(IDENTITY), len(IDENTITY)) == (14, 5)


def test_no_module_imports_dataclasses():
    for path in Path(causalcrit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
@given(data=st.data())
def test_record_matches_its_dataclass_twin(cls, data):
    values = data.draw(FIELDS[cls], label="values")
    other = data.draw(st.just(values) | FIELDS[cls], label="other")
    a, b = cls(*values), cls(*other)
    # The twin takes the record's own field values, as __post_init__ left them.
    Twin = twin(cls)
    ta, tb = (Twin(**{n: getattr(r, n) for n in cls.__match_args__}) for r in (a, b))
    assert cls.__match_args__ == Twin.__match_args__
    assert repr(a) == repr(ta)

    if cls is Dataset:  # it keeps its own __eq__, and so has no hash
        assert a == cls(*values) and a.__eq__(object()) is NotImplemented
        assert _hash_or_error(a) is TypeError
    elif cls in IDENTITY:
        assert a == a and a != cls(*values)
        assert hash(a) == object.__hash__(a)
    else:
        assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
        assert a.__eq__(ta) is NotImplemented and a != ta
        assert _hash_or_error(a) == _hash_or_error(ta)

    before = repr(a)
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(_record.FrozenInstanceError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == before

    by_keyword = cls(**dict(zip(cls.__match_args__, values)))
    assert repr(by_keyword) == repr(a)
    k = sum(n not in FACTORIES.get(cls, ()) and n not in vars(cls) for n in cls.__match_args__)
    if k < len(values):
        defaults = Twin(*values[:k])
        try:
            short = cls(*values[:k])
        except (ValidationError, InvalidQuery):
            # Refused exactly where the record given the defaults explicitly is.
            with pytest.raises((ValidationError, InvalidQuery)):
                cls(*(getattr(defaults, n) for n in cls.__match_args__))
        else:
            for name in cls.__match_args__[k:]:
                if (cls, name) == (Dataset, "counts"):  # None stands for one count per row
                    assert short.counts.tolist() == [1] * len(short)
                else:
                    assert getattr(short, name) == getattr(defaults, name), name


@pytest.mark.parametrize(
    "cls, field, build",
    [
        (CausalRelation, "specs", lambda: CausalRelation(MODELS[0].structure, (), PhenomenonBinding("X", "CP"), "phi")),
        (IndicatorReport, "metadata", lambda: IndicatorReport("ace", 0.0)),
    ],
    ids=["CausalRelation", "IndicatorReport"],
)
def test_default_factory_gives_a_fresh_dict(cls, field, build):
    first, second = build(), build()
    assert getattr(first, field) == {} and getattr(first, field) is not getattr(second, field)
    assert field not in vars(cls)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: VariableSpec("V", ("a", "b"), (0.0,)), ValidationError),
        (lambda: VariableSpec("V", ("a", "a"), (0.0, 1.0)), ValidationError),
        (lambda: ConstraintExpression("p", "~", 1.0), ValidationError),
        (lambda: ContextStatement(7, "ego", "existence"), ValidationError),
        (lambda: ContextStatement(1, "ego", "constraint"), ValidationError),
        (lambda: Dataset(("A",), (np.array([0, 2]),), (("a", "b"),)), ValidationError),
        (lambda: SafetyPrinciple("slow down", {}), InvalidQuery),
        (lambda: Trajectory(np.arange(4.0), np.zeros(4), np.zeros(4)), ValidationError),
        (lambda: DrivingTask((), 0.0, 1.0), ValidationError),
        (lambda: AccelField(0.0, 0.0, 1.0, 1.0, np.ones((1, 1)), np.ones((1, 1))), ValidationError),
    ],
    ids=["spec-codes", "spec-duplicate", "operator", "layer", "expression", "dataset-codes",
         "empty-principle", "short-trajectory", "empty-task", "positive-long"],
)
def test_post_init_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_cached_properties_work_on_frozen_records():
    model = MODELS[0]
    assert model.structure._parents is model.structure._parents
    assert model._shape_key is model._shape_key
