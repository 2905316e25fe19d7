"""Model-file format, dataset ingestion, trajectory and field files.

Model files are JSON with a canonical writer: sorted keys, name-sorted
collections, floats at 12 significant digits. A canonically written file is
a fixed point of save(load(.)), which keeps fixtures diffable and lets tests
pin them by checksum.

A model file that repeats the declaration (every top-level field but
``cpds``) of a relation still in use, a fixture's included, reuses that
relation, skipping the schema check and the rebuild of the declaration.
This fork stays: on the bench's 99 seed-7 ``indicators`` requests it halves
the whole-file schema checks, 99 against 198, and reading every file in
full instead read 4.5 to 12.5 % slower in median latency on a 2-vCPU
VM, in 6 of 6 alternating pairs.

Reading a model file without CPDs needs no numpy. The readers that build
arrays (CPD tables, datasets, trajectories and fields) import numpy and the
numeric layers when they run.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice
import json
from json.encoder import encode_basestring as _encode_string
import marshal
import math
import os
import stat
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Union

from .context import (
    CausalRelation,
    ConstraintExpression,
    ContextStatement,
    PhenomenonBinding,
    PropertyRef,
)
from .errors import CausalCritError, ParseError, RaggedRow, UnknownLabel, ValidationError
from .graph import build_structure
from .variables import DiscreteModel, VariableSpec, build_model

if TYPE_CHECKING:
    import numpy as np

    from .metrics import AccelField, Trajectory
    from .model import Dataset

__all__ = [
    "FORMAT_VERSION",
    "load_model",
    "save_model",
    "model_to_text",
    "load_dataset",
    "save_dataset",
    "load_trajectory",
    "load_field",
    "canonical_json",
]

FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_canonical(obj, indent: str, out: list[str]) -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(..., sort_keys=True,
    indent=2, ensure_ascii=False)`` would write it, floats at 12 significant
    digits and integral ones below 1e15 as integers."""
    if isinstance(obj, str):
        out.append(_encode_string(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        rounded = _round12(obj)
        if rounded.is_integer() and abs(rounded) < 1e15:
            out.append(int.__repr__(int(rounded)))
        else:
            out.append(float.__repr__(rounded) if math.isfinite(rounded) else json.dumps(rounded))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if not (key is None or isinstance(key, (str, int, float))):
                raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                key = json.dumps(key)
            out.append(sep + _encode_string(key) + ": ")
            _write_canonical(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            _write_canonical(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(payload) -> str:
    """Deterministic JSON rendering used for files and machine output."""
    out: list[str] = []
    _write_canonical(payload, "", out)
    out.append("\n")
    return "".join(out)


def _object(required: dict, **optional: dict) -> dict:
    return {"type": "object", "required": list(required), "properties": {**required, **optional},
            "additionalProperties": False}


def _array(items: dict, **length) -> dict:
    return {"type": "array", "items": items, **length}


# The model file's shape as a JSON Schema (json-schema.org): type, required,
# properties, additionalProperties and items, and minItems/maxItems only to
# fix a length. _compile below reads no other keyword.
_STR, _NUM, _INT = {"type": "string"}, {"type": "number"}, {"type": "integer"}
_EDGES = _array(_array(_STR, minItems=2, maxItems=2))
MODEL_SCHEMA = _object({
    "format_version": _INT,
    "variables": _array(_object(
        {"name": _STR, "domain": _array(_STR), "codes": _array(_NUM), "unit": _STR,
         "latent": {"type": "boolean"}},
        range=_STR,
    )),
    "edges": _EDGES,
    "bidirected": _EDGES,
    "phenomenon": _object({"variable": _STR, "cp_label": _STR}),
    "metric": _object({"variable": _STR}),
    "context": _array(_object(
        {"layer": _INT, "subject": _STR, "kind": _STR},
        expression=_object(
            # A literal value, or {"ref": "individual.property"}.
            {"property": _STR, "op": _STR,
             "value": {**_object({"ref": _STR}), "type": ["number", "string", "object"]}},
            unit=_STR,
        ),
    )),
    "cpds": _array(_object({"child": _STR, "parents": _array(_STR), "table": _array(_array(_NUM))})),
})

# The Python types json.loads gives each JSON type. bool is a subclass of
# int, but true is no number: exact type lookups keep the two apart.
_PY_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "integer": (int,),
             "number": (int, float), "boolean": (bool,)}
_KIND = {types: kind for kind, types in _PY_TYPES.items()}


def _type_error(path: str, kinds: list, value) -> ParseError:
    want = " or ".join(("an " if k[0] in "aeiou" else "a ") + k for k in kinds)
    got = {dict: "an object", list: "an array"}.get(type(value)) or json.dumps(value)
    return ParseError(f"{path or 'model'}: expected {want}, got {got}")


def _compile(schema: dict):
    """Turn ``schema`` into check(value, path), which raises a ParseError naming
    the JSON path of the first part of ``value`` that the schema rejects.

    A leaf, a schema that gives only a type, becomes its tuple of Python
    types, and the loop over its container checks it without a call.
    """
    kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    types = tuple(t for k in kinds for t in _PY_TYPES[k])
    if len(schema) == 1:
        return types
    props = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    required = set(schema.get("required", ()))
    items = _compile(schema["items"]) if "items" in schema else None
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)

    def check(value, path: str) -> None:
        if type(value) not in types:
            raise _type_error(path, kinds, value)
        if type(value) is dict:
            missing, unknown = required - value.keys(), value.keys() - props.keys()
            if missing or unknown:
                problem = f"missing fields {sorted(missing)}" if missing else f"unknown fields {sorted(unknown)}"
                raise ParseError(f"{path or 'model'}: {problem}")
            for key, item in value.items():
                sub, where = props[key], f"{path}.{key}" if path else key
                if type(sub) is not tuple:
                    sub(item, where)
                elif type(item) not in sub:
                    raise _type_error(where, [_KIND[sub]], item)
        elif type(value) is list:
            if not lo <= len(value) <= hi:
                raise ParseError(f"{path}: expected {lo} items, got {len(value)}")
            for k, item in enumerate(value):
                if type(items) is not tuple:
                    items(item, f"{path}[{k}]")
                elif type(item) not in items:
                    raise _type_error(f"{path}[{k}]", [_KIND[items]], item)

    return check


_check_model = _compile(MODEL_SCHEMA)
_check_cpds = _compile(MODEL_SCHEMA["properties"]["cpds"])


def _json_int(digits: str):
    # No double holds an integer of more than 308 digits: read it as a float,
    # as json reads 1e400, so that the finiteness checks see it.
    return int(digits) if len(digits) <= 308 else float(digits)


_DECODER = json.JSONDecoder(parse_int=_json_int)


def _at(where: str, make, **fields):
    """``make(**fields)``, a domain error re-raised as a ValidationError at ``where``."""
    try:
        return make(**fields)
    except CausalCritError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _statement_sort_key(st: ContextStatement):
    expr = st.expression
    return (
        st.layer,
        st.subject,
        st.kind,
        expr.prop if expr else "",
        expr.op if expr else "",
        str(expr.value) if expr else "",
    )


def _statement_to_json(st: ContextStatement) -> dict:
    out: dict = {"layer": st.layer, "subject": st.subject, "kind": st.kind}
    expr = st.expression
    if expr is not None:
        value = {"ref": expr.value.key()} if isinstance(expr.value, PropertyRef) else expr.value
        out["expression"] = {"property": expr.prop, "op": expr.op, "value": value}
        if expr.unit:
            out["expression"]["unit"] = expr.unit
    return out


def model_to_text(cr: CausalRelation, model: DiscreteModel) -> str:
    """Render a causal relation and its model as the canonical file text."""
    structure = model.structure
    variables = [
        {"name": spec.name, "domain": list(spec.domain), "codes": list(spec.codes), "unit": spec.unit,
         "range": spec.value_range, "latent": spec.name in structure.latent}
        for spec in map(model.specs.__getitem__, structure.nodes)
    ]
    cpds = [
        {"child": child, "parents": list(cpd.parents), "table": cpd.table.tolist()}
        for child, cpd in sorted(model.cpds.items())
    ]
    payload = {
        "format_version": FORMAT_VERSION,
        "variables": variables,
        "edges": sorted(list(e) for e in structure.directed),
        "bidirected": sorted(sorted(pair) for pair in structure.bidirected),
        "phenomenon": {"variable": cr.phenomenon.variable, "cp_label": cr.phenomenon.cp_label},
        "metric": {"variable": cr.metric},
        "context": [_statement_to_json(st) for st in sorted(cr.context, key=_statement_sort_key)],
        "cpds": cpds,
    }
    return canonical_json(payload)


def _write_bytes(path: PathLike, data: bytes) -> None:
    """Leave the file at ``path`` holding exactly ``data``.

    An existing regular file is overwritten in place and then cut to the new
    length, not truncated to zero first: ext4 and file systems like it start
    writing a file out to disk when it is closed after such a truncation,
    which makes each rewrite wait for the disk. Overwritten in place, the
    pages are written back later by the kernel.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as out:
        out.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            out.truncate()


def save_model(path: PathLike, cr: CausalRelation, model: DiscreteModel) -> None:
    _write_bytes(path, model_to_text(cr, model).encode("utf-8"))


def _statement_from_json(st: dict, where: str) -> ContextStatement:
    expr = st.get("expression")
    if expr is not None:
        value = expr["value"]
        if isinstance(value, dict):
            if "." not in value["ref"]:
                raise ParseError(f"{where}.expression: property reference {value['ref']!r} "
                                 "needs individual.property form")
            value = PropertyRef(*value["ref"].split(".", 1))
        expr = _at(f"{where}.expression", ConstraintExpression, prop=expr["property"], op=expr["op"],
                   value=value, unit=expr.get("unit", ""))
    return _at(where, ContextStatement, layer=st["layer"], subject=st["subject"], kind=st["kind"],
               expression=expr)


def _decode(text: str):
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to read") from None


# The relation of each model file parsed so far, by its declaration key (see
# _parse). An entry lasts as long as something else holds its relation.
_DECLARED: weakref.WeakValueDictionary[bytes, CausalRelation] = weakref.WeakValueDictionary()


def _parse(payload) -> tuple[CausalRelation, DiscreteModel]:
    """The relation and model of a decoded model file. A file whose
    declaration equals, in JSON type and in each object's key order too, that
    of a relation held elsewhere reuses it, and of this file only ``cpds`` is
    checked and built, which raises what a fresh parse would. Marshal writes
    each value with its type, where ``==`` takes true, 1 and 1.0 for one."""
    key = None
    if type(payload) is dict and "cpds" in payload:  # any other payload fails the schema check
        key = marshal.dumps([[k, payload[k]] for k in sorted(payload) if k != "cpds"], 2)
    relation = _DECLARED.get(key)
    if relation is None:
        _check_model(payload, "")
        if payload["format_version"] != FORMAT_VERSION:
            raise ParseError(f"unsupported format_version {payload['format_version']!r}")
        specs: dict[str, VariableSpec] = {}
        for k, var in enumerate(payload["variables"]):
            spec = _at(f"variables[{k}]", VariableSpec, name=var["name"], domain=tuple(var["domain"]),
                       codes=tuple(var["codes"]), unit=var["unit"], value_range=var.get("range", ""))
            if spec.name in specs:
                raise ValidationError(f"variables[{k}]: duplicate variable {spec.name!r}")
            specs[spec.name] = spec
        latent = [var["name"] for var in payload["variables"] if var["latent"]]
        structure = build_structure(specs.keys(), payload["edges"], payload["bidirected"], latent)
        context = tuple(_statement_from_json(st, f"context[{k}]") for k, st in enumerate(payload["context"]))
        relation = CausalRelation(structure, context, PhenomenonBinding(**payload["phenomenon"]),
                                  payload["metric"]["variable"], specs)
    else:
        _check_cpds(payload["cpds"], "cpds")
    cpds = []
    if payload["cpds"]:
        from .model import _cpds

        try:
            cpds = _cpds([(c["child"], c["parents"], c["table"]) for c in payload["cpds"]], relation.specs)
        except CausalCritError as exc:  # the first CPD that fails, at its JSON path
            raise ValidationError(f"cpds[{exc.entry}]: {exc}") from None
    model = build_model(relation.structure, relation.specs, cpds)
    _DECLARED.setdefault(key, relation)  # only a file that passed every check lends its relation
    return relation, model


def parse_model_text(text: str) -> tuple[CausalRelation, DiscreteModel]:
    return _parse(_decode(text))


def _read_text(path: PathLike) -> str:
    """The UTF-8 text of ``path``, less the byte-order mark a "CSV UTF-8" export starts with."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def load_model(path: PathLike) -> tuple[CausalRelation, DiscreteModel]:
    return parse_model_text(_read_text(path))


def load_dataset(path: PathLike, specs: Mapping[str, VariableSpec]) -> Dataset:
    """Comma-separated labels, first row names the variables: the file's
    distinct records, in order of first occurrence, each with its count.

    Each cell is stripped of padding and blank lines are skipped, so lines
    that differ only in padding are one record, and ``counts[r]`` is the
    number of lines that record r stands for. Each distinct line is checked
    and encoded once, in order of first occurrence, so the first bad row
    reported is the first bad row of the file. Row numbers count non-blank
    lines after the header from 0.
    """
    import numpy as np

    from .model import Dataset

    raw = _read_text(path).splitlines()
    start = next((i for i, line in enumerate(raw) if line.strip()), None)
    if start is None:
        raise ParseError(f"{path}: no header row")
    columns = tuple(c.strip() for c in raw[start].split(","))
    for k, c in enumerate(columns):
        if c not in specs:
            raise ParseError(f"{path}: column {c!r} is not a declared variable")
        if c in columns[:k]:
            raise ParseError(f"{path}: column {c!r} appears twice in the header")

    def row_of(line: str) -> int:
        return sum(1 for other in raw[start + 1: raw.index(line, start + 1)] if other.strip())

    lookups = [{label: i for i, label in enumerate(specs[c].domain)} for c in columns]
    records: dict[tuple[int, ...], int] = {}  # codes -> count
    for line, count in Counter(islice(raw, start + 1, None)).items():
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise RaggedRow(f"row {row_of(line)}: {len(cells)} cells, expected {len(columns)}")
        try:
            codes = tuple(map(dict.__getitem__, lookups, map(str.strip, cells)))
        except KeyError:  # the row's first unknown label
            for column, label, lookup in zip(columns, map(str.strip, cells), lookups):
                if label not in lookup:
                    raise UnknownLabel(row_of(line), column, label) from None
        records[codes] = records.get(codes, 0) + count
    table = np.fromiter(chain.from_iterable(records), dtype=np.intp, count=len(records) * len(columns))
    return Dataset(columns=columns, codes=tuple(table.reshape(len(records), len(columns)).T),
                   domains=tuple(specs[c].domain for c in columns),
                   counts=np.fromiter(records.values(), dtype=np.int64, count=len(records)))


def _dense_rank(key: np.ndarray, space: int) -> tuple[np.ndarray, int]:
    """Each of ``key``'s entries, all in ``range(space)``, replaced by its rank
    among the distinct entries, in key order, and the number of distinct
    entries: a table of ``space`` booleans, then its running count."""
    import numpy as np

    seen = np.zeros(space, dtype=bool)
    seen[key] = True
    below = np.cumsum(seen, dtype=np.intp)
    below -= 1
    return below[key], int(seen.sum())


def save_dataset(path: PathLike, dataset: Dataset) -> None:
    """Write ``dataset`` as CSV, row r ``counts[r]`` times in row order, rendering each distinct
    row only once; a dataset without columns, or a column name or label that is not a string
    that reads back as itself, raises before anything is written.

    Rows are told apart by a mixed-radix key over their codes, ranked densely in key order,
    with no sort. It is ranked before a column would multiply a key space already larger
    than the row count, and once at the end, so no key space it ranks spans more than
    max(rows, 1) times one column's label count."""
    import numpy as np

    def reads_back(cell: object) -> bool:
        return isinstance(cell, str) and cell == cell.strip() and "," not in cell and cell.splitlines() == [cell]

    if not dataset.columns:
        raise ValidationError("a dataset without columns has no header row to write")
    for column, domain in zip(dataset.columns, dataset.domains):
        if not reads_back(column):
            raise ValidationError(f"column {column!r} cannot be read back")
        for label in domain:
            if not reads_back(label):
                raise ValidationError(f"column {column!r}: label {label!r} cannot be read back")
    n = len(dataset)
    key, space = np.zeros(n, dtype=np.intp), 1
    for codes, domain in zip(dataset.codes, dataset.domains):
        if space > n:
            key, space = _dense_rank(key, space)
        key *= len(domain)
        key += codes
        space *= len(domain)
    key, distinct = _dense_rank(key, space)
    # Rows with one key are identical, so any of them can stand for it.
    first = np.empty(distinct, dtype=np.intp)
    first[key] = np.arange(n)
    cells = [
        np.array(domain, dtype=object)[codes[first]].tolist()
        for codes, domain in zip(dataset.codes, dataset.domains)
    ]
    lines = np.array([f"{','.join(row)}\n".encode("utf-8") for row in zip(*cells)], dtype=object)
    header = f"{','.join(dataset.columns)}\n".encode("utf-8")
    _write_bytes(path, b"".join([header, *lines[np.repeat(key, dataset.counts)].tolist()]))


def _number_lines(path: PathLike) -> list[tuple[int, list[str]]]:
    """The non-blank lines of ``path``, each as its line number in the file,
    counted from 1, and its whitespace-separated fields."""
    return [(k, line.split()) for k, line in enumerate(_read_text(path).splitlines(), 1) if line.strip()]


def _float_rows(path: PathLike, lines: list[tuple[int, list[str]]], form: str) -> np.ndarray:
    """``lines`` from _number_lines as one float row each of the fields that
    ``form`` names; a bad line is a ParseError at its line number."""
    import numpy as np

    width = len(form.split())
    rows = []
    for k, fields in lines:
        if len(fields) != width:
            raise ParseError(f"{path}:{k}: expected '{form}'")
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise ParseError(f"{path}:{k}: non-numeric value") from None
    return np.array(rows, dtype=float).reshape(len(rows), width)


def load_trajectory(path: PathLike) -> Trajectory:
    """Whitespace-separated "t x y" per line."""
    from .metrics import Trajectory

    t, x, y = _float_rows(path, _number_lines(path), "t x y").T
    try:
        return Trajectory(t=t, x=x, y=y)
    except CausalCritError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_field(path: PathLike) -> AccelField:
    """Header "nx ny x0 y0 dx dy", then nx*ny row-major "long lat" cells."""
    from .metrics import AccelField

    lines = _number_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty field file")
    (_, header), cells = lines[0], lines[1:]
    if len(header) != 6:
        raise ParseError(f"{path}: header must be 'nx ny x0 y0 dx dy'")
    try:
        nx, ny = int(header[0]), int(header[1])
        x0, y0, dx, dy = (float(v) for v in header[2:])
    except ValueError:
        raise ParseError(f"{path}: non-numeric header value") from None
    if nx < 1 or ny < 1:
        raise ParseError(f"{path}: nx and ny must be >= 1, got {nx} and {ny}")
    if len(cells) != nx * ny:
        raise ParseError(f"{path}: expected {nx * ny} cells, found {len(cells)}")
    long_avail, lat_avail = _float_rows(path, cells, "long lat").T.reshape(2, ny, nx)
    try:
        return AccelField(x0=x0, y0=y0, dx=dx, dy=dy, long_avail=long_avail, lat_avail=lat_avail)
    except CausalCritError as exc:
        raise ValidationError(f"{path}: {exc}") from None
