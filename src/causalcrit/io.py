"""Model-file format, dataset ingestion, trajectory and field files.

Model files are JSON with a canonical writer: sorted keys, name-sorted
collections, floats at 12 significant digits. A canonically written file is
a fixed point of save(load(.)), which keeps fixtures diffable and lets tests
pin them by checksum.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .context import (
    CausalRelation,
    ConstraintExpression,
    ContextStatement,
    PhenomenonBinding,
    PropertyRef,
)
from .errors import CausalCritError, ParseError, RaggedRow, UnknownLabel, ValidationError
from .graph import build_structure
from .metrics import AccelField, trajectory_from_rows
from .model import (
    Cpd,
    Dataset,
    DiscreteModel,
    VariableSpec,
    build_model,
    make_cpd,
)

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


def _canonical(obj):
    if isinstance(obj, float):
        rounded = _round12(obj)
        return int(rounded) if rounded.is_integer() and abs(rounded) < 1e15 else rounded
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def canonical_json(payload) -> str:
    """Deterministic JSON rendering used for files and machine output."""
    return json.dumps(_canonical(payload), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _expect_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")


def _expression_to_json(expr: ConstraintExpression) -> dict:
    value = expr.value
    if isinstance(value, PropertyRef):
        value_json: object = {"ref": value.key()}
    else:
        value_json = value
    out = {"property": expr.prop, "op": expr.op, "value": value_json}
    if expr.unit:
        out["unit"] = expr.unit
    return out


def _expression_from_json(obj: dict, where: str) -> ConstraintExpression:
    _expect_keys(obj, {"property", "op", "value"}, {"unit"}, where)
    value = obj["value"]
    if isinstance(value, dict):
        _expect_keys(value, {"ref"}, set(), f"{where}.value")
        ref = str(value["ref"])
        if "." not in ref:
            raise ParseError(f"{where}: property reference {ref!r} needs individual.property form")
        individual, prop = ref.split(".", 1)
        value = PropertyRef(individual=individual, prop=prop)
    return ConstraintExpression(
        prop=str(obj["property"]),
        op=str(obj["op"]),
        value=value,
        unit=str(obj.get("unit", "")),
    )


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


def model_to_text(cr: CausalRelation, model: DiscreteModel) -> str:
    """Render a causal relation and its model as the canonical file text."""
    structure = model.structure
    variables = []
    for name in structure.nodes:
        spec = model.specs[name]
        variables.append(
            {
                "name": name,
                "domain": list(spec.domain),
                "codes": list(spec.codes),
                "unit": spec.unit,
                "range": spec.value_range,
                "latent": name in structure.latent,
            }
        )
    context = []
    for st in sorted(cr.context, key=_statement_sort_key):
        entry: dict = {"layer": st.layer, "subject": st.subject, "kind": st.kind}
        if st.expression is not None:
            entry["expression"] = _expression_to_json(st.expression)
        context.append(entry)
    cpds = []
    for child in sorted(model.cpds):
        cpd = model.cpds[child]
        cpds.append(
            {
                "child": child,
                "parents": list(cpd.parents),
                "table": [[float(v) for v in row] for row in cpd.table],
            }
        )
    payload = {
        "format_version": FORMAT_VERSION,
        "variables": variables,
        "edges": sorted(list(e) for e in structure.directed),
        "bidirected": sorted(sorted(pair) for pair in structure.bidirected),
        "phenomenon": {
            "variable": cr.phenomenon.variable,
            "cp_label": cr.phenomenon.cp_label,
        },
        "metric": {"variable": cr.metric},
        "context": context,
        "cpds": cpds,
    }
    return canonical_json(payload)


def _write_text(path: PathLike, text: str) -> None:
    """Leave the file at ``path`` holding exactly ``text`` in UTF-8.

    An existing regular file is overwritten in place and then cut to the new
    length, not truncated to zero first: ext4 and file systems like it start
    writing a file out to disk when it is closed after such a truncation,
    which makes each rewrite wait for the disk. Overwritten in place, the
    pages are written back later by the kernel.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as out:
        out.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            out.truncate()


def save_model(path: PathLike, cr: CausalRelation, model: DiscreteModel) -> None:
    _write_text(path, model_to_text(cr, model))


def parse_model_text(text: str) -> tuple[CausalRelation, DiscreteModel]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno}, column {exc.colno}") from None
    _expect_keys(
        payload,
        {"format_version", "variables", "edges", "bidirected", "phenomenon", "metric", "context", "cpds"},
        set(),
        "model",
    )
    if payload["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {payload['format_version']!r}")

    specs: dict[str, VariableSpec] = {}
    latent = []
    for k, var in enumerate(payload["variables"]):
        where = f"variables[{k}]"
        _expect_keys(var, {"name", "domain", "codes", "unit", "latent"}, {"range"}, where)
        try:
            spec = VariableSpec(
                name=str(var["name"]),
                domain=tuple(str(d) for d in var["domain"]),
                codes=tuple(float(c) for c in var["codes"]),
                unit=str(var["unit"]),
                value_range=str(var.get("range", "")),
            )
        except CausalCritError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        if spec.name in specs:
            raise ValidationError(f"{where}: duplicate variable {spec.name!r}")
        specs[spec.name] = spec
        if var["latent"]:
            latent.append(spec.name)

    def edge_pairs(field: str) -> list[tuple[str, str]]:
        out = []
        for k, pair in enumerate(payload[field]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{field}[{k}]: expected a two-element list")
            out.append((str(pair[0]), str(pair[1])))
        return out

    structure = build_structure(
        nodes=specs.keys(),
        directed=edge_pairs("edges"),
        bidirected=edge_pairs("bidirected"),
        latent=latent,
    )

    _expect_keys(payload["phenomenon"], {"variable", "cp_label"}, set(), "phenomenon")
    _expect_keys(payload["metric"], {"variable"}, set(), "metric")
    phenomenon = PhenomenonBinding(
        variable=str(payload["phenomenon"]["variable"]),
        cp_label=str(payload["phenomenon"]["cp_label"]),
    )

    statements = []
    for k, st in enumerate(payload["context"]):
        where = f"context[{k}]"
        _expect_keys(st, {"layer", "subject", "kind"}, {"expression"}, where)
        # bool is a subclass of int, and JSON's true is no layer.
        if type(st["layer"]) is not int:
            raise ParseError(f"{where}.layer: expected an integer, got {st['layer']!r}")
        expression = None
        if "expression" in st:
            expression = _expression_from_json(st["expression"], f"{where}.expression")
        try:
            statements.append(
                ContextStatement(
                    layer=st["layer"],
                    subject=str(st["subject"]),
                    kind=str(st["kind"]),
                    expression=expression,
                )
            )
        except CausalCritError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    cpds: list[Cpd] = []
    for k, entry in enumerate(payload["cpds"]):
        where = f"cpds[{k}]"
        _expect_keys(entry, {"child", "parents", "table"}, set(), where)
        try:
            cpds.append(
                make_cpd(
                    child=str(entry["child"]),
                    parents=tuple(str(p) for p in entry["parents"]),
                    table=entry["table"],
                    specs=specs,
                )
            )
        except CausalCritError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    try:
        model = build_model(structure, specs, cpds)
    except CausalCritError as exc:
        raise ValidationError(str(exc)) from None
    relation = CausalRelation(
        structure=structure,
        context=tuple(statements),
        phenomenon=phenomenon,
        metric=str(payload["metric"]["variable"]),
        specs=specs,
    )
    return relation, model


def _read_text(path: PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def load_model(path: PathLike) -> tuple[CausalRelation, DiscreteModel]:
    return parse_model_text(_read_text(path))


def load_dataset(
    path: PathLike,
    specs: Mapping[str, VariableSpec],
    provenance: str = "real-world",
) -> Dataset:
    """Comma-separated labels, first row names the variables.

    Each distinct line is checked and encoded once, in order of first
    occurrence, so the first bad row reported is the first bad row of the
    file. Row numbers count non-blank lines after the header from 0.
    """
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
    body = raw[start + 1:]

    def row_of(line: str) -> int:
        return sum(1 for other in body[: body.index(line)] if other.strip())

    lookups = [{label: i for i, label in enumerate(specs[c].domain)} for c in columns]
    distinct = dict.fromkeys(body, -1)
    encoded: list[list[int]] = []
    for line in distinct:
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(columns):
            raise RaggedRow(f"row {row_of(line)}: {len(cells)} cells, expected {len(columns)}")
        row = []
        for lookup, column, label in zip(lookups, columns, cells):
            if label not in lookup:
                raise UnknownLabel(row_of(line), column, label)
            row.append(lookup[label])
        distinct[line] = len(encoded)
        encoded.append(row)
    rows = np.fromiter(map(distinct.__getitem__, body), dtype=np.intp, count=len(body))
    rows = rows[rows >= 0]
    table = np.array(encoded, dtype=np.intp).reshape(len(encoded), len(columns))
    return Dataset(
        columns=columns,
        codes=tuple(table[rows].T),
        domains=tuple(specs[c].domain for c in columns),
        provenance=provenance,
    )


# Mixed-radix row keys stay below this bound; past it the key is re-ranked.
_KEY_LIMIT = 1 << 62


def save_dataset(path: PathLike, dataset: Dataset) -> None:
    """Write ``dataset`` as CSV, rendering each distinct row only once; a label
    that would not read back as itself raises before anything is written."""
    for column, domain in zip(dataset.columns, dataset.domains):
        for label in domain:
            if not (label == label.strip() and "," not in label and label.splitlines() == [label]):
                raise ValidationError(f"column {column!r}: label {label!r} cannot be read back")
    key = np.zeros(len(dataset), dtype=np.int64)
    radix = 1
    for codes, domain in zip(dataset.codes, dataset.domains):
        if radix * len(domain) > _KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            radix = len(dataset)
        key = key * len(domain) + codes
        radix *= len(domain)
    keys, inverse = np.unique(key, return_inverse=True)
    # Rows with one key are identical, so any of them can stand for it.
    first = np.empty(len(keys), dtype=np.intp)
    first[inverse] = np.arange(len(dataset))
    cells = [
        np.array(domain, dtype=object)[codes[first]].tolist()
        for codes, domain in zip(dataset.codes, dataset.domains)
    ]
    rendered = np.array(list(map(",".join, zip(*cells))), dtype=object)
    lines = [",".join(dataset.columns), *rendered[inverse].tolist()]
    _write_text(path, "\n".join(lines) + "\n")


def load_trajectory(path: PathLike):
    """Whitespace-separated "t x y" per line."""
    rows = []
    text = _read_text(path)
    for k, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{k + 1}: expected 't x y'")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ParseError(f"{path}:{k + 1}: non-numeric value") from None
    try:
        return trajectory_from_rows(rows)
    except CausalCritError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_field(path: PathLike):
    """Header "nx ny x0 y0 dx dy", then nx*ny row-major "long lat" cells."""
    text = _read_text(path)
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty field file")
    header = lines[0].split()
    if len(header) != 6:
        raise ParseError(f"{path}: header must be 'nx ny x0 y0 dx dy'")
    try:
        nx, ny = int(header[0]), int(header[1])
        x0, y0, dx, dy = (float(v) for v in header[2:])
    except ValueError:
        raise ParseError(f"{path}: non-numeric header value") from None
    cells = lines[1:]
    if len(cells) != nx * ny:
        raise ParseError(f"{path}: expected {nx * ny} cells, found {len(cells)}")
    long_vals = np.empty((ny, nx))
    lat_vals = np.empty((ny, nx))
    for k, line in enumerate(cells):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{k + 2}: expected 'long lat'")
        try:
            long_vals[k // nx, k % nx] = float(parts[0])
            lat_vals[k // nx, k % nx] = float(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{k + 2}: non-numeric value") from None
    try:
        return AccelField(x0=x0, y0=y0, dx=dx, dy=dy, long_avail=long_vals, lat_avail=lat_vals)
    except CausalCritError as exc:
        raise ValidationError(f"{path}: {exc}") from None
