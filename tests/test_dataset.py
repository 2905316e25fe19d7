"""Columnar datasets: encoding, CSV round trips, load errors and estimation."""

import itertools
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcrit.errors import (
    CausalCritError,
    EmptyDataset,
    ParseError,
    RaggedRow,
    UnknownCategory,
    UnknownLabel,
    UnknownNode,
    UnseenParentConfigurationWarning,
    ValidationError,
)
from causalcrit.graph import build_structure
from causalcrit.io import load_dataset, save_dataset
from causalcrit.model import Dataset, VariableSpec, estimate_cpds

from oracles import brute_tally

LABEL = st.text(alphabet="abXY_-09é", min_size=1, max_size=3)


@st.composite
def labelled_tables(draw):
    """Specs for 1-4 columns of 1-4 labels, a DAG over them, and 0-50 label rows."""
    n = draw(st.integers(1, 4))
    names = [f"C{i}" for i in range(n)]
    specs = {
        name: _spec(name, draw(st.lists(LABEL, min_size=1, max_size=4, unique=True)))
        for name in names
    }
    edges = [
        (names[i], names[j])
        for i, j in itertools.combinations(range(n), 2)
        if draw(st.booleans())
    ]
    rows = draw(
        st.lists(
            st.tuples(*(st.sampled_from(specs[c].domain) for c in names)),
            max_size=50,
        )
    )
    return names, specs, build_structure(names, edges), rows


def _spec(name, labels):
    return VariableSpec(name=name, domain=tuple(labels), codes=tuple(float(k) for k in range(len(labels))))


def dataset_of(columns, rows, specs, provenance="fixture", counts=None):
    """The dataset of label rows, built from each label's index in its spec."""
    return Dataset(
        columns=tuple(columns),
        codes=tuple([specs[c].domain.index(row[k]) for row in rows] for k, c in enumerate(columns)),
        domains=tuple(specs[c].domain for c in columns),
        provenance=provenance,
        counts=counts,
    )


def labels(ds):
    """Each column's labels, read from its codes and domain."""
    return [[domain[i] for i in codes] for codes, domain in zip(ds.codes, ds.domains)]


def reference_csv(columns, rows) -> bytes:
    return "\n".join([",".join(columns), *(",".join(row) for row in rows)]).encode() + b"\n"


def unique_ranked_csv(ds) -> bytes:
    """Reference writer: rows ranked by ``np.unique`` over their code tuples,
    each distinct row rendered once, then every row written counts[r] times."""
    key = np.zeros(len(ds), dtype=np.int64)
    for codes, domain in zip(ds.codes, ds.domains):
        _, key = np.unique(key * len(domain) + codes, return_inverse=True)
    keys, inverse = np.unique(key, return_inverse=True)
    first = np.empty(len(keys), dtype=np.intp)
    first[inverse] = np.arange(len(ds))
    cells = [np.array(domain, dtype=object)[codes[first]].tolist() for codes, domain in zip(ds.codes, ds.domains)]
    rendered = [",".join(row) for row in zip(*cells)]
    lines = [",".join(ds.columns), *(rendered[k] for k in np.repeat(inverse, ds.counts))]
    return ("\n".join(lines) + "\n").encode()


@st.composite
def weighted_datasets(draw):
    """Up to 8 columns of up to 5 labels, 0-50 rows and counts of 0-3: past
    a few columns the key space exceeds the row count."""
    domains = draw(st.lists(st.lists(LABEL, min_size=1, max_size=5, unique=True), min_size=1, max_size=8))
    n = draw(st.integers(0, 50))
    return Dataset(
        columns=tuple(f"C{k}" for k in range(len(domains))),
        codes=tuple(draw(st.lists(st.integers(0, len(d) - 1), min_size=n, max_size=n)) for d in domains),
        domains=tuple(map(tuple, domains)),
        counts=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
    )


def reference_estimate(structure, specs, columns, rows, smoothing):
    """CPD tables counted directly from label tuples: {node: table}."""
    pos = {c: k for k, c in enumerate(columns)}
    out = {}
    for node in structure.nodes:
        parents = tuple(sorted(structure.parents(node)))
        if node not in pos or any(p not in pos for p in parents):
            continue
        table = []
        for cfg in itertools.product(*(specs[p].domain for p in parents)):
            match = [r for r in rows if all(r[pos[p]] == v for p, v in zip(parents, cfg))]
            counts = [sum(1 for r in match if r[pos[node]] == label) + smoothing for label in specs[node].domain]
            table.append(counts)
        table = np.asarray(table, dtype=float)
        if np.any(table.sum(axis=1) == 0):
            continue
        out[node] = table / table.sum(axis=1, keepdims=True)
    return out


class TestDatasetType:
    def test_codes_are_read_only_and_labels_derived(self):
        specs = {"A": _spec("A", ["no", "yes"]), "B": _spec("B", ["lo", "mid", "hi"])}
        ds = Dataset(
            columns=("B", "A"),
            codes=([2, 0], [0, 1]),
            domains=(specs["B"].domain, specs["A"].domain),
        )
        assert labels(ds) == [["hi", "lo"], ["no", "yes"]]
        with pytest.raises(ValueError):
            ds.codes[0][0] = 1

    def test_codes_are_copied(self):
        codes = np.array([0, 1])
        ds = Dataset(columns=("A",), codes=(codes,), domains=(("no", "yes"),))
        codes[0] = 1
        assert ds.codes[0].tolist() == [0, 1]
        assert codes.flags.writeable

    def test_equality_compares_codes(self):
        a = Dataset(columns=("A",), codes=([0, 1],), domains=(("no", "yes"),))
        assert a == Dataset(columns=("A",), codes=(np.array([0, 1]),), domains=(("no", "yes"),))
        assert a != Dataset(columns=("A",), codes=([1, 1],), domains=(("no", "yes"),))
        assert a != Dataset(columns=("A",), codes=([0, 1],), domains=(("no", "yes"),), provenance="x")
        assert a == Dataset(columns=("A",), codes=([0, 1],), domains=(("no", "yes"),), counts=[1, 1])
        assert a != Dataset(columns=("A",), codes=([0, 1],), domains=(("no", "yes"),), counts=[1, 2])

    def test_counts_default_to_one_and_are_read_only(self):
        counts = np.array([3, 0], dtype=np.uint8)
        weighted = Dataset(columns=("A",), codes=([0, 1],), domains=(("no", "yes"),), counts=counts)
        counts[0] = 1
        assert weighted.counts.tolist() == [3, 0] and weighted.counts.dtype == np.int64
        plain = Dataset(columns=("A",), codes=([0, 1, 1],), domains=(("no", "yes"),))
        assert plain.counts.tolist() == [1, 1, 1] and len(plain) == 3
        for ds in (weighted, plain):
            with pytest.raises(ValueError):
                ds.counts[0] = 2

    @pytest.mark.parametrize(
        "codes, domains",
        [
            (([0, 2],), (("no", "yes"),)),
            (([-1],), (("no", "yes"),)),
            (([0, 1], [0]), (("no", "yes"), ("no", "yes"))),
            (([0],), ()),
            (([[0]],), (("no", "yes"),)),
        ],
    )
    def test_inconsistent_arrays_rejected(self, codes, domains):
        columns = tuple(f"C{k}" for k in range(len(codes)))
        with pytest.raises(ValidationError):
            Dataset(columns=columns, codes=codes, domains=domains)

    @pytest.mark.parametrize("codes", [[0.7, 1.9], [0.0, 1.0], [True, False], ["0", "1"]])
    def test_non_integer_codes_rejected(self, codes):
        # A cast to integers would truncate 0.7 and 1.9 to the codes 0 and 1.
        with pytest.raises(ValidationError, match="^column 'A': codes must be integers"):
            Dataset(columns=("A",), codes=(codes,), domains=(("a", "b"),))

    def test_empty_column_is_valid(self):
        ds = Dataset(columns=("A",), codes=([],), domains=(("a", "b"),))
        assert len(ds) == 0 and ds.codes[0].dtype == np.intp


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(labelled_tables())
    def test_save_load_estimate(self, tmp_path_factory, table):
        names, specs, structure, rows = table
        ds = dataset_of(names, rows, specs, provenance="synthetic")
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_dataset(path, ds)
        assert path.read_bytes() == reference_csv(names, rows)
        back = load_dataset(path, specs, provenance="synthetic")
        assert back == brute_tally(ds)
        if not rows:
            return
        # The same labels under a reversed domain order: estimation must
        # map them onto the specs' order.
        flipped = Dataset(
            columns=ds.columns,
            codes=tuple(len(d) - 1 - c for c, d in zip(ds.codes, ds.domains)),
            domains=tuple(d[::-1] for d in ds.domains),
        )
        assert labels(flipped) == labels(ds)
        for smoothing in (0.0, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnseenParentConfigurationWarning)
                est = estimate_cpds(structure, specs, flipped, smoothing=smoothing)
            expected = reference_estimate(structure, specs, names, rows, smoothing)
            assert set(est.cpds) == set(expected)
            for node, table_ in expected.items():
                np.testing.assert_allclose(est.cpds[node].table, table_, rtol=0, atol=1e-12)

    def test_label_outside_spec_is_unknown_category(self):
        specs = {"A": _spec("A", ["no", "yes"])}
        ds = Dataset(columns=("A",), codes=([1, 2, 0],), domains=(("no", "yes", "maybe"),))
        with pytest.raises(UnknownCategory, match="'maybe'"):
            estimate_cpds(build_structure(["A"]), specs, ds)

    def test_column_outside_the_specs_is_unknown_node(self):
        specs = {"A": _spec("A", ["no", "yes"])}
        ds = Dataset(columns=("A", "B"), codes=([1, 0], [0, 0]), domains=(("no", "yes"), ("b",)))
        with pytest.raises(UnknownNode, match="^dataset column 'B' is not a structure variable$"):
            estimate_cpds(build_structure(["A"]), specs, ds)

    def test_unused_label_outside_spec_is_ignored(self):
        specs = {"A": _spec("A", ["no", "yes"])}
        ds = Dataset(columns=("A",), codes=([1, 1, 0],), domains=(("no", "yes", "maybe"),))
        est = estimate_cpds(build_structure(["A"]), specs, ds)
        np.testing.assert_allclose(est.cpds["A"].table, [[1 / 3, 2 / 3]])

    def test_many_columns_key_is_reranked(self, tmp_path):
        # 70 binary columns span 2**70 row keys, past the int64 range. The
        # rows differ only in their first columns, whose digits an
        # overflowing key would lose.
        names = [f"C{k:02d}" for k in range(70)]
        specs = {n: _spec(n, ["a", "b"]) for n in names}
        rng = np.random.default_rng(5)
        tail = tuple("ab"[v] for v in rng.integers(0, 2, 62))
        heads = [tuple("ab"[v] for v in rng.integers(0, 2, 8)) for _ in range(30)]
        rows = [head + tail for head in heads + heads[:10]]
        path = tmp_path / "wide.csv"
        save_dataset(path, dataset_of(names, rows, specs))
        assert path.read_bytes() == reference_csv(names, rows)

    @settings(max_examples=200, deadline=None)
    @given(weighted_datasets())
    def test_bytes_of_a_writer_that_ranks_with_unique(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_dataset(path, ds)
        assert path.read_bytes() == unique_ranked_csv(ds)

    def test_empty_dataset_writes_only_the_header(self, tmp_path):
        ds = Dataset(columns=("A", "B"), codes=([], []), domains=(("x",), ("y", "z")))
        save_dataset(tmp_path / "d.csv", ds)
        assert (tmp_path / "d.csv").read_bytes() == b"A,B\n" == unique_ranked_csv(ds)

    @pytest.mark.parametrize("old_rows", [0, 3, 40])
    def test_rewrite_leaves_exactly_the_new_csv(self, tmp_path, old_rows):
        specs = {"A": _spec("A", ["no", "yes"]), "B": _spec("B", ["lo", "mid", "hi"])}
        path = tmp_path / "d.csv"
        save_dataset(path, dataset_of(["A", "B"], [("yes", "mid")] * old_rows, specs))
        rows = [("no", "hi"), ("yes", "lo"), ("no", "hi")]
        save_dataset(path, dataset_of(["A", "B"], rows, specs))
        assert path.read_bytes() == reference_csv(["A", "B"], rows)

    def test_save_to_non_regular_file(self):
        specs = {"A": _spec("A", ["no", "yes"])}
        save_dataset(os.devnull, dataset_of(["A"], [("yes",)], specs))

    def test_save_into_missing_directory_is_os_error(self, tmp_path):
        specs = {"A": _spec("A", ["no", "yes"])}
        with pytest.raises(OSError):
            save_dataset(tmp_path / "missing" / "d.csv", dataset_of(["A"], [("yes",)], specs))

    @pytest.mark.parametrize(
        "columns, label, message",
        [
            pytest.param(["A"], label, f"column 'A': label {label!r} cannot be read back", id=label)
            for label in ["x,y", "p\vq", " x", ""]
        ] + [
            pytest.param(["A", "A"], "x", "column 'A' appears twice", id="duplicate-column"),
            pytest.param([" A"], "x", "column ' A' cannot be read back", id="padded-column"),
            pytest.param(["A,B"], "x", "column 'A,B' cannot be read back", id="comma-column"),
            pytest.param(["A", ""], "x", "column '' cannot be read back", id="empty-column"),
            pytest.param([1], "x", "column 1 cannot be read back", id="int-column"),
            pytest.param(["A"], 1, "column 'A': label 1 cannot be read back", id="int-label"),
        ],
    )
    def test_label_that_cannot_be_read_back_is_rejected(self, tmp_path, columns, label, message):
        # Written as-is, "x,y" reads back as a ragged row, "p\vq" as two
        # lines, " x" stripped, and an empty cell as a blank line; a header
        # "A,A" is refused as a duplicate, " A" reads back as "A", "A,B" as
        # two columns and an empty name as no declared variable. A cell is
        # read back as a string, so a name or label of another type is refused.
        path = tmp_path / "d.csv"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            save_dataset(path, Dataset(columns=columns, codes=([0, 1, 0],) * len(columns),
                                       domains=((label, "z"),) * len(columns)))
        assert not path.exists()


SPECS = {"X": _spec("X", ["notCP", "CP"]), "V2": _spec("V2", ["Slow", "Fast"])}


def reference_first_error(text):
    """Reference: check rows one by one; the first error as (type, row, column), or None."""
    lines = [line for line in text.splitlines() if line.strip()]
    columns = [c.strip() for c in lines[0].split(",")]
    for r, line in enumerate(lines[1:]):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(columns):
            return ("ragged", r, None)
        for c, label in zip(columns, cells):
            if label not in SPECS[c].domain:
                return ("label", r, c)
    return None


def load_error(path):
    """The error that load_dataset raises on ``path``, or None."""
    try:
        load_dataset(path, SPECS)
    except CausalCritError as exc:
        return exc
    return None


def first_error(path):
    exc = load_error(path)
    if isinstance(exc, UnknownLabel):
        return ("label", exc.row, exc.column)
    if isinstance(exc, RaggedRow):
        return ("ragged", int(str(exc).split(":")[0].split()[1]), None)
    assert exc is None, exc
    return None


class TestLoadErrors:
    def test_bad_cell_after_repeated_lines(self, tmp_path):
        good = ["CP,Slow", " notCP , Fast ", "CP,Slow\r"]
        body = "\r\n".join(good * 300 + ["", "   ", "CP,Slow", "CP , Sloow", "notCP,Fast"])
        path = tmp_path / "d.csv"
        path.write_bytes(("\r\n X , V2 \r\n\r\n" + body + "\r\n").encode())
        exc = load_error(path)
        assert type(exc) is UnknownLabel
        assert (exc.row, exc.column, exc.label) == (901, "V2", "Sloow")

    def test_first_bad_column_of_the_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("X,V2\nCP,Slow\n\nDrizzle,Sloow\n", encoding="utf-8")
        exc = load_error(path)
        assert type(exc) is UnknownLabel
        assert (exc.row, exc.column) == (1, "X")

    def test_ragged_row_after_repeated_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("X,V2\n" + "CP,Slow\n\n" * 50 + "CP\nCP,Sloow\n", encoding="utf-8")
        exc = load_error(path)
        assert (type(exc), str(exc)) == (RaggedRow, "row 50: 1 cells, expected 2")

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["CP,Slow", "notCP, Fast", " CP ,Fast", "", "  ", "CP", "Drizzle,Slow",
                 "CP,Sloow", "CP,Slow,Fast", "notCP,Slow\r"]
            ),
            max_size=30,
        ),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_first_error_matches_row_by_row_check(self, tmp_path_factory, lines, newline):
        text = newline.join(["X,V2", *lines]) + newline
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert first_error(path) == reference_first_error(text)

    def test_blank_lines_and_padding_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\r\n X ,V2\r\n\r\nCP, Slow\r\n  \r\nnotCP,Fast\r\nCP,Slow \r\n\r\n")
        assert load_error(path) is None
        # "CP, Slow" and "CP,Slow " are one record.
        expected = dataset_of(["X", "V2"], [("CP", "Slow"), ("notCP", "Fast")], SPECS, counts=[2, 1])
        assert load_dataset(path, SPECS, provenance="fixture") == expected

    def test_invalid_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"X\nCP\n\xff\xfe\n")
        exc = load_error(path)
        assert type(exc) is ParseError and "UTF-8" in str(exc)

    def test_duplicate_header_column_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("X, V2 ,X\nCP,Slow,CP\n", encoding="utf-8")
        exc = load_error(path)
        assert type(exc) is ParseError and "'X' appears twice" in str(exc)


@st.composite
def decorated_csvs(draw):
    """A labelled table written as CSV text over a subset of its columns in a
    drawn order, with CRLF or LF endings, blank lines and space-padded cells:
    the specs, the structure, the text, the header and the rows it holds as
    label tuples in header order."""
    names, specs, structure, rows = draw(labelled_tables())
    header = draw(st.permutations(names).flatmap(lambda p: st.integers(1, len(p)).map(lambda k: p[:k])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [" , ".join(header), ""]
    held = []
    for row in rows:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  "])))
        held.append(tuple(row[names.index(c)] for c in header))
        lines.append(",".join(f" {cell} " if draw(st.booleans()) else cell for cell in held[-1]))
    return specs, structure, newline.join(lines) + newline, header, held


def estimated(structure, specs, dataset, smoothing):
    """The model estimated from ``dataset`` and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = estimate_cpds(structure, specs, dataset, smoothing=smoothing)
    return model, [(w.category, str(w.message)) for w in caught]


def assert_same_estimates(structure, specs, weighted, repeated, positive):
    """``weighted`` estimates the table bytes and warnings of ``repeated``, its
    rows repeated with counts of one, at smoothing 0 and ``positive``."""
    if not len(repeated):
        for ds in (weighted, repeated):
            with pytest.raises(EmptyDataset):
                estimate_cpds(structure, specs, ds)
        return
    for smoothing in (0.0, positive):
        by_count, count_warnings = estimated(structure, specs, weighted, smoothing)
        by_row, row_warnings = estimated(structure, specs, repeated, smoothing)
        assert count_warnings == row_warnings
        assert set(by_count.cpds) == set(by_row.cpds)
        for node, cpd in by_row.cpds.items():
            other = by_count.cpds[node]
            assert other.parents == cpd.parents
            assert (other.table.dtype, other.table.shape) == (cpd.table.dtype, cpd.table.shape)
            assert other.table.tobytes() == cpd.table.tobytes()


class TestCounts:
    @settings(max_examples=150, deadline=None)
    @given(decorated_csvs(), st.floats(1e-3, 10.0))
    def test_counts_estimate_the_bits_of_every_row(self, tmp_path_factory, csv, positive):
        specs, structure, text, header, rows = csv
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        loaded = load_dataset(path, specs)
        assert loaded == brute_tally(dataset_of(header, rows, specs, provenance="real-world"))
        expanded = Dataset(
            columns=loaded.columns,
            codes=tuple(np.repeat(codes, loaded.counts) for codes in loaded.codes),
            domains=loaded.domains,
        )
        assert len(expanded) == len(rows)
        assert_same_estimates(structure, specs, loaded, expanded, positive)

    @settings(max_examples=150, deadline=None)
    @given(labelled_tables(), st.data(), st.floats(1e-3, 10.0))
    def test_weighted_save_load_estimate(self, tmp_path_factory, table, data, positive):
        names, specs, structure, rows = table
        counts = data.draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)), label="counts")
        ds = dataset_of(names, rows, specs, provenance="synthetic", counts=counts)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_dataset(path, ds)
        repeated = [row for row, count in zip(rows, counts) for _ in range(count)]
        assert path.read_bytes() == reference_csv(names, repeated)
        assert load_dataset(path, specs, provenance="synthetic") == brute_tally(ds)
        assert_same_estimates(structure, specs, ds, dataset_of(names, repeated, specs), positive)

    def test_unseen_configuration_warns_once_per_row(self):
        specs = {"A": _spec("A", ["a", "b"]), "B": _spec("B", ["x", "y"])}
        ds = dataset_of(["A", "B"], [("a", "x"), ("a", "y")], specs, counts=[3, 1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = estimate_cpds(build_structure(["A", "B"], [("A", "B")]), specs, ds)
        assert [(w.category, str(w.message)) for w in caught] == [(
            UnseenParentConfigurationWarning,
            "node 'B': no observations for parent configuration {'A': 'b'}; node left uninstantiated",
        )]
        assert set(model.cpds) == {"A"}
        np.testing.assert_array_equal(model.cpds["A"].table, [[1.0, 0.0]])

    def test_zero_counts_drop_their_rows(self):
        specs = {"A": _spec("A", ["a", "b", "c"])}
        structure = build_structure(["A"])
        counts = np.array([2, 0, 1], dtype=np.uint8)
        weighted = estimate_cpds(structure, specs, dataset_of(["A"], [("a",), ("b",), ("c",)], specs, counts=counts),
                                 smoothing=0.5)
        repeated = estimate_cpds(structure, specs, dataset_of(["A"], [("a",), ("c",), ("a",)], specs), smoothing=0.5)
        assert weighted.cpds["A"].table.tobytes() == repeated.cpds["A"].table.tobytes()

    @pytest.mark.parametrize(
        "counts",
        [[1], [1, 1, 1], [[1, 1]], 2, [1.0, 1.0], [True, True], ["1", "1"], [None, 1], [2, -1],
         [2**52, 2**52], np.array([2**63, 2**63], dtype=np.uint64)],
    )
    def test_bad_counts_are_validation_errors(self, counts):
        specs = {"A": _spec("A", ["a", "b"])}
        with pytest.raises(ValidationError, match="^counts "):
            dataset_of(["A"], [("a",), ("b",)], specs, counts=counts)

    @pytest.mark.parametrize("rows, counts", [([("a",), ("b",)], [0, 0]), ([], [])])
    def test_zero_total_is_empty_dataset(self, rows, counts):
        specs = {"A": _spec("A", ["a", "b"])}
        with pytest.raises(EmptyDataset):
            estimate_cpds(build_structure(["A"]), specs, dataset_of(["A"], rows, specs, counts=counts))

    def test_overflow_names_the_record_total(self):
        specs = {"A": _spec("A", ["a", "b"])}
        ds = dataset_of(["A"], [("a",), ("b",)], specs, counts=[20, 30])
        with pytest.raises(ValidationError, match="^smoothing 1e\\+308 overflows the CPD row totals of 50 rows "):
            estimate_cpds(build_structure(["A"]), specs, ds, smoothing=1e308)
