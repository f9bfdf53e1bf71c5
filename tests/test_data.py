import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_schema
from synthbench.dataset import (
    Column,
    ColumnKind,
    Dataset,
    LevelMapping,
    NumberText,
    Schema,
    coarsen_levels,
    drop_column,
    head_n,
    load_csv,
    load_schema,
    replace_missing,
    write_csv,
)
from synthbench.errors import DataError, SchemaError


def small_schema():
    return Schema(
        (
            Column("a", ColumnKind.numeric()),
            Column("c", ColumnKind.categorical(("x", "y", "z"))),
        )
    )


def test_schema_json_round_trip(tmp_path):
    doc = {
        "columns": [
            {"name": "a", "kind": "numeric"},
            {"name": "c", "kind": "categorical", "levels": ["x", "y"]},
            {"name": "d", "kind": "categorical", "infer": True},
        ]
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    schema = load_schema(path)
    assert schema.names == ("a", "c", "d")
    assert schema.kind("a").is_numeric
    assert schema.kind("c").levels == ("x", "y")
    assert schema.kind("d").levels is None  # inferred at load time
    write_schema(schema, tmp_path / "back.json")
    assert load_schema(tmp_path / "back.json").names == schema.names
    # a key outside the grammar is an error naming it, not a note left unread
    doc["columns"][1]["note"] = "coded 0/1"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"schema\.json: unknown key 'note' in columns\[1\]$"):
        load_schema(path)


@pytest.mark.parametrize("levels", ["yes", ["yes", 1], {"yes": 1}])
def test_schema_levels_must_be_a_list_of_strings(levels):
    doc = {"columns": [{"name": "c", "kind": "categorical", "levels": levels}]}
    with pytest.raises(SchemaError, match="list of strings"):
        Schema.from_dict(doc)


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        Schema((Column("a", ColumnKind.numeric()), Column("a", ColumnKind.numeric())))


def test_load_csv_infers_levels_in_first_appearance_order(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,c\n1.5,zebra\n2.5,ant\n3.5,zebra\n")
    schema = Schema((Column("a", ColumnKind.numeric()), Column("c", ColumnKind.categorical())))
    ds = load_csv(path, schema)
    assert ds.schema.kind("c").levels == ("zebra", "ant")
    assert ds.column("c").tolist() == [0, 1, 0]


def test_load_csv_header_must_match_schema(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,x\n")
    with pytest.raises(DataError):
        load_csv(path, small_schema())
    # A repeated field is named, not reported as a mismatch with nothing unexpected or missing.
    path.write_text("a,c,a\n1,x,2\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: header repeats 'a'$"):
        load_csv(path, small_schema())


def test_load_csv_names_a_file_that_is_not_utf8(tmp_path):
    # The file decodes as it is read: a bad byte in the header, and one
    # thousands of rows later, after the first block has decoded.
    path = tmp_path / "d.csv"
    rows = b"1.0,x\n" * 5000
    for data in (b"\xff\xfea,c\n" + rows, b"a,c\n" + rows + b"2.0,\xff\n"):
        path.write_bytes(data)
        with pytest.raises(DataError, match="not UTF-8") as err:
            load_csv(path, small_schema())
        assert str(path) in str(err.value)


def test_load_csv_reports_row_and_column_on_bad_number(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,c\n1.0,x\noops,y\n")
    with pytest.raises(DataError) as err:
        load_csv(path, small_schema())
    assert "row 3" in str(err.value) and "'a'" in str(err.value)


def test_load_csv_undeclared_level_fails(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,c\n1.0,nope\n")
    with pytest.raises(DataError):
        load_csv(path, small_schema())


def test_missing_tokens_set_mask(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,c\n1.0,x\n,y\n2.0,NA\n")
    ds = load_csv(path, small_schema())
    assert ds.has_missing
    assert ds.missing[0].tolist() == [False, True, False]
    assert ds.missing[1].tolist() == [False, False, True]


def test_a_row_with_more_fields_than_the_header_is_an_error(tmp_path):
    # The extra field was dropped without a word. A short row keeps its
    # rule: the fields it lacks are missing cells.
    path = tmp_path / "d.csv"
    path.write_text("a,c\n1.0,x\n2.0,y,7\n3.0\n")
    with pytest.raises(DataError) as err:
        load_csv(path, small_schema())
    assert str(err.value) == f"{path}: row 3 has 3 fields, the header has 2"
    path.write_text("a,c\n1.0,x\n2.0,y\n3.0\n")
    assert load_csv(path, small_schema()).missing[1].tolist() == [False, False, True]


def test_blank_lines_are_skipped_unless_the_file_has_one_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,c\n1.0,x\n2.0,y\n\n3.0,x\n")
    ds = load_csv(path, small_schema())
    assert ds.column("a").tolist() == [1.0, 2.0, 3.0]
    assert not ds.has_missing
    # With one column a blank line is the record of an empty cell.
    path.write_text("a\n1.0\n\n3.0\n")
    ds = load_csv(path, Schema((Column("a", ColumnKind.numeric()),)))
    assert ds.missing[0].tolist() == [False, True, False]


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.normal(size=50)
    c = rng.integers(0, 3, 50)
    ds = Dataset(small_schema(), (a, c))
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    back = load_csv(path, small_schema())
    assert np.array_equal(back.column("a"), a)
    assert np.array_equal(back.column("c"), c)


# Levels that look like missing tokens or need CSV quoting, plus arbitrary text.
LEVEL = st.sampled_from(["NA", "", " ", "a,b", '"q"', "x\ny", "\r"]) | st.text(max_size=4)


@st.composite
def any_dataset(draw, with_missing=False):
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 8))
    columns = []
    arrays = []
    masks = []
    for name in names:
        mask = None
        if with_missing and draw(st.booleans()):
            mask = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        if draw(st.booleans()):
            columns.append(Column(name, ColumnKind.numeric()))
            values = draw(st.lists(st.floats(), min_size=n, max_size=n))
            arrays.append(np.asarray(values, dtype=np.float64))
        else:
            levels = draw(st.lists(LEVEL, min_size=1, max_size=4, unique=True))
            columns.append(Column(name, ColumnKind.categorical(levels)))
            codes = np.asarray(
                draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n)),
                dtype=np.int64,
            )
            if mask is not None and draw(st.booleans()):
                codes[mask] = -1  # the code a missing cell holds after loading
            arrays.append(codes)
        masks.append(mask)
    return Dataset(Schema(tuple(columns)), tuple(arrays), tuple(masks))


@settings(max_examples=200, deadline=None)
@given(ds=any_dataset())
def test_write_then_load_without_missing_tokens_is_the_identity(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        write_csv(ds, path)
        back = load_csv(path, ds.schema, missing_tokens=())
    assert back.schema == ds.schema
    assert not back.has_missing
    for a, b in zip(ds.columns, back.columns, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)
        # The text of a NaN keeps no sign bit; a zero's keeps its sign.
        numbers = ~np.isnan(a) if a.dtype == np.float64 else slice(None)
        assert np.array_equal(np.signbit(a[numbers]), np.signbit(b[numbers]))


# Numbers whose text is easy to get wrong, plus arbitrary floats.
NUMBER = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan, 0.1]
) | st.floats()


@settings(max_examples=200, deadline=None)
@example(shared=[0.0], table_only=[], written_only=[-0.0], data=None)
@example(shared=[5e-324, 1e300, -1e300, math.inf], table_only=[], written_only=[-5e-324], data=None)
@given(
    shared=st.lists(NUMBER, max_size=6),
    table_only=st.lists(NUMBER, max_size=6),
    written_only=st.lists(NUMBER, max_size=6),
    data=st.data(),
)
def test_write_csv_with_a_number_table_writes_what_repr_gives(
    shared, table_only, written_only, data
):
    """The table is built from another dataset that shares only some values;
    hits, misses, an empty table and masked cells all write repr's bytes."""
    table = Dataset(
        Schema((Column("t", ColumnKind.numeric()), Column("c", ColumnKind.categorical(("x",))))),
        (np.asarray(shared + table_only, dtype=np.float64), np.zeros(len(shared + table_only))),
    )
    known = NumberText.of(table)
    values = shared + written_only
    if data is None:  # an explicit example: write every value, masking none
        rows, masks = [values, values[::-1]], [None, None]
    else:
        n = data.draw(st.integers(0, 10))
        cell = st.sampled_from(values) if values else st.just(0.0)
        rows = [data.draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(2)]
        masks = [
            data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
            for _ in range(2)
        ]
    ds = Dataset(
        Schema((Column("a", ColumnKind.numeric()), Column("b", ColumnKind.numeric()))),
        tuple(np.asarray(r, dtype=np.float64) for r in rows),
        tuple(None if m is None else np.asarray(m, dtype=bool) for m in masks),
    )
    with tempfile.TemporaryDirectory() as tmp:
        plain, looked_up = Path(tmp) / "plain.csv", Path(tmp) / "known.csv"
        write_csv(ds, plain)
        write_csv(ds, looked_up, known=known)
        assert looked_up.read_bytes() == plain.read_bytes()


def test_replace_missing_fills_from_observed_values(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,c\n1.0,x\n,y\n4.0,NA\n1.0,x\n")
    ds = load_csv(path, small_schema())
    filled = replace_missing(ds, seed=0)
    assert not filled.has_missing
    assert filled.column("a")[1] in (1.0, 4.0)
    assert filled.column("c")[2] in (0, 1)
    # untouched cells keep their values
    assert filled.column("a")[0] == 1.0 and filled.column("a")[2] == 4.0
    again = replace_missing(ds, seed=0)
    assert np.array_equal(filled.column("a"), again.column("a"))
    assert np.array_equal(filled.column("c"), again.column("c"))


def test_replace_missing_without_missing_is_identity():
    ds = Dataset(small_schema(), (np.ones(4), np.zeros(4, dtype=np.int64)))
    assert replace_missing(ds, seed=1) is ds


def test_coarsen_levels_requires_exact_cover():
    ds = Dataset(small_schema(), (np.ones(3), np.asarray([0, 1, 2])))
    with pytest.raises(SchemaError):
        coarsen_levels(ds, LevelMapping("c", {"x": "g", "y": "g"}))  # z unmapped


def test_coarsen_levels_merges_and_reorders():
    ds = Dataset(small_schema(), (np.ones(4), np.asarray([2, 0, 1, 2])))
    out = coarsen_levels(ds, LevelMapping("c", {"x": "one", "y": "rest", "z": "rest"}))
    # coarse levels ordered by first appearance along the original level order
    assert out.schema.kind("c").levels == ("one", "rest")
    assert out.column("c").tolist() == [1, 0, 1, 1]


def test_head_and_drop():
    ds = Dataset(small_schema(), (np.arange(5.0), np.zeros(5, dtype=np.int64)))
    assert head_n(ds, 2).n_rows == 2
    assert head_n(ds, 2).column("a").tolist() == [0.0, 1.0]
    dropped = drop_column(ds, "c")
    assert dropped.schema.names == ("a",)
    with pytest.raises(SchemaError):
        drop_column(dropped, "a")  # cannot drop the last column
    with pytest.raises(DataError):
        head_n(ds, 9)


def test_dataset_validates_level_codes():
    with pytest.raises(DataError):
        Dataset(small_schema(), (np.ones(2), np.asarray([0, 7])))


def test_dataset_arrays_are_frozen():
    ds = Dataset(small_schema(), (np.ones(2), np.zeros(2, dtype=np.int64)))
    with pytest.raises(ValueError):
        ds.column("a")[0] = 9.0


def test_take_preserves_kinds():
    ds = Dataset(small_schema(), (np.arange(4.0), np.asarray([0, 1, 2, 0])))
    sub = ds.take(np.asarray([3, 1]))
    assert sub.column("a").tolist() == [3.0, 1.0]
    assert sub.column("c").tolist() == [0, 1]


def csv_writer_bytes(ds):
    """The file ``write_csv`` must produce, written one row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(ds.schema.names)
    for i in range(ds.n_rows):
        row = []
        for col, arr, mask in zip(ds.schema.columns, ds.columns, ds.missing):
            if mask is not None and mask[i]:
                row.append("")
            elif col.kind.is_numeric:
                row.append(repr(float(arr[i])))
            else:
                row.append(col.kind.levels[arr[i]])
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def one_column(kind, values, mask=None):
    return Dataset(Schema((Column("v", kind),)), (np.asarray(values),), (mask,))


@settings(max_examples=300, deadline=None)
@given(ds=any_dataset(with_missing=True))
@example(ds=one_column(ColumnKind.categorical(("\r", "a")), [0, 1, 0]))
@example(ds=one_column(ColumnKind.categorical(("x\ny", "")), [1, 0]))
@example(ds=one_column(ColumnKind.categorical(("",)), [0, 0]))
@example(ds=one_column(ColumnKind.numeric(), [1.5, np.nan, -0.0], np.asarray([False, True, False])))
@example(ds=one_column(ColumnKind.categorical(("z",)), [0, -1], np.asarray([False, True])))
@example(ds=Dataset(small_schema(), (np.empty(0), np.empty(0, dtype=np.int64))))
def test_write_csv_bytes_equal_a_row_by_row_csv_writer(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        write_csv(ds, path)
        assert path.read_bytes() == csv_writer_bytes(ds)


def load_cell_by_cell(path, schema, missing_tokens):
    """What ``load_csv`` must return for a file whose header matches
    ``schema``, computed one cell at a time: each column in schema order,
    each of its cells in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh) if row or len(schema) < 2]
    wide = next((i for i, row in enumerate(rows) if len(row) > len(header)), None)
    if wide is not None:
        raise DataError(
            f"{path}: row {wide + 2} has {len(rows[wide])} fields, the header has {len(header)}"
        )
    n = len(rows)
    out_cols, out_masks, out_schema = [], [], schema
    for col in schema.columns:
        j = header.index(col.name)
        cells = [row[j] if j < len(row) else None for row in rows]
        mask = np.zeros(n, dtype=bool)
        if col.kind.is_numeric:
            values = np.empty(n, dtype=np.float64)
            for i, cell in enumerate(cells):
                if cell is None or cell in missing_tokens:
                    mask[i] = True
                    values[i] = np.nan
                    continue
                try:
                    values[i] = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {i + 2}, column {col.name!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
        else:
            infer = col.kind.levels is None
            levels = [] if infer else list(col.kind.levels)
            lookup = {lvl: k for k, lvl in enumerate(levels)}
            values = np.empty(n, dtype=np.int64)
            for i, cell in enumerate(cells):
                if cell is None or cell in missing_tokens:
                    mask[i] = True
                    values[i] = -1
                    continue
                code = lookup.get(cell)
                if code is None:
                    if not infer:
                        raise DataError(
                            f"{path}: row {i + 2}, column {col.name!r}: "
                            f"label {cell!r} is not a declared level"
                        )
                    code = lookup[cell] = len(levels)
                    levels.append(cell)
                values[i] = code
            if infer:
                if not levels:
                    raise DataError(f"{path}: column {col.name!r} has no observed levels to infer")
                out_schema = out_schema.replace_kind(col.name, ColumnKind.categorical(levels))
        out_cols.append(values)
        out_masks.append(mask if mask.any() else None)
    return Dataset(out_schema, tuple(out_cols), tuple(out_masks))


NUMBER_TEXT = (
    st.sampled_from(["1", "-0.0", "2.5e3", " 7 ", "inf", "-nan", "1_0"]) | st.floats().map(repr)
)
LABEL = st.sampled_from(["x", "y", "z", "NA", "", " "])


@st.composite
def csv_file(draw):
    """A schema, the missing tokens and the records of a file to load against
    them, with the header in any order: numbers, missing tokens, short rows,
    declared and inferred levels, up to two cells that cannot load and at
    most one row that is too wide."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    tokens = draw(st.sampled_from([("", "NA"), (), ("NA", "?")]))
    columns, cell_texts = [], []
    for name in names:
        kind = draw(st.sampled_from(["numeric", "declared", "inferred"]))
        if kind == "numeric":
            columns.append(Column(name, ColumnKind.numeric()))
            cell_texts.append(NUMBER_TEXT | st.sampled_from(tokens or ("1",)))
        elif kind == "declared":
            levels = draw(st.lists(LABEL, min_size=1, max_size=3, unique=True))
            columns.append(Column(name, ColumnKind.categorical(levels)))
            cell_texts.append(st.sampled_from(levels + list(tokens)))
        else:
            columns.append(Column(name, ColumnKind.categorical()))
            cell_texts.append(LABEL | st.sampled_from(tokens or ("x",)))
    header = draw(st.permutations(names))
    text_of = dict(zip(names, cell_texts))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(text_of[name]) for name in header]
        if draw(st.integers(0, 3)) == 0:  # a short row
            row = row[: draw(st.integers(0, len(row) - 1))]
        rows.append(row)
    # Up to two cells that cannot load, both in one column, in any row order.
    j = draw(st.integers(0, len(header) - 1))
    holding = [row for row in rows if len(row) > j]
    for bad in ("oops", "bad")[: draw(st.integers(0, 2)) if holding else 0]:
        draw(st.sampled_from(holding))[j] = bad
    if rows and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))].append("1")
    return Schema(tuple(columns)), tokens, [header, *rows]


def load_outcome(load, path, schema, tokens):
    try:
        return load(path, schema, tokens)
    except DataError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(case=csv_file())
def test_load_csv_equals_a_cell_by_cell_load(case):
    schema, tokens, records = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(records)
        got = load_outcome(load_csv, path, schema, tokens)
        want = load_outcome(load_cell_by_cell, path, schema, tokens)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, Dataset), got
    assert got.schema == want.schema
    for a, b, ma, mb in zip(got.columns, want.columns, got.missing, want.missing, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))
        assert (ma is None and mb is None) or np.array_equal(ma, mb)
