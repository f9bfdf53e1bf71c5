"""Typed columnar datasets: schemas, CSV ingestion, and preprocessing.

A :class:`Dataset` stores one numpy array per column. Numeric columns are
``float64``; categorical columns are ``int64`` codes into an ordered level
set carried by the schema. Cells that were missing in the source file are
tracked in per-column boolean masks until :func:`replace_missing` fills
them, so downstream model fitting always sees complete data.

Every JSON input document of the package (config, schema, fit
specifications, ad-hoc analyses, synthetic-set manifest) is read by
:func:`read_json` and its fields checked with :class:`JsonFields`.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaError, SynthbenchError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Code stored in a categorical column while the cell is flagged missing.
_MISSING_CODE = -1

DEFAULT_MISSING_TOKENS = ("", "NA")


@dataclass(frozen=True)
class ColumnKind:
    """Column type tag. Categorical columns carry an ordered level set.

    ``levels=None`` on a categorical column means "infer the levels from the
    data at load time"; datasets themselves only ever carry concrete levels.
    """

    tag: str
    levels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.tag not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown column kind {self.tag!r}")
        if self.tag == NUMERIC and self.levels is not None:
            raise SchemaError("numeric columns do not carry levels")
        if self.tag == CATEGORICAL and self.levels is not None:
            if not self.levels:
                raise SchemaError("categorical level set must be non-empty")
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError("categorical levels contain duplicates")

    @staticmethod
    def numeric() -> ColumnKind:
        return ColumnKind(NUMERIC)

    @staticmethod
    def categorical(levels=None) -> ColumnKind:
        return ColumnKind(CATEGORICAL, None if levels is None else tuple(levels))

    @property
    def is_categorical(self) -> bool:
        return self.tag == CATEGORICAL

    @property
    def is_numeric(self) -> bool:
        return self.tag == NUMERIC

    @property
    def n_levels(self) -> int:
        if self.levels is None:
            raise SchemaError("level set not yet inferred")
        return len(self.levels)


@dataclass(frozen=True)
class Column:
    name: str
    kind: ColumnKind


@dataclass(frozen=True)
class Schema:
    """Ordered column list with unique, non-empty names."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("schema must declare at least one column")
        names = [c.name for c in self.columns]
        if any(not n for n in names):
            raise SchemaError("column names must be non-empty")
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"unknown column {name!r}")

    def kind(self, name: str) -> ColumnKind:
        return self.columns[self.index(name)].kind

    def __len__(self) -> int:
        return len(self.columns)

    def replace_kind(self, name: str, kind: ColumnKind) -> Schema:
        i = self.index(name)
        cols = list(self.columns)
        cols[i] = Column(name, kind)
        return Schema(tuple(cols))

    @staticmethod
    def from_dict(doc) -> Schema:
        """The schema of a JSON document (grammar documented in the README)."""
        check = JsonFields(SchemaError)
        doc = check.object(doc, "the schema", ("columns",))
        cols = []
        for where, entry in check.objects(
            doc["columns"], "columns", ("name", "kind"), ("levels", "infer")
        ):
            name = check.typed(entry["name"], str, f"{where}.name")
            tag = check.typed(entry["kind"], str, f"{where}.kind")
            infer = check.typed(entry.get("infer", False), bool, f"{where}.infer")
            if tag != CATEGORICAL or infer:
                levels = None
            elif "levels" in entry:
                levels = check.strings(entry["levels"], f"{where}.levels")
            else:
                raise SchemaError(f"categorical column {name!r} needs 'levels' or 'infer': true")
            cols.append(Column(name, ColumnKind(tag, levels)))
        return Schema(tuple(cols))


def load_schema(path: str | Path) -> Schema:
    """Read a schema from a JSON document (grammar documented in the README)."""
    return read_json(path, "schema", SchemaError, Schema.from_dict)


_JSON_TYPES = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string",
    list: "a list", dict: "an object",
}


def read_json(path: str | Path, what: str, error: type[SynthbenchError], parse):
    """``parse`` of the JSON document in the UTF-8 file at ``path``, less a
    leading byte-order mark. A file that cannot be read, decoded or parsed,
    and any synthbench error that ``parse`` raises, is an ``error`` naming
    the ``what`` file and its path."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise error(f"cannot read {what} file {path}: {err.strerror}") from err
    try:
        doc = json.loads(data.decode("utf-8-sig"))
    except UnicodeDecodeError as err:
        raise error(f"{what} file {path}: not UTF-8 text ({err.reason})") from None
    except json.JSONDecodeError as err:
        raise error(f"{what} file {path}: not valid JSON ({err})") from None
    try:
        return parse(doc)
    except SynthbenchError as err:
        raise error(f"{what} file {path}: {err}") from None


@dataclass(frozen=True)
class JsonFields:
    """The checks on the fields of a JSON input document. A field that
    fails one is an ``error`` naming its key, ``where``."""

    error: type[SynthbenchError]

    def typed(self, value, kind: type, where: str):
        """``value`` as ``kind`` when it has that JSON type, where any number
        serves as a float; true and false are no numbers."""
        if not isinstance(value, (int, float) if kind is float else kind) or (
            kind is not bool and isinstance(value, bool)
        ):
            raise self.error(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")
        return kind(value)

    def strings(self, value, where: str) -> tuple[str, ...]:
        """``value``, a JSON list of strings, as a tuple. A lone string is an
        error: it would split into its characters."""
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise self.error(f"{where} must be a list of strings, got {value!r}")
        return tuple(value)

    def string_map(self, value, where: str) -> dict[str, str]:
        """``value``, a JSON object whose values are strings, as a dict."""
        if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
            raise self.error(f"{where} must be an object of strings, got {value!r}")
        return dict(value)

    def object(self, value, where: str, required=(), optional=()) -> dict:
        """``value``, a JSON object that has every key in ``required`` and no
        key outside ``required`` and ``optional``, as a dict: a misspelt key
        is an error, not a setting silently left at its default."""
        value = self.typed(value, dict, where)
        for key in value:
            if key not in required and key not in optional:
                raise self.error(f"unknown key {key!r} in {where}")
        for key in required:
            if key not in value:
                raise self.error(f"{where} lacks the key {key!r}")
        return value

    def objects(self, value, where: str, required=(), optional=()) -> list[tuple[str, dict]]:
        """``value``, a JSON list of objects each checked as ``object``
        checks one, as a list of (where, object) pairs."""
        return [
            (f"{where}[{i}]", self.object(v, f"{where}[{i}]", required, optional))
            for i, v in enumerate(self.typed(value, list, where))
        ]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset aligned with its schema.

    ``missing[i]`` is a boolean mask over rows for column i, or None when the
    column has no missing cells. Arrays are marked read-only; operations
    return new datasets.
    """

    schema: Schema
    columns: tuple[np.ndarray, ...]
    missing: tuple[np.ndarray | None, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.missing is None:
            object.__setattr__(self, "missing", tuple(None for _ in self.columns))
        if len(self.columns) != len(self.schema):
            raise DataError("column arrays do not match schema")
        if len(self.missing) != len(self.columns):
            raise DataError("missing masks do not match schema")
        n = self.columns[0].shape[0] if self.columns else 0
        cols = []
        masks = []
        for col, arr, mask in zip(self.schema.columns, self.columns, self.missing):
            if arr.ndim != 1 or arr.shape[0] != n:
                raise DataError(f"column {col.name!r} has wrong shape")
            if col.kind.is_numeric:
                arr = np.ascontiguousarray(arr, dtype=np.float64)
            else:
                if col.kind.levels is None:
                    raise SchemaError(f"column {col.name!r} has no concrete level set")
                arr = np.ascontiguousarray(arr, dtype=np.int64)
                ok = (arr >= 0) & (arr < col.kind.n_levels)
                if mask is not None:
                    ok |= mask
                if not bool(ok.all()):
                    raise DataError(f"column {col.name!r} holds out-of-range level codes")
            if mask is not None:
                mask = np.ascontiguousarray(mask, dtype=bool)
                if mask.shape != (n,):
                    raise DataError(f"missing mask for {col.name!r} has wrong shape")
                if not mask.any():
                    mask = None
                else:
                    mask = _freeze(mask.copy())
            cols.append(_freeze(arr.copy() if arr.flags.writeable else arr))
            masks.append(mask)
        object.__setattr__(self, "columns", tuple(cols))
        object.__setattr__(self, "missing", tuple(masks))

    @property
    def n_rows(self) -> int:
        return int(self.columns[0].shape[0])

    @property
    def has_missing(self) -> bool:
        return any(m is not None for m in self.missing)

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.schema.index(name)]

    def take(self, rows: np.ndarray) -> Dataset:
        """Row subset/resample by index array; masks follow along."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = tuple(arr[rows] for arr in self.columns)
        masks = tuple(None if m is None else m[rows] for m in self.missing)
        return Dataset(self.schema, cols, masks)


def load_csv(
    path: str | Path,
    schema: Schema,
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS,
) -> Dataset:
    """Parse an RFC-4180 CSV with a header row against ``schema``.

    The file is UTF-8, and a byte-order mark at its start, as spreadsheets
    write, is ignored. The header must contain exactly the schema's column
    names (any order), each once. Blank lines are skipped when there are two
    or more columns; in a one-column file a blank line is an empty cell.
    Cells equal to a missing token, and fields a short row lacks, are
    flagged missing; a row with more fields than the header is an error.
    Categorical columns marked "infer" get their level set from the data in
    first-appearance order, which the dataset's schema records. A cell that
    is not a number or not a declared level is an error naming the first
    such cell in file order, the columns checked in schema order.
    """
    # None stands for a field that a short row lacks.
    missing_set = {None, *missing_tokens}
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise DataError(f"cannot read data file {path}: {err.strerror}") from err
    # The file decodes as it is read, so a byte that is not UTF-8 raises
    # while the header or the rows are read.
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            # csv yields [] for a blank line. No record of a file with two or
            # more columns is blank; in a one-column file it is an empty cell.
            rows = [row for row in reader if row or len(schema.names) < 2]
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not UTF-8 text ({err.reason})") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    repeated = sorted(name for name, count in Counter(header).items() if count > 1)
    if repeated:
        raise DataError(f"{path}: header repeats {', '.join(map(repr, repeated))}")
    if set(header) != set(schema.names):
        extra = sorted(set(header) - set(schema.names))
        absent = sorted(set(schema.names) - set(header))
        raise DataError(f"{path}: header mismatch (unexpected {extra}, missing {absent})")
    p = len(header)
    widths = set(map(len, rows))
    if widths and max(widths) > p:
        wide = next(i for i, row in enumerate(rows) if len(row) > p)
        raise DataError(f"{path}: row {wide + 2} has {len(rows[wide])} fields, the header has {p}")
    if widths - {p}:
        rows = [row + [None] * (p - len(row)) for row in rows]
    fields = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())

    n = len(rows)
    out_cols: list[np.ndarray] = []
    out_masks: list[np.ndarray | None] = []
    out_schema = schema
    for col in schema.columns:
        cells = fields[col.name]
        mask = np.fromiter(map(missing_set.__contains__, cells), bool, n)
        observed = ~mask
        present = list(compress(cells, observed.tolist()))
        if col.kind.is_numeric:
            parse, values, problem = float, np.full(n, np.nan), "cannot parse {!r} as a number"
        else:
            # Inferred levels take every label in order of first appearance;
            # a label outside declared levels is an error.
            levels = col.kind.levels or tuple(dict.fromkeys(present))
            if not levels:
                raise DataError(f"{path}: column {col.name!r} has no observed levels to infer")
            out_schema = out_schema.replace_kind(col.name, ColumnKind.categorical(levels))
            parse = {lvl: k for k, lvl in enumerate(levels)}.__getitem__
            values = np.full(n, _MISSING_CODE, dtype=np.int64)
            problem = "label {!r} is not a declared level"
        try:
            values[observed] = np.fromiter(map(parse, present), values.dtype, len(present))
        except (ValueError, KeyError):
            # One scan finds the first cell that fails, in file order.
            for i, cell in zip(np.flatnonzero(observed).tolist(), present):
                try:
                    parse(cell)
                except (ValueError, KeyError):
                    raise DataError(
                        f"{path}: row {i + 2}, column {col.name!r}: {problem.format(cell)}"
                    ) from None
        out_cols.append(values)
        out_masks.append(mask if mask.any() else None)

    return Dataset(out_schema, tuple(out_cols), tuple(out_masks))


def _csv_fields(texts) -> list[str]:
    """Each text as ``csv.writer`` writes it as one field of a row with two or
    more fields. The writer keeps its default CRLF terminator, which
    is stripped again: that terminator is what makes it quote CR and LF."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        writer.writerow([text])
        # A row whose only field is empty comes out as '""'.
        out.append(buf.getvalue()[:-2] if text else "")
    return out


@dataclass(frozen=True)
class NumberText:
    """The shortest round-trip text (``repr``) of a set of numbers, looked up
    by bit pattern, so ``-0.0`` and ``0.0`` each keep their own text.

    Synthesizers that copy values of the original (resampling, leaf and PMM
    donors, bootstrap rows) write the same numbers again in every dataset;
    with this table each distinct number is formatted once per run."""

    bits: np.ndarray  # sorted distinct float64 bit patterns, as int64
    texts: np.ndarray  # object array: repr of the value at each bit pattern

    @staticmethod
    def of(ds: Dataset) -> NumberText:
        """The table of every value in the numeric columns of ``ds``."""
        values = [arr for col, arr in zip(ds.schema.columns, ds.columns) if col.kind.is_numeric]
        bits = np.unique(np.concatenate(values or [np.empty(0)]).view(np.int64))
        texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        return NumberText(_freeze(bits), _freeze(texts))

    def format(self, arr: np.ndarray) -> list[str]:
        """``repr`` of each float64 in ``arr``: the stored text where the
        table holds its bit pattern, a fresh ``repr`` elsewhere."""
        if not self.bits.size:
            return list(map(repr, arr.tolist()))
        bits = arr.view(np.int64)
        # Sorted keys search faster; the places go back to row order.
        order = np.argsort(bits)
        pos = np.empty_like(order)
        pos[order] = np.minimum(np.searchsorted(self.bits, bits[order]), self.bits.size - 1)
        cells = self.texts[pos].tolist()
        missed = np.flatnonzero(self.bits[pos] != bits)
        for i, value in zip(missed.tolist(), arr[missed].tolist()):
            cells[i] = repr(value)
        return cells


def write_csv(ds: Dataset, path: str | Path, *, known: NumberText | None = None) -> None:
    """Write the dataset as UTF-8 CSV. Numeric cells use shortest round-trip
    text; categorical cells are written as their level labels. Missing cells
    come out as the empty string, so only a dataset without them reads back
    exactly (with ``missing_tokens=()``).

    The bytes are those of ``csv.writer`` with its default dialect, one row at
    a time: a level is quoted only when it holds a comma, a quote, CR or LF,
    and an empty cell of a one-column file is written ``""``. Cells are
    formatted a column at a time. A number found in ``known`` takes its
    stored text, which is the same text."""
    formatted: list[list[str]] = []
    for col, arr, mask in zip(ds.schema.columns, ds.columns, ds.missing):
        if col.kind.is_numeric:
            cells = list(map(repr, arr.tolist())) if known is None else known.format(arr)
        else:
            # Code -1 (a missing cell) indexes the trailing "".
            labels = np.asarray(_csv_fields(col.kind.levels) + [""], dtype=object)
            cells = labels[arr].tolist()
        if mask is not None:
            cells = ["" if m else c for c, m in zip(cells, mask.tolist())]
        formatted.append(cells)
    if len(formatted) == 1:
        # Written bare, an empty cell would be a blank line.
        formatted[0] = [c or '""' for c in formatted[0]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(ds.schema.names)
        if ds.n_rows:
            fh.write("\r\n".join(map(",".join, zip(*formatted))) + "\r\n")


def replace_missing(ds: Dataset, seed: int) -> Dataset:
    """Fill every missing cell with a uniform draw from the column's observed
    values. Deterministic given ``seed``; columns are visited in schema order.
    """
    if not ds.has_missing:
        return ds
    rng = np.random.default_rng(seed)
    cols = list(ds.columns)
    masks: list[np.ndarray | None] = list(ds.missing)
    for i, (col, arr, mask) in enumerate(zip(ds.schema.columns, ds.columns, ds.missing)):
        if mask is None:
            continue
        donors = arr[~mask]
        if donors.size == 0:
            raise DataError(f"column {col.name!r} has no observed values to sample from")
        filled = arr.copy()
        picks = rng.integers(0, donors.size, size=int(mask.sum()))
        filled[mask] = donors[picks]
        cols[i] = filled
        masks[i] = None
    return Dataset(ds.schema, tuple(cols), tuple(masks))


@dataclass(frozen=True)
class LevelMapping:
    """Coarsening map for one categorical column: original label -> coarse label."""

    column: str
    mapping: dict[str, str]

    def __post_init__(self) -> None:
        if not self.mapping:
            raise SchemaError("level mapping must be non-empty")


def coarsen_levels(ds: Dataset, mapping: LevelMapping) -> Dataset:
    """Merge categorical levels according to ``mapping``.

    The map must cover every current level exactly once and mention no
    unknown labels. Coarse labels become the new level set, ordered by first
    appearance along the original level order.
    """
    i = ds.schema.index(mapping.column)
    kind = ds.schema.columns[i].kind
    if not kind.is_categorical:
        raise SchemaError(f"column {mapping.column!r} is not categorical")
    levels = kind.levels
    assert levels is not None
    unknown = sorted(set(mapping.mapping) - set(levels))
    if unknown:
        raise SchemaError(f"mapping mentions unknown levels {unknown}")
    uncovered = sorted(set(levels) - set(mapping.mapping))
    if uncovered:
        raise SchemaError(f"mapping leaves levels uncovered: {uncovered}")

    coarse_levels: list[str] = []
    coarse_index: dict[str, int] = {}
    code_map = np.empty(len(levels), dtype=np.int64)
    for k, lvl in enumerate(levels):
        target = mapping.mapping[lvl]
        if target not in coarse_index:
            coarse_index[target] = len(coarse_levels)
            coarse_levels.append(target)
        code_map[k] = coarse_index[target]

    arr = ds.columns[i]
    mask = ds.missing[i]
    new_codes = arr.copy()
    observed = ~mask if mask is not None else slice(None)
    new_codes[observed] = code_map[arr[observed]]

    schema = ds.schema.replace_kind(mapping.column, ColumnKind.categorical(coarse_levels))
    cols = list(ds.columns)
    cols[i] = new_codes
    return Dataset(schema, tuple(cols), ds.missing)


def head_n(ds: Dataset, n: int) -> Dataset:
    """First ``n`` rows in order."""
    if n < 0 or n > ds.n_rows:
        raise DataError(f"cannot take {n} rows from a dataset of {ds.n_rows}")
    return ds.take(np.arange(n, dtype=np.int64))


def drop_column(ds: Dataset, name: str) -> Dataset:
    """Remove one column; at least one column must remain."""
    i = ds.schema.index(name)
    if len(ds.schema) == 1:
        raise SchemaError("cannot drop the last remaining column")
    cols = tuple(arr for k, arr in enumerate(ds.columns) if k != i)
    masks = tuple(m for k, m in enumerate(ds.missing) if k != i)
    schema = Schema(tuple(c for k, c in enumerate(ds.schema.columns) if k != i))
    return Dataset(schema, cols, masks)
