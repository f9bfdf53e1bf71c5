"""Results files and plot tables: write and read report.csv, summary.csv,
errors.csv and timings.csv, and build the plot-ready tables from a report.

Every file is UTF-8 CSV, replaced whole, and its columns are its row type's
fields.
"""

from __future__ import annotations

import csv
import io
import math
import os
from functools import partial
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .analysis import pearson
from .errors import ConfigError, DataError, MetricError
from .metrics import ReportError, ReportRow, SummaryRow, UtilityReport


class TimingRow(NamedTuple):
    """One row of timings.csv: the seconds one dataset of a cell took to
    fit, draw and write; a non-proper dataset's leave out its fits, which
    the run shares and makes first (README *Shared fits*)."""

    label: str
    mode: str
    m: int
    rep: int
    dataset: int
    seconds: float


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with UTF-8 ``text`` in one step, so an interrupted
    run leaves either the old file or the new one, never a truncated file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


def _write_table(path: Path, header, rows) -> None:
    """Replace one UTF-8 CSV file whole: the header row, then ``rows``, each
    float as its repr. A results file's header is its row type's
    ``_fields``."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    _write_atomic(path, buf.getvalue())


def write_report(report: UtilityReport, out: Path) -> None:
    """Write report.csv, summary.csv and, when ``report`` holds errors,
    errors.csv under ``out``, each in sorted row order. Without errors, an
    errors.csv from an earlier run is removed."""
    _write_table(out / "report.csv", ReportRow._fields, sorted(report.rows))
    _write_table(out / "summary.csv", SummaryRow._fields, report.summary())
    if report.errors:
        _write_table(out / "errors.csv", ReportError._fields, sorted(report.errors))
    else:
        (out / "errors.csv").unlink(missing_ok=True)


def read_report(out: Path) -> UtilityReport:
    """Rebuild a UtilityReport from report.csv (+ errors.csv) in ``out``."""
    report_path = out / "report.csv"
    if not report_path.exists():
        raise ConfigError(f"{report_path} does not exist; run an experiment first")
    err_path = out / "errors.csv"
    return UtilityReport(
        list(_table_rows(report_path, ReportRow)),
        list(_table_rows(err_path, ReportError)) if err_path.exists() else [],
    )


def read_timings(out: Path) -> list[TimingRow]:
    """The rows of timings.csv in ``out``, in file order; none when the file
    is absent."""
    path = out / "timings.csv"
    return list(_table_rows(path, TimingRow)) if path.exists() else []


def _table_rows(path: Path, row_type):
    """Each row of the results file at ``path`` as a ``row_type``, each field
    parsed by its annotated type (str, int or float). A row that lacks a
    field, holds a number that does not parse or has more fields than the
    header is a ``DataError`` naming the file and the row; so is a file
    that does not decode. A byte-order mark at the start is ignored."""
    fields = get_type_hints(row_type)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.DictReader(fh))
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not {err.encoding} text ({err.reason})") from None
    for i, row in enumerate(rows, start=2):
        if None in row:
            raise DataError(f"{path}: row {i} has more fields than the header")
        values = []
        for name, kind in fields.items():
            text = row.get(name)
            if text is None:
                raise DataError(f"{path}: row {i} lacks the field {name!r}")
            try:
                values.append(kind(text))
            except ValueError:
                number = "an integer" if kind is int else "a number"
                raise DataError(
                    f"{path}: row {i}, field {name!r}: cannot parse {text!r} as {number}"
                ) from None
        yield row_type(*values)


# A table builder takes the summary values ``{metric: {(label, mode, m,
# scope): value}}`` and the timing rows. It returns its table's files,
# ``{file stem: (header, rows)}``, or what the table needs and lacks. A file
# it maps to None has no rows this time, and an old copy is removed.
# ``_TABLE_FILES`` lists the stems of a table that writes more than its own.


def _mpe_apo_table(by_metric, timings):
    if "mpe_apo" not in by_metric:
        return "metric 'mpe_apo' in the report"
    avg = by_metric.get("mpe_avg_cio", {})
    rows = []
    for (label, mode, m, _), v in sorted(by_metric["mpe_apo"].items()):
        a = avg.get((label, mode, m, ""))
        rows.append([label, mode, m, v, "" if a is None else a])
    return {"mpe_apo": (["label", "mode", "m", "mpe_apo", "mpe_avg_cio"], rows)}


def _series_by_m_table(table: str, metric: str, by_metric, timings):
    """A ``series, m, value`` table of ``metric``; a series is a label, with
    its predictor mode appended unless that is simple."""
    if metric not in by_metric:
        return f"metric {metric!r} in the report"
    rows = [
        [label if mode == "simple" else f"{label}/{mode}", m, v]
        for (label, mode, m, _), v in sorted(by_metric[metric].items())
    ]
    return {table: (["series", "m", "value"], rows)}


def _kl_norm_table(by_metric, timings):
    if "kl_norm" not in by_metric:
        return "metric 'kl_norm' in the report"
    rows = [
        [label, mode, m, scope.removeprefix("var:"), v]
        for (label, mode, m, scope), v in sorted(by_metric["kl_norm"].items())
    ]
    rows += [
        [label, mode, m, "all", v]
        for (label, mode, m, _), v in sorted(by_metric.get("kl_norm_avg", {}).items())
    ]
    return {"kl_norm": (["label", "mode", "m", "variable", "value"], rows)}


def _mode_compare_table(by_metric, timings):
    """Per label and m: rf_apo in each predictor mode, and how many fits each
    mode wins on rf_fit_apo (a tie gives each half a win)."""
    apo_ = by_metric.get("rf_apo", {})
    fit_apo = by_metric.get("rf_fit_apo")
    if fit_apo is None or not {"simple", "selective"} <= {mode for _, mode, _, _ in apo_}:
        return "both predictor modes in the report"
    rows = []
    for label, m in sorted({(label, m) for label, mode, m, _ in apo_ if mode == "simple"}):
        if (label, "selective", m, "") not in apo_:
            continue
        shares = []  # the simple mode's share of each fit's win
        for (lbl, mode, mm, scope), simp in fit_apo.items():
            if (lbl, mode, mm) != (label, "simple", m):
                continue
            sel = fit_apo.get((label, "selective", m, scope))
            if sel is not None:
                shares.append(1.0 if simp > sel else 0.0 if sel > simp else 0.5)
        wins = math.fsum(shares)
        rows.append([
            label, m, apo_[(label, "simple", m, "")], apo_[(label, "selective", m, "")],
            wins, len(shares) - wins, len(shares),
        ])
    header = [
        "label", "m", "apo_simple", "apo_selective",
        "fit_wins_simple", "fit_wins_selective", "n_fits",
    ]
    return {"mode_compare": (header, rows)}


def _apo_vs_time_table(by_metric, timings):
    if not timings or "rf_apo" not in by_metric:
        return "timing records and rf_apo values"
    apo_ = by_metric["rf_apo"]
    totals: dict[tuple, list[float]] = {}
    for t in timings:
        totals.setdefault((t.label, t.mode, t.m), []).append(t.seconds)
    rows = [
        [label, mode, m, math.fsum(secs) / len(secs), apo_[(label, mode, m, "")]]
        for (label, mode, m), secs in sorted(totals.items())
        if (label, mode, m, "") in apo_
    ]
    return {"apo_vs_time": (["label", "mode", "m", "seconds_per_dataset", "apo"], rows)}


def _correlations_table(by_metric, timings):
    """Pearson r between every two series that share at least three
    (label, mode, m) cells, on the cells they share, and the pairs skipped
    because a series is constant on those cells."""
    series: dict[str, dict[tuple, float]] = {}
    for metric in ("rf_avg_cio", "rf_apo", "kl_norm_avg", "clf_acc_dev", "mpe_apo"):
        if metric in by_metric:
            series[metric] = {
                (label, mode, m): v
                for (label, mode, m, scope), v in by_metric[metric].items()
                if scope == ""
            }
    for (label, mode, m, scope), v in by_metric.get("adhoc_dev", {}).items():
        series.setdefault(f"adhoc_dev:{scope.removeprefix('pred:')}", {})[(label, mode, m)] = v
    names = sorted(series)
    rows, skipped = [], []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            keys = sorted(series[a].keys() & series[b].keys())
            if len(keys) < 3:
                continue
            xs = [series[a][k] for k in keys]
            ys = [series[b][k] for k in keys]
            constant = [name for name, vs in ((a, xs), (b, ys)) if max(vs) == min(vs)]
            if constant:
                skipped.append([a, b, f"series {constant[0]!r} is constant"])
            else:
                rows.append([a, b, pearson(xs, ys), len(keys)])
    if not rows and not skipped:
        return "at least two alignable series"
    return {
        "correlations": (["series_x", "series_y", "r", "n"], rows),
        "correlations_skipped": (["series_x", "series_y", "reason"], skipped) if skipped else None,
    }


_TABLE_BUILDERS = {
    "mpe_apo": _mpe_apo_table,
    "cio_vs_m": partial(_series_by_m_table, "cio_vs_m", "rf_avg_cio"),
    "apo_vs_m": partial(_series_by_m_table, "apo_vs_m", "rf_apo"),
    "kl_norm": _kl_norm_table,
    "mode_compare": _mode_compare_table,
    "apo_vs_time": _apo_vs_time_table,
    "correlations": _correlations_table,
}
TABLES = tuple(_TABLE_BUILDERS)
_TABLE_FILES = {"correlations": ("correlations", "correlations_skipped")}


def emit_tables(
    report: UtilityReport,
    out: Path,
    timings: list[TimingRow] | None = None,
    requested: tuple[str, ...] | None = None,
) -> dict[str, Path]:
    """Write the plot-ready tables under ``out``/tables.

    With ``requested=None`` every table whose inputs are present is emitted,
    and every other one removes its files of an earlier run, which would
    outlive the report they came from; explicitly requesting a table whose
    inputs are missing is an error that touches no file. Returns the path
    of each table written, by table name.
    """
    want = TABLES if requested is None else tuple(requested)
    for t in want:
        if t not in TABLES:
            raise ConfigError(f"unknown table {t!r}")
    by_metric: dict[str, dict[tuple, float]] = {}
    for r in report.summary():
        by_metric.setdefault(r.metric, {})[(r.label, r.mode, r.m, r.scope)] = r.value
    built = {table: _TABLE_BUILDERS[table](by_metric, timings) for table in TABLES if table in want}
    for table, files in built.items():
        if isinstance(files, str) and requested is not None:
            raise MetricError(f"table {table!r} needs {files}")

    tables_dir = out / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for table, files in built.items():
        if isinstance(files, str):
            files = dict.fromkeys(_TABLE_FILES.get(table, (table,)))
        else:
            written[table] = tables_dir / f"{table}.csv"
        for stem, table_file in files.items():
            path = tables_dir / f"{stem}.csv"
            if table_file is None:
                path.unlink(missing_ok=True)
            else:
                _write_table(path, *table_file)
    return written
