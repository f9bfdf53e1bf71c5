"""Output checks on one grid run, and the per-cell comparison of two runs.

A cell is one (label, mode, m, rep). It fails when it has an ``errors.csv``
row, when its report row count differs from what the configuration implies,
when a CIO, APO, accuracy or proportion leaves [0, 1] or a KL value is
negative or not finite, or when its rows differ from another run of the same
seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import ADHOC, CLASSIFICATION_TARGET, COLUMNS, FITS, LEVELS, Workload

UNIT_INTERVAL = frozenset({
    "mpe_cio", "mpe_avg_cio", "mpe_apo",
    "rf_cio", "rf_fit_avg_cio", "rf_fit_apo", "rf_avg_cio", "rf_apo",
    "clf_acc_orig", "clf_acc_syn", "clf_acc_dev", "clf_agreement",
    "adhoc_orig", "adhoc_syn", "adhoc_dev",
})
DIVERGENCES = frozenset({"kl_raw", "kl_norm", "kl_norm_avg"})


def _n_coefficients(fit: dict) -> int:
    per_class = 1 + sum(len(LEVELS[p]) - 1 if p in LEVELS else 1 for p in fit["predictors"])
    if fit["family"] == "logistic":
        return (len(LEVELS[fit["target"]]) - 1) * per_class
    return per_class


def expected_rows(label: str) -> int:
    """Report rows one cell of ``label`` must have under the workload config."""
    n_numeric = sum(1 for c in COLUMNS if c not in LEVELS)
    rows = n_numeric + 2                                             # mpe_cio per var, avg, apo
    rows += sum(_n_coefficients(f) + 2 for f in FITS) + 2            # rf_* rows
    rows += len(COLUMNS)                                             # kl_raw
    if label != "S":
        rows += len(COLUMNS) + 1                                     # kl_norm, kl_norm_avg
    rows += 4 if CLASSIFICATION_TARGET else 0                        # clf_*
    rows += 3 * len(ADHOC)                                           # adhoc_*
    return rows


def expected_cells(workload: Workload) -> list[tuple[str, str, str, str]]:
    return [
        (label, "simple", str(m), str(rep))
        for label in workload.labels
        for m in workload.m
        for rep in range(workload.k)
    ]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cell_rows(out: Path) -> dict[tuple, list[tuple[str, str, str]]]:
    cells: dict[tuple, list] = {}
    for r in _read(out / "report.csv"):
        cells.setdefault((r["label"], r["mode"], r["m"], r["k"]), []).append(
            (r["metric"], r["scope"], r["value"])
        )
    return cells


def check_run(out: Path, workload: Workload) -> dict[tuple, str]:
    """Failed cells of one run, each with the first reason found."""
    failed: dict[tuple, str] = {}
    cells = cell_rows(out)
    expected = expected_cells(workload)
    for key in set(cells) - set(expected):
        failed[key] = "cell is not in the configured grid"
    if (out / "errors.csv").exists():
        for r in _read(out / "errors.csv"):
            key = (r["label"], r["mode"], r["m"], r["k"])
            failed.setdefault(key, f"errors.csv: {r['stage']}: {r['message']}")
    for key in expected:
        rows = cells.get(key, [])
        if len(rows) != expected_rows(key[0]):
            failed.setdefault(key, f"{len(rows)} report rows, expected {expected_rows(key[0])}")
            continue
        for metric, scope, text in rows:
            v = float(text)
            if metric in UNIT_INTERVAL:
                ok = 0.0 <= v <= 1.0
            elif metric in DIVERGENCES:
                ok = math.isfinite(v) and v >= 0.0
            else:
                ok = False
            if not ok:
                failed.setdefault(key, f"{metric} {scope} = {text} out of range")
                break
    return failed


def compare_runs(a: Path, b: Path) -> dict[tuple, str]:
    """Cells whose report rows, or whose (label, mode, m) summary rows,
    differ between two runs of the same seed."""
    failed: dict[tuple, str] = {}
    rows_a, rows_b = cell_rows(a), cell_rows(b)
    for key in set(rows_a) | set(rows_b):
        if rows_a.get(key) != rows_b.get(key):
            failed[key] = f"report rows differ between {a.name} and {b.name}"
    if not failed and sha256(a / "report.csv") != sha256(b / "report.csv"):
        for key in set(rows_a) | set(rows_b):
            failed[key] = f"report.csv bytes differ between {a.name} and {b.name}"
    if sha256(a / "summary.csv") != sha256(b / "summary.csv"):
        summ_a = {}
        summ_b = {}
        for src, dst in ((a, summ_a), (b, summ_b)):
            for r in _read(src / "summary.csv"):
                dst.setdefault((r["label"], r["mode"], r["m"]), []).append(
                    (r["metric"], r["scope"], r["value"])
                )
        bad = {g for g in set(summ_a) | set(summ_b) if summ_a.get(g) != summ_b.get(g)}
        # A summary difference that no single group explains (such as a
        # reordering) still has to fail something: blame every cell.
        for key in set(rows_a) | set(rows_b):
            if key[:3] in bad or not bad:
                failed.setdefault(key, f"summary rows differ between {a.name} and {b.name}")
    return failed
