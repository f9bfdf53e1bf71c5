"""Utility metrics: confidence-interval overlap, APO, and KL divergence.

The confidence-interval overlap of an original and a synthetic interval is

    max(0, 0.5 * (I / width_original + I / width_synthetic))

with I the length of the intersection, clamped to at most 1. Each term
divides by that interval's own width, so identical intervals score exactly 1
and disjoint ones 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import ColumnKind
from .errors import MetricError

KL_DIRECTIONS = ("pq", "qp", "sym")


def cio(
    original: tuple[float, float],
    synthetic: tuple[float, float],
    *,
    estimand_id: str = "",
) -> float:
    """The overlap of two (lower, upper) intervals; ``estimand_id`` names
    the estimand in the error raised for a bound that is not finite."""
    lo_o, up_o = original
    lo_s, up_s = synthetic
    if not all(map(math.isfinite, (lo_o, up_o, lo_s, up_s))):
        raise MetricError(f"estimand {estimand_id!r}: an interval bound is not finite")
    w_o = up_o - lo_o
    w_s = up_s - lo_s
    if w_o == 0.0 or w_s == 0.0:
        return 1.0 if (w_o == 0.0 and w_s == 0.0 and lo_o == lo_s) else 0.0
    inter = min(up_o, up_s) - max(lo_o, lo_s)
    return min(max(0.5 * (inter / w_o + inter / w_s), 0.0), 1.0)


def apo(
    overlaps: Sequence[float],
    threshold: float = 0.9,
    *,
    inclusive: bool = False,
) -> float:
    """Share of overlaps above the threshold (strictly above by default)."""
    if not overlaps:
        raise MetricError("apo needs at least one overlap")
    if not (0.0 <= threshold <= 1.0):
        raise MetricError(f"threshold must lie in [0, 1], got {threshold}")
    if inclusive:
        hits = sum(1 for v in overlaps if v >= threshold)
    else:
        hits = sum(1 for v in overlaps if v > threshold)
    return hits / len(overlaps)


def _distribution(counts: np.ndarray, smoothing: float) -> np.ndarray:
    total = counts.sum() + smoothing * counts.shape[0]
    return (counts + smoothing) / total


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    s = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        s += pi * math.log(pi / qi)
    # Gibbs: the divergence is non-negative; clear accumulated roundoff.
    return max(s, 0.0)


def kl_divergence(
    original: np.ndarray,
    synthetic: np.ndarray,
    kind: ColumnKind,
    *,
    bins: int = 20,
    smoothing: float = 0.5,
    direction: str = "pq",
) -> float:
    """KL divergence between a column's original and synthetic distribution.

    Categorical columns compare level frequencies over the declared level
    set. Numeric columns are discretised into ``bins`` equal-width bins
    spanning the pooled min..max of both samples; a pooled range wider than
    the largest float is a ``MetricError``. Each cell gets a Laplace
    pseudo-count of ``smoothing`` (0 disables smoothing, in which case a cell
    observed only in the original makes the divergence infinite).

    ``direction='pq'`` treats the original as P and the synthetic as Q;
    ``'qp'`` swaps them; ``'sym'`` averages both directions.
    """
    if direction not in KL_DIRECTIONS:
        raise MetricError(f"unknown direction {direction!r}")
    if smoothing < 0:
        raise MetricError("smoothing must be non-negative")
    original = np.asarray(original)
    synthetic = np.asarray(synthetic)
    if original.size == 0 or synthetic.size == 0:
        raise MetricError("both columns must be non-empty")

    if kind.is_categorical:
        k = kind.n_levels
        c_o = np.bincount(original.astype(np.int64), minlength=k).astype(np.float64)
        c_s = np.bincount(synthetic.astype(np.int64), minlength=k).astype(np.float64)
    else:
        if bins < 2:
            raise MetricError(f"need at least 2 bins, got {bins}")
        lo = float(min(original.min(), synthetic.min()))
        hi = float(max(original.max(), synthetic.max()))
        if not math.isfinite(hi - lo):
            raise MetricError(f"the pooled range {lo!r} to {hi!r} overflows")
        if lo == hi:
            c_o = np.asarray([float(original.size)])
            c_s = np.asarray([float(synthetic.size)])
        else:
            edges = np.linspace(lo, hi, bins + 1)
            c_o = np.histogram(original, bins=edges)[0].astype(np.float64)
            c_s = np.histogram(synthetic, bins=edges)[0].astype(np.float64)

    p = _distribution(c_o, smoothing)
    q = _distribution(c_s, smoothing)
    if direction == "pq":
        return _kl(p, q)
    if direction == "qp":
        return _kl(q, p)
    return 0.5 * (_kl(p, q) + _kl(q, p))


class ReportRow(NamedTuple):
    """One row of report.csv, whose columns are these fields in order."""

    label: str
    mode: str
    m: int
    k: int
    metric: str
    scope: str
    value: float


class SummaryRow(NamedTuple):
    """One row of summary.csv: a report value averaged over repetitions."""

    label: str
    mode: str
    m: int
    metric: str
    scope: str
    value: float


class ReportError(NamedTuple):
    """One row of errors.csv."""

    label: str
    mode: str
    m: int
    k: int
    stage: str
    message: str


@dataclass
class UtilityReport:
    """Long-format metric rows, unique by (label, mode, m, k, metric, scope),
    plus error rows for grid cells that failed."""

    rows: list[ReportRow] = field(default_factory=list)
    errors: list[ReportError] = field(default_factory=list)

    def add(self, label: str, mode: str, m: int, k: int, metric: str, scope: str, value: float) -> None:
        self.rows.append(ReportRow(label, mode, m, k, metric, scope, float(value)))

    def values(self, metric: str) -> dict[tuple, float]:
        """Each value of ``metric`` by (label, mode, m, k, scope)."""
        return {
            (r.label, r.mode, r.m, r.k, r.scope): r.value for r in self.rows if r.metric == metric
        }

    def summary(self) -> list[SummaryRow]:
        """Average each (label, mode, m, metric, scope) over its repetitions."""
        groups: dict[tuple, list[float]] = {}
        for r in self.rows:
            groups.setdefault((r.label, r.mode, r.m, r.metric, r.scope), []).append(r.value)
        return sorted(SummaryRow(*key, math.fsum(vals) / len(vals)) for key, vals in groups.items())
