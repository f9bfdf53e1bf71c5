"""The depth-first CART fit as it stood before the presorted, batched split
search: every node argsorts each numeric predictor and scores one predictor
at a time. Kept as the reference that ``test_cart.py`` compares the
package's trees against, digest for digest. Its later changes are the
package's rules that a node whose sum of squared deviations is not finite,
or a candidate split whose gain is nan or +inf, fails the fit.

Its last step, ``_pack``, turns the per-node lists into the package's flat
``CartTree`` arrays. It drops the ``right`` list, since the fit makes both
children at once and ``right`` is always ``left + 1``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from synthbench.dataset import ColumnKind
from synthbench.errors import FitError
from synthbench.models.cart import CartTree
from synthbench.models.design import Predictors

# Relative guard so cancellation noise never counts as an improvement.
_GAIN_EPS = 1e-12

_MAX_EXHAUSTIVE_LEVELS = 10


@dataclass(frozen=True)
class _Candidate:
    gain: float
    feature: int
    threshold: float | None
    left_levels: np.ndarray | None


def fit_cart(
    X: Predictors,
    y: np.ndarray,
    y_kind: ColumnKind,
    *,
    min_leaf: int = 5,
) -> CartTree:
    """Fit a donor tree of ``y`` on the predictors.

    Fitting is deterministic (ties break to the earliest feature, then the
    lowest threshold or subset in enumeration order). Randomness only enters
    when donors are drawn.
    """
    y = np.asarray(y)
    n = int(y.shape[0])
    if min_leaf < 1:
        raise FitError(f"min_leaf must be >= 1, got {min_leaf}")
    if n == 0:
        raise FitError("cannot fit a tree on zero rows")
    if X.n_predictors and X.n_rows != n:
        raise FitError("predictors and target differ in row count")
    if n < min_leaf:
        raise FitError(f"need at least min_leaf={min_leaf} rows, got {n}")
    if y_kind.is_categorical:
        y = y.astype(np.int64, copy=False)
        if y.min() < 0 or y.max() >= y_kind.n_levels:
            raise FitError("target holds out-of-range level codes")
    else:
        y = y.astype(np.float64, copy=False)

    feature: list[int] = []
    threshold: list[float] = []
    left_levels: list = []
    left: list[int] = []
    right: list[int] = []
    donors: list = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(np.nan)
        left_levels.append(None)
        left.append(-1)
        right.append(-1)
        donors.append(None)
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray]] = [(root, np.arange(n, dtype=np.int64))]
    while stack:
        node, rows = stack.pop()
        cand = None
        if rows.size >= 2 * min_leaf:
            cand = _best_split(X, y, y_kind, rows, min_leaf)
        if cand is None:
            donors[node] = rows
            continue
        feature[node] = cand.feature
        if cand.threshold is not None:
            threshold[node] = cand.threshold
        left_levels[node] = cand.left_levels
        go_left = _go_left(X.cols[cand.feature][rows], cand.threshold, cand.left_levels)
        lnode, rnode = new_node(), new_node()
        left[node], right[node] = lnode, rnode
        stack.append((rnode, rows[~go_left]))
        stack.append((lnode, rows[go_left]))

    return _pack(X, y_kind, feature, threshold, left_levels, left, donors)


def _pack(X: Predictors, y_kind, feature, threshold, left_levels, left, donors) -> CartTree:
    """Pack per-node lists; ``left_levels`` (the codes a categorical split
    sends left) and ``donors`` (a leaf's rows) hold None at other nodes."""
    width = max((k.n_levels for k in X.kinds if k.is_categorical), default=0)
    sends_left = np.zeros((len(feature), width), dtype=bool)
    for node, levels in enumerate(left_levels):
        if levels is not None:
            sends_left[node, levels] = True
    sizes = [0 if d is None else d.size for d in donors]
    return CartTree(
        names=X.names,
        y_kind=y_kind,
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        sends_left=sends_left,
        donor_start=np.cumsum([0, *sizes], dtype=np.int64),
        donor_rows=np.concatenate([d for d in donors if d is not None]),
    )


def _go_left(x: np.ndarray, threshold, levels) -> np.ndarray:
    """The split rule fitting and routing share: numeric splits send
    ``x <= threshold`` left, categorical ones the level codes in ``levels``."""
    if levels is None:
        return x <= threshold
    return np.isin(x, levels)


def _midpoint(a: float, b: float) -> float:
    t = (a + b) / 2.0
    # Rounding can push the midpoint onto b; fall back to the left value so
    # "x <= t" reproduces the searched partition exactly.
    if not (a <= t < b):
        t = a
    return t


@dataclass(frozen=True)
class _Criterion:
    """What an impurity criterion gives the split search at one node."""

    stats: np.ndarray   # one row of statistics per node row
    parent: float       # node impurity
    eps: float          # gain floor
    child_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # (codes, n_levels) -> per-level sums of ``stats``, and per-level totals
    # whose mean orders the levels for the prefix search
    level_sums: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]


def _sse_criterion(y_node: np.ndarray) -> _Criterion | None:
    yc = y_node - y_node.mean()
    parent = float(yc @ yc)
    if not np.isfinite(parent):
        raise FitError("a node's sum of squared deviations is not finite")
    eps = _GAIN_EPS * max(1.0, parent)
    if parent <= eps:
        return None
    yc2 = yc * yc

    def level_sums(x, n_levels):
        lvl_sum = np.bincount(x, weights=yc, minlength=n_levels)
        lvl_sum2 = np.bincount(x, weights=yc2, minlength=n_levels)
        return np.stack([lvl_sum, lvl_sum2], axis=1), lvl_sum

    return _Criterion(np.stack([yc, yc2], axis=1), parent, eps, _sse_child_cost, level_sums)


def _gini_criterion(y_node: np.ndarray, k: int) -> _Criterion | None:
    n = y_node.size
    class_tot = np.bincount(y_node, minlength=k).astype(np.float64)
    parent = float(n - (class_tot @ class_tot) / n)
    eps = _GAIN_EPS * max(1.0, float(n))
    if parent <= eps:
        return None

    def level_sums(x, n_levels):
        grid = np.bincount(x * k + y_node, minlength=n_levels * k)
        grid = grid.reshape(n_levels, k).astype(np.float64)
        return grid, grid @ np.arange(k, dtype=np.float64)

    onehot = (y_node[:, None] == np.arange(k)[None, :]).astype(np.float64)
    return _Criterion(onehot, parent, eps, _gini_child_cost, level_sums)


def _sse_child_cost(counts: np.ndarray, stats: np.ndarray) -> np.ndarray:
    # stats[:, 0] = sum of centered y, stats[:, 1] = sum of squares
    return stats[:, 1] - stats[:, 0] ** 2 / counts


def _gini_child_cost(counts: np.ndarray, stats: np.ndarray) -> np.ndarray:
    # stats holds per-class counts; impurity mass is n - sum(c^2)/n.
    return counts - (stats * stats).sum(axis=1) / counts


def _best_split(X: Predictors, y, y_kind, rows, min_leaf) -> _Candidate | None:
    y_node = y[rows]
    if y_kind.is_categorical:
        crit = _gini_criterion(y_node, y_kind.n_levels)
    else:
        crit = _sse_criterion(y_node)
    if crit is None:
        return None
    n = rows.size
    best: _Candidate | None = None
    for f, (kind, col) in enumerate(zip(X.kinds, X.cols)):
        x = col[rows]
        if kind.is_categorical:
            got = _best_categorical_split(f, x, kind.n_levels, crit, min_leaf)
        else:
            order = np.argsort(x, kind="stable")
            xs = x[order]
            boundary = np.nonzero(xs[:-1] < xs[1:])[0]
            # cumsum adds each column in row order, so every prefix is the
            # sequential sum a 1-D cumsum of that statistic would give.
            cum = np.cumsum(crit.stats[order], axis=0)
            cut = _best_cut(crit, boundary + 1.0, cum[boundary], n, cum[-1], min_leaf)
            if cut is None:
                continue
            b = boundary[cut[0]]
            got = _Candidate(cut[1], f, _midpoint(float(xs[b]), float(xs[b + 1])), None)
        if got is not None and (best is None or got.gain > best.gain):
            best = got
    return best


def _best_cut(crit: _Criterion, left_count, left_stats, total_count, total_stats, min_leaf):
    """(index, gain) of the candidate cut with the largest gain, among those
    leaving at least ``min_leaf`` rows on each side; None when no such cut
    gains more than the floor. A gain that is nan or +inf is a FitError."""
    keep = np.nonzero((left_count >= min_leaf) & (total_count - left_count >= min_leaf))[0]
    if keep.size == 0:
        return None
    left_count, left_stats = left_count[keep], left_stats[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        gains = (
            crit.parent
            - crit.child_cost(left_count, left_stats)
            - crit.child_cost(total_count - left_count, total_stats - left_stats)
        )
    if np.isnan(gains).any() or np.isposinf(gains).any():
        raise FitError("a split gain is not finite")
    i = int(np.argmax(gains))
    gain = float(gains[i])
    return None if gain <= crit.eps else (int(keep[i]), gain)


def _best_categorical_split(
    f: int, x: np.ndarray, n_levels: int, crit: _Criterion, min_leaf: int
) -> _Candidate | None:
    lvl_count = np.bincount(x, minlength=n_levels).astype(np.float64)
    present = np.nonzero(lvl_count > 0)[0]
    if present.size < 2:
        return None
    lvl_stats, lvl_total = crit.level_sums(x, n_levels)
    total_count = lvl_count[present].sum()
    total_stats = lvl_stats[present].sum(axis=0)

    if present.size <= _MAX_EXHAUSTIVE_LEVELS:
        # Pin the first present level to the right side so each partition is
        # enumerated exactly once.
        rest = present[1:]
        m = rest.size
        subset_ids = np.arange(1, 2**m, dtype=np.int64)
        bits = (subset_ids[:, None] >> np.arange(m)[None, :]) & 1
        bits = bits.astype(np.float64)
        left_count = bits @ lvl_count[rest]
        left_stats = bits @ lvl_stats[rest]
    else:
        # Too many levels: order them by target mean and only scan prefix
        # splits along that ordering.
        order = np.argsort(lvl_total[present] / lvl_count[present], kind="stable")
        ordered = present[order]
        left_count = np.cumsum(lvl_count[ordered])[:-1]
        left_stats = np.cumsum(lvl_stats[ordered], axis=0)[:-1]

    cut = _best_cut(crit, left_count, left_stats, total_count, total_stats, min_leaf)
    if cut is None:
        return None
    i = cut[0]
    if present.size <= _MAX_EXHAUSTIVE_LEVELS:
        chosen = rest[bits[i].astype(bool)]
    else:
        chosen = ordered[: i + 1]
    return _Candidate(cut[1], f, None, np.sort(chosen.astype(np.int64)))
