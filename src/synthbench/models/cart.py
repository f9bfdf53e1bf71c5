"""Greedy binary decision trees whose leaves keep donor row indices.

Regression targets split on variance (SSE) reduction, categorical targets on
Gini impurity reduction. Numeric predictors split at midpoints between
consecutive distinct sorted values. Categorical predictors search level
subsets exhaustively while at most 10 levels are present at a node; above
that, levels are ordered by target mean and only prefix splits along that
ordering are scored. Splitting stops when no candidate improves impurity or
a child would fall below ``min_leaf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import ColumnKind
from ..errors import FitError
from .design import Predictors

# Relative guard so cancellation noise never counts as an improvement.
_GAIN_EPS = 1e-12

_MAX_EXHAUSTIVE_LEVELS = 10


@dataclass(frozen=True)
class _Candidate:
    gain: float
    feature: int
    threshold: float | None
    left_levels: np.ndarray | None


@dataclass
class CartTree:
    """Flat node arrays plus per-leaf donor indices into the training rows."""

    names: tuple[str, ...]
    kinds: tuple[ColumnKind, ...]
    y_kind: ColumnKind
    min_leaf: int
    feature: np.ndarray        # -1 marks a leaf
    threshold: np.ndarray      # numeric splits only
    left_levels: list          # categorical splits: sorted level codes sent left
    left: np.ndarray
    right: np.ndarray
    donors: list               # row-index arrays at leaves, None elsewhere

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def leaf_donors(self) -> list[np.ndarray]:
        return [d for d in self.donors if d is not None]

    def route(self, cols) -> np.ndarray:
        """Leaf node id for every row of ``cols`` (ordered as ``names``)."""
        cols = [np.asarray(c) for c in cols]
        if len(cols) != len(self.names):
            raise FitError(f"expected {len(self.names)} predictor columns")
        n = int(cols[0].shape[0]) if cols else 0
        out = np.empty(n, dtype=np.int64)
        stack = [(0, np.arange(n, dtype=np.int64))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            f = int(self.feature[node])
            if f < 0:
                out[rows] = node
                continue
            x = cols[f][rows]
            if self.kinds[f].is_numeric:
                go_left = x <= self.threshold[node]
            else:
                go_left = np.isin(x, self.left_levels[node])
            stack.append((int(self.left[node]), rows[go_left]))
            stack.append((int(self.right[node]), rows[~go_left]))
        return out

    def predict_class(self, cols, training_y: np.ndarray) -> np.ndarray:
        """Majority vote over leaf donors; ties go to the lowest level code."""
        if not self.y_kind.is_categorical:
            raise FitError("majority prediction needs a categorical target")
        k = self.y_kind.n_levels
        leaf_ids = self.route(cols)
        majority = np.zeros(self.n_nodes, dtype=np.int64)
        for node, d in enumerate(self.donors):
            if d is not None:
                majority[node] = np.bincount(training_y[d], minlength=k).argmax()
        return majority[leaf_ids]

    def predict_mean(self, cols, training_y: np.ndarray) -> np.ndarray:
        leaf_ids = self.route(cols)
        means = np.zeros(self.n_nodes, dtype=np.float64)
        for node, d in enumerate(self.donors):
            if d is not None:
                means[node] = training_y[d].mean()
        return means[leaf_ids]


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
        x = X.cols[cand.feature][rows]
        if cand.threshold is not None:
            threshold[node] = cand.threshold
            go_left = x <= cand.threshold
        else:
            left_levels[node] = cand.left_levels
            go_left = np.isin(x, cand.left_levels)
        lnode, rnode = new_node(), new_node()
        left[node], right[node] = lnode, rnode
        stack.append((rnode, rows[~go_left]))
        stack.append((lnode, rows[go_left]))

    return CartTree(
        names=X.names,
        kinds=X.kinds,
        y_kind=y_kind,
        min_leaf=min_leaf,
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left_levels=left_levels,
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        donors=donors,
    )


def _midpoint(a: float, b: float) -> float:
    t = (a + b) / 2.0
    # Rounding can push the midpoint onto b; fall back to the left value so
    # "x <= t" reproduces the searched partition exactly.
    if not (a <= t < b):
        t = a
    return t


def _best_split(X: Predictors, y, y_kind, rows, min_leaf) -> _Candidate | None:
    if y_kind.is_categorical:
        return _best_split_gini(X, y, y_kind.n_levels, rows, min_leaf)
    return _best_split_sse(X, y, rows, min_leaf)


def _best_split_sse(X: Predictors, y, rows, min_leaf) -> _Candidate | None:
    y_node = y[rows]
    yc = y_node - y_node.mean()
    parent = float(yc @ yc)
    eps = _GAIN_EPS * max(1.0, parent)
    if parent <= eps:
        return None
    best: _Candidate | None = None
    n = rows.size
    for f, (kind, col) in enumerate(zip(X.kinds, X.cols)):
        x = col[rows]
        if kind.is_numeric:
            order = np.argsort(x, kind="stable")
            xs = x[order]
            ys = yc[order]
            boundary = np.nonzero(xs[:-1] < xs[1:])[0]
            if boundary.size == 0:
                continue
            cnt_l = boundary + 1
            ok = (cnt_l >= min_leaf) & (n - cnt_l >= min_leaf)
            boundary = boundary[ok]
            if boundary.size == 0:
                continue
            cy = np.cumsum(ys)
            cy2 = np.cumsum(ys * ys)
            cnt_l = boundary + 1
            cnt_r = n - cnt_l
            sl = cy[boundary]
            s2l = cy2[boundary]
            sse_l = s2l - sl * sl / cnt_l
            sse_r = (cy2[-1] - s2l) - (cy[-1] - sl) ** 2 / cnt_r
            gains = parent - sse_l - sse_r
            i = int(np.argmax(gains))
            gain = float(gains[i])
            if gain > eps and (best is None or gain > best.gain):
                b = boundary[i]
                best = _Candidate(gain, f, _midpoint(float(xs[b]), float(xs[b + 1])), None)
        else:
            lvl_count = np.bincount(x, minlength=kind.n_levels).astype(np.float64)
            lvl_sum = np.bincount(x, weights=yc, minlength=kind.n_levels)
            lvl_sum2 = np.bincount(x, weights=yc * yc, minlength=kind.n_levels)
            with np.errstate(invalid="ignore"):
                lvl_key = np.where(lvl_count > 0, lvl_sum / lvl_count, 0.0)
            got = _best_categorical_split(
                f, lvl_count, np.stack([lvl_sum, lvl_sum2], axis=1), lvl_key,
                parent, min_leaf, eps, child_cost=_sse_child_cost,
            )
            if got is not None and (best is None or got.gain > best.gain):
                best = got
    return best


def _sse_child_cost(counts: np.ndarray, stats: np.ndarray) -> np.ndarray:
    # stats[:, 0] = sum of centered y, stats[:, 1] = sum of squares
    with np.errstate(invalid="ignore", divide="ignore"):
        cost = stats[:, 1] - stats[:, 0] ** 2 / counts
    return np.where(counts > 0, cost, np.inf)


def _gini_child_cost(counts: np.ndarray, stats: np.ndarray) -> np.ndarray:
    # stats holds per-class counts; impurity mass is n - sum(c^2)/n.
    with np.errstate(invalid="ignore", divide="ignore"):
        cost = counts - (stats * stats).sum(axis=1) / counts
    return np.where(counts > 0, cost, np.inf)


def _best_split_gini(X: Predictors, y, k, rows, min_leaf) -> _Candidate | None:
    y_node = y[rows]
    class_tot = np.bincount(y_node, minlength=k).astype(np.float64)
    n = rows.size
    parent = float(n - (class_tot @ class_tot) / n)
    eps = _GAIN_EPS * max(1.0, float(n))
    if parent <= eps:
        return None
    best: _Candidate | None = None
    for f, (kind, col) in enumerate(zip(X.kinds, X.cols)):
        x = col[rows]
        if kind.is_numeric:
            order = np.argsort(x, kind="stable")
            xs = x[order]
            boundary = np.nonzero(xs[:-1] < xs[1:])[0]
            if boundary.size == 0:
                continue
            cnt_l = boundary + 1
            ok = (cnt_l >= min_leaf) & (n - cnt_l >= min_leaf)
            boundary = boundary[ok]
            if boundary.size == 0:
                continue
            onehot = (y_node[order][:, None] == np.arange(k)[None, :]).astype(np.float64)
            cum = np.cumsum(onehot, axis=0)
            cnt_l = (boundary + 1).astype(np.float64)
            cnt_r = n - cnt_l
            cl = cum[boundary]
            cr = class_tot[None, :] - cl
            imp_l = cnt_l - (cl * cl).sum(axis=1) / cnt_l
            imp_r = cnt_r - (cr * cr).sum(axis=1) / cnt_r
            gains = parent - imp_l - imp_r
            i = int(np.argmax(gains))
            gain = float(gains[i])
            if gain > eps and (best is None or gain > best.gain):
                b = boundary[i]
                best = _Candidate(gain, f, _midpoint(float(xs[b]), float(xs[b + 1])), None)
        else:
            lvl_count = np.bincount(x, minlength=kind.n_levels).astype(np.float64)
            grid = np.bincount(x * k + y_node, minlength=kind.n_levels * k)
            grid = grid.reshape(kind.n_levels, k).astype(np.float64)
            with np.errstate(invalid="ignore"):
                lvl_key = np.where(
                    lvl_count > 0,
                    (grid @ np.arange(k, dtype=np.float64)) / lvl_count,
                    0.0,
                )
            got = _best_categorical_split(
                f, lvl_count, grid, lvl_key, parent, min_leaf, eps,
                child_cost=_gini_child_cost,
            )
            if got is not None and (best is None or got.gain > best.gain):
                best = got
    return best


def _best_categorical_split(
    f: int,
    lvl_count: np.ndarray,
    lvl_stats: np.ndarray,
    lvl_key: np.ndarray,
    parent: float,
    min_leaf: int,
    eps: float,
    *,
    child_cost,
) -> _Candidate | None:
    present = np.nonzero(lvl_count > 0)[0]
    if present.size < 2:
        return None
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
        order = np.argsort(lvl_key[present], kind="stable")
        ordered = present[order]
        bits = None
        left_count = np.cumsum(lvl_count[ordered])[:-1]
        left_stats = np.cumsum(lvl_stats[ordered], axis=0)[:-1]

    right_count = total_count - left_count
    ok = (left_count >= min_leaf) & (right_count >= min_leaf)
    if not ok.any():
        return None
    cost_l = child_cost(left_count, left_stats)
    cost_r = child_cost(right_count, total_stats[None, :] - left_stats)
    gains = np.where(ok, parent - cost_l - cost_r, -np.inf)
    i = int(np.argmax(gains))
    gain = float(gains[i])
    if gain <= eps:
        return None
    if present.size <= _MAX_EXHAUSTIVE_LEVELS:
        chosen = present[1:][bits[i].astype(bool)]
    else:
        chosen = ordered[: i + 1]
    return _Candidate(gain, f, None, np.sort(chosen.astype(np.int64)))


def draw_donor_rows(tree: CartTree, cols, rng: np.random.Generator) -> np.ndarray:
    """Vectorised donor draw: one training-row index per input row."""
    leaf_ids = tree.route(cols)
    sizes = np.zeros(tree.n_nodes, dtype=np.int64)
    offsets = np.zeros(tree.n_nodes, dtype=np.int64)
    flat_parts = []
    used = 0
    for node, d in enumerate(tree.donors):
        if d is not None:
            sizes[node] = d.size
            offsets[node] = used
            used += d.size
            flat_parts.append(d)
    flat = np.concatenate(flat_parts) if flat_parts else np.empty(0, dtype=np.int64)
    u = rng.random(leaf_ids.shape[0])
    pos = np.floor(u * sizes[leaf_ids]).astype(np.int64)
    # u < 1 strictly, but guard the boundary anyway
    pos = np.minimum(pos, sizes[leaf_ids] - 1)
    return flat[offsets[leaf_ids] + pos]
