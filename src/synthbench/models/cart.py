"""Greedy binary decision trees whose leaves keep donor row indices.

Regression targets split on variance (SSE) reduction, categorical targets on
Gini impurity reduction. Numeric predictors split at midpoints between
consecutive distinct sorted values. Categorical predictors search level
subsets exhaustively while at most 10 levels are present at a node; above
that, levels are ordered by target mean and only prefix splits along that
ordering are scored. Splitting stops when no candidate improves impurity or
a child would fall below ``min_leaf``.

Numeric predictors are sorted once per fit (the presort of SLIQ: Mehta,
Agrawal & Rissanen, EDBT 1996), and each node scores all of them in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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


@dataclass(frozen=True)
class CartTree:
    """Flat node arrays; node 0 is the root, and a split node's children
    are ``left`` and ``left + 1``. Leaf v's training rows are
    ``donor_rows[donor_start[v]:donor_start[v + 1]]``."""

    names: tuple[str, ...]
    y_kind: ColumnKind
    feature: np.ndarray        # -1 marks a leaf
    threshold: np.ndarray      # numeric splits only
    left: np.ndarray           # -1 at leaves
    sends_left: np.ndarray     # node x level code: what a categorical split sends left
    donor_start: np.ndarray    # node count + 1 offsets; empty ranges off the leaves
    donor_rows: np.ndarray     # every leaf's rows, in node order

    @classmethod
    def from_nodes(
        cls, X: Predictors, y_kind: ColumnKind, feature, threshold, left_levels, left, donors
    ) -> CartTree:
        """Pack per-node lists; ``left_levels`` (the codes a categorical split
        sends left) and ``donors`` (a leaf's rows) hold None at other nodes."""
        width = max((k.n_levels for k in X.kinds if k.is_categorical), default=0)
        sends_left = np.zeros((len(feature), width), dtype=bool)
        for node, levels in enumerate(left_levels):
            if levels is not None:
                sends_left[node, levels] = True
        sizes = [0 if d is None else d.size for d in donors]
        return cls(
            names=X.names,
            y_kind=y_kind,
            feature=np.asarray(feature, dtype=np.int64),
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.asarray(left, dtype=np.int64),
            sends_left=sends_left,
            donor_start=np.cumsum([0, *sizes], dtype=np.int64),
            donor_rows=np.concatenate([d for d in donors if d is not None]),
        )

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def leaf_donors(self) -> list[np.ndarray]:
        return [d for d in np.split(self.donor_rows, self.donor_start[1:-1]) if d.size]

    def route(self, cols) -> np.ndarray:
        """Leaf node id for every row of ``cols`` (ordered as ``names``).

        Every row still at a split moves down one depth per pass."""
        if len(cols) != len(self.names):
            raise FitError(f"expected {len(self.names)} predictor columns")
        n = int(np.asarray(cols[0]).shape[0]) if len(cols) else 0
        # one row per predictor; level codes are exact as floats
        values = np.asarray([np.asarray(c, dtype=np.float64) for c in cols]).reshape(-1)
        width = self.sends_left.shape[1]
        sends = self.sends_left.reshape(-1)
        categorical = self.sends_left.any(axis=1)    # such a split sends some level left
        node = np.zeros(n, dtype=np.int64)
        live = np.arange(n, dtype=np.int64)
        while live.size:
            f = self.feature.take(node.take(live))
            live = live[f >= 0]
            at, f = node.take(live), f[f >= 0]
            x = values.take(f * n + live)
            go_left = x <= self.threshold.take(at)
            on = categorical.take(at)
            if on.any():
                # a code outside the declared levels goes right
                known = on & (x >= 0) & (x < width)
                code = np.where(known, x, 0).astype(np.int64)
                go_left = np.where(on, known & sends.take(at * width + code), go_left)
            node[live] = self.left.take(at) + ~go_left   # right is left + 1
        return node

    def predict_class(self, cols, training_y: np.ndarray) -> np.ndarray:
        """Majority vote over leaf donors; ties go to the lowest level code."""
        if not self.y_kind.is_categorical:
            raise FitError("majority prediction needs a categorical target")
        k, n_nodes = self.y_kind.n_levels, self.feature.shape[0]
        owner = np.repeat(np.arange(n_nodes), np.diff(self.donor_start))
        votes = np.bincount(owner * k + training_y[self.donor_rows], minlength=n_nodes * k)
        return votes.reshape(n_nodes, k).argmax(axis=1)[self.route(cols)]


def fit_cart(X: Predictors, y: np.ndarray, y_kind: ColumnKind, *, min_leaf: int = 5) -> CartTree:
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
    search = _SplitSearch(X, y, y_kind, min_leaf)

    # Nodes are numbered as they are made: a split appends its two children.
    feature, threshold, left_levels, left, donors = [-1], [np.nan], [None], [-1], [None]
    stack = [(0, np.arange(n, dtype=np.int64), search.presorted)]
    while stack:
        node, rows, ords = stack.pop()
        cand = search.best_split(rows, ords) if rows.size >= 2 * min_leaf else None
        if cand is None:
            donors[node] = rows
            continue
        feature[node], left_levels[node], left[node] = cand.feature, cand.left_levels, len(feature)
        x = X.cols[cand.feature].take(rows)
        if cand.left_levels is None:
            threshold[node] = cand.threshold
            go_left = x <= cand.threshold
        else:
            go_left = np.zeros(X.kinds[cand.feature].n_levels, dtype=bool)
            go_left[cand.left_levels] = True
            go_left = go_left[x]
        blanks = (-1, np.nan, None, -1, None)
        for column, blank in zip((feature, threshold, left_levels, left, donors), blanks):
            column += [blank, blank]
        # Filtering keeps each predictor's ascending-x order, so a child's
        # rows come out as a stable argsort of that child alone would give.
        search.side[rows] = go_left
        to_left = search.side.take(ords)
        n_left, n_pred = int(go_left.sum()), ords.shape[0]
        right_ords = ords[~to_left].reshape(n_pred, rows.size - n_left)
        stack.append((left[node] + 1, rows[~go_left], right_ords))
        stack.append((left[node], rows[go_left], ords[to_left].reshape(n_pred, n_left)))

    return CartTree.from_nodes(X, y_kind, feature, threshold, left_levels, left, donors)


def _midpoint(a: float, b: float) -> float:
    t = (a + b) / 2.0
    # Rounding can push the midpoint onto b; fall back to the left value so
    # "x <= t" reproduces the searched partition exactly.
    if not (a <= t < b):
        t = a
    return t


@cache
def _subset_bits(m: int) -> np.ndarray:
    """Row s holds the bits of s + 1: every non-empty subset of m levels."""
    subset_ids = np.arange(1, 2**m, dtype=np.int64)
    bits = ((subset_ids[:, None] >> np.arange(m)[None, :]) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


class _SplitSearch:
    """What one fit builds once and every node's split search reads.

    ``stats`` has a row per impurity statistic and a column per training
    row: the node-centred target and its square (SSE, rewritten at each
    node) or the class indicators (Gini). Gathers use ``take``, which costs
    far less than fancy indexing of a 2-D array."""

    def __init__(self, X: Predictors, y: np.ndarray, y_kind: ColumnKind, min_leaf: int):
        n = y.shape[0]
        self.kinds, self.y, self.min_leaf = X.kinds, y, min_leaf
        self.gini = y_kind.is_categorical
        if self.gini:
            self.k = y_kind.n_levels
            self.stats = (np.arange(self.k)[:, None] == y[None, :]).astype(np.float64)
        else:
            self.stats = np.empty((2, n), dtype=np.float64)
        num = [f for f, kind in enumerate(X.kinds) if not kind.is_categorical]
        xnum = np.asarray([X.cols[f] for f in num], dtype=np.float64).reshape(len(num), n)
        self.presorted = np.argsort(xnum, axis=1, kind="stable")
        self.xflat, self.xoff = xnum.ravel(), np.arange(len(num))[:, None] * n
        # Categorical codes shifted so that all predictors' levels share one
        # bin range: one bincount sums them all.
        cat = [f for f, kind in enumerate(X.kinds) if kind.is_categorical]
        sizes = [X.kinds[f].n_levels for f in cat]
        offsets = np.cumsum([0, *sizes])
        codes = np.asarray([X.cols[f] for f in cat], dtype=np.int64).reshape(len(cat), n)
        if codes.size and (codes.min() < 0 or (codes.max(axis=1) >= sizes).any()):
            raise FitError("predictors hold out-of-range level codes")
        self.codes = codes + offsets[:-1, None]
        self.n_bins = int(offsets[-1])
        self.lvl_stats = np.empty((self.n_bins, 2), dtype=np.float64)
        # where each predictor's results sit: a numeric row, a level range
        self.slot = {f: p for p, f in enumerate(num)}
        self.slot.update({f: slice(offsets[c], offsets[c + 1]) for c, f in enumerate(cat)})
        self.side = np.empty(n, dtype=bool)

    def gains(self, parent, m, left_count, left_stats, total_stats):
        """Impurity decrease of each cut; statistics run along the first axis."""

        def cost(counts, stats):
            if self.gini:
                return counts - (stats * stats).sum(axis=0) / counts
            return stats[1] - stats[0] ** 2 / counts

        return parent - cost(left_count, left_stats) - cost(m - left_count, total_stats - left_stats)

    def best_split(self, rows: np.ndarray, ords: np.ndarray) -> _Candidate | None:
        m = rows.size
        y_node = self.y.take(rows)
        if self.gini:
            class_tot = np.bincount(y_node, minlength=self.k).astype(np.float64)
            parent = float(m - (class_tot @ class_tot) / m)
            eps = _GAIN_EPS * max(1.0, float(m))
        else:
            yc = y_node - y_node.sum() / m   # the mean, as np.mean computes it
            parent = float(yc @ yc)
            eps = _GAIN_EPS * max(1.0, parent)
            yc2 = yc * yc
            stat_yc, stat_yc2 = self.stats
            stat_yc[rows], stat_yc2[rows] = yc, yc2
        if parent <= eps:
            return None

        if ords.shape[0]:
            # Cuts after sorted position j, min_leaf - 1 <= j < m - min_leaf,
            # leave at least min_leaf rows on each side. cumsum adds along
            # the rows in sequence, so every prefix equals a 1-D cumsum's.
            lo, hi = self.min_leaf - 1, m - self.min_leaf
            xs = self.xflat.take(ords + self.xoff)
            cum = np.cumsum(self.stats.take(ords, axis=1), axis=2)
            left_count = np.arange(lo + 1, hi + 1, dtype=np.float64)
            gains = self.gains(parent, m, left_count, cum[..., lo:hi], cum[..., -1:])
            gains = np.where(xs[:, lo:hi] < xs[:, lo + 1:hi + 1], gains, -np.inf)
            cut = gains.argmax(axis=1)
        if self.n_bins:
            # bincount adds in row order, so each level sum equals what a
            # bincount over that one predictor would give.
            codes = self.codes.take(rows, axis=1)
            if self.gini:
                bins = (codes * self.k + y_node).ravel()
                lvl_stats = np.bincount(bins, minlength=self.n_bins * self.k)
                lvl_stats = lvl_stats.reshape(-1, self.k).astype(np.float64)
                lvl_count = lvl_stats.sum(axis=1)
            else:
                codes, c = codes.ravel(), codes.shape[0]
                lvl_stats = self.lvl_stats
                lvl_stats[:, 0] = np.bincount(codes, np.concatenate((yc,) * c), self.n_bins)
                lvl_stats[:, 1] = np.bincount(codes, np.concatenate((yc2,) * c), self.n_bins)
                lvl_count = np.bincount(codes, minlength=self.n_bins).astype(np.float64)

        best: _Candidate | None = None
        for f, kind in enumerate(self.kinds):
            at = self.slot[f]
            if kind.is_categorical:
                got = self._categorical(f, lvl_count[at], lvl_stats[at], m, parent, eps)
            elif gains[at, cut[at]] <= eps:
                got = None
            else:
                b = lo + int(cut[at])
                t = _midpoint(float(xs[at, b]), float(xs[at, b + 1]))
                got = _Candidate(float(gains[at, cut[at]]), f, t, None)
            if got is not None and (best is None or got.gain > best.gain):
                best = got
        return best

    def _categorical(self, f, lvl_count, lvl_stats, m, parent, eps) -> _Candidate | None:
        present = lvl_count.nonzero()[0]
        if present.size < 2:
            return None
        total_stats = lvl_stats[present].sum(axis=0)
        exhaustive = present.size <= _MAX_EXHAUSTIVE_LEVELS
        if exhaustive:
            # Pin the first present level to the right side so each partition is
            # enumerated exactly once.
            rest = present[1:]
            bits = _subset_bits(rest.size)
            left_count = bits @ lvl_count[rest]
            left_stats = bits @ lvl_stats[rest]
        else:
            # Too many levels: order them by target mean and only scan prefix
            # splits along that ordering.
            lvl_total = lvl_stats @ np.arange(self.k, dtype=np.float64) if self.gini else lvl_stats[:, 0]
            order = np.argsort(lvl_total[present] / lvl_count[present], kind="stable")
            ordered = present[order]
            left_count = np.cumsum(lvl_count[ordered])[:-1]
            left_stats = np.cumsum(lvl_stats[ordered], axis=0)[:-1]

        gains = self.gains(parent, m, left_count, left_stats.T, total_stats[:, None])
        allowed = (left_count >= self.min_leaf) & (m - left_count >= self.min_leaf)
        gains = np.where(allowed, gains, -np.inf)
        i = int(gains.argmax())
        if gains[i] <= eps:
            return None
        chosen = rest[bits[i].astype(bool)] if exhaustive else ordered[: i + 1]
        return _Candidate(float(gains[i]), f, None, np.sort(chosen.astype(np.int64)))


def draw_donor_rows(tree: CartTree, cols, rng: np.random.Generator) -> np.ndarray:
    """Vectorised donor draw: one training-row index per input row."""
    leaf_ids = tree.route(cols)
    start = tree.donor_start[leaf_ids]
    sizes = tree.donor_start[leaf_ids + 1] - start
    u = rng.random(leaf_ids.shape[0])
    pos = np.floor(u * sizes).astype(np.int64)
    # u < 1 strictly, but guard the boundary anyway
    return tree.donor_rows[start + np.minimum(pos, sizes - 1)]
