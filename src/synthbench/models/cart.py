"""Greedy binary decision trees whose leaves keep donor row indices.

Regression targets split on variance (SSE) reduction, categorical targets on
Gini impurity reduction. Numeric predictors split at midpoints between
consecutive distinct sorted values. Categorical predictors search level
subsets exhaustively while at most 10 levels are present at a node; above
that, levels are ordered by target mean and only prefix splits along that
ordering are scored. Splitting stops when no candidate improves impurity or
a child would fall below ``min_leaf``.

``fit_cart`` grows a forest: any number of independent trees, each with its
own data, predictors, target and ``min_leaf``. Trees with the same kind of
impurity grow together, one depth per pass, which is the breadth-first
schedule of SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996). Numeric predictors
are sorted once per tree (SLIQ's presort). Every pass scores all open nodes
of all trees at once: one gather, one running sum and one argmax score every
numeric cut, and one ``bincount`` sums every categorical level. A node's
children keep its rows in each predictor's sorted order, so a child's rows
come out as a stable argsort of that child alone would give. Each tree is
then numbered depth first, as a node-at-a-time fit would make it, and equals
that fit's tree bit for bit.

This one search serves every width of level; the per-node search it replaced
is gone. Against that search, on fixture-A-like data (2-core VM, one BLAS
thread, best of 30 runs), forests of 5 and 20 classifier trees at n = 2000
(``min_leaf`` 44) fit 1.48x and 1.83x as fast, and deep ``min_leaf``-5
synthesis trees 1.33x alone and 2.4-3.8x five at a time. Forests whose levels
hold only one to three open nodes lose: one n = 2000 classifier tree runs at
0.89x, and one or three n = 8000 ones (``min_leaf`` 89) at 0.86-0.87x, since
each pass costs a fixed number of array operations that a narrow level does
not amortise. Choosing the per-node search for narrow levels would save a few
milliseconds per grid cell, less than the benchmark can resolve, at the cost
of a second search to keep equal to this one, so it is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from ..dataset import ColumnKind
from ..errors import FitError
from .design import Predictors

# Relative guard so cancellation noise never counts as an improvement.
_GAIN_EPS = 1e-12

_MAX_EXHAUSTIVE_LEVELS = 10

# At most this many row places (rows times one plus the numeric predictor
# count, summed over trees) grow at once, and one pass of the numeric split
# search scores at most this many places, so memory stays bounded however
# many trees one call fits.
_FOREST_PLACES = 1 << 16
_PASS_PLACES = 1 << 13


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

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def route(self, cols) -> np.ndarray:
        """Leaf node id for every row of ``cols`` (ordered as ``names``).

        Every row still at a split moves down one depth per pass."""
        if len(cols) != len(self.names):
            raise FitError(f"expected {len(self.names)} predictor columns")
        n = int(np.asarray(cols[0]).shape[0])
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


@dataclass(frozen=True)
class CartProblem:
    """One tree to grow: a donor tree of ``y`` on the predictors ``X``."""

    X: Predictors
    y: np.ndarray
    y_kind: ColumnKind
    min_leaf: int = 5


@dataclass(frozen=True)
class CartForest:
    """The trees of one ``fit_cart`` call, in the order of its problems."""

    trees: tuple[CartTree, ...]

    @property
    def n_leaves(self) -> int:
        return sum(tree.n_leaves for tree in self.trees)


def fit_cart(problems: Sequence[CartProblem]) -> CartForest:
    """Fit one donor tree per problem.

    Each tree depends only on its own problem, whatever else the call
    fits. Fitting is deterministic (ties break to the earliest feature, then
    the lowest threshold or subset in enumeration order). Randomness only
    enters when donors are drawn. Every problem is checked before any tree
    grows, so an invalid one raises ``FitError`` and fits nothing.
    """
    tasks = [_Task(p) for p in problems]
    trees: list[CartTree | None] = [None] * len(tasks)
    for gini in (True, False):
        forests: list[list[int]] = []
        places = _FOREST_PLACES
        for i, task in enumerate(tasks):
            if task.gini is gini:
                if places + task.places > _FOREST_PLACES:
                    forests.append([])
                    places = 0
                forests[-1].append(i)
                places += task.places
        for forest in forests:
            for i, tree in zip(forest, _Forest([tasks[i] for i in forest]).grow()):
                trees[i] = tree
    return CartForest(tuple(trees))


class _Task:
    """A checked problem."""

    def __init__(self, p: CartProblem):
        X, y_kind, min_leaf = p.X, p.y_kind, p.min_leaf
        y = np.asarray(p.y)
        n = int(y.shape[0])
        if min_leaf < 1:
            raise FitError(f"min_leaf must be >= 1, got {min_leaf}")
        if n == 0:
            raise FitError("cannot fit a tree on zero rows")
        if not X.n_predictors:
            raise FitError("a tree needs at least one predictor")
        if X.n_rows != n:
            raise FitError("predictors and target differ in row count")
        if n < min_leaf:
            raise FitError(f"need at least min_leaf={min_leaf} rows, got {n}")
        self.gini = y_kind.is_categorical
        if self.gini:
            y = y.astype(np.int64, copy=False)
            if y.min() < 0 or y.max() >= y_kind.n_levels:
                raise FitError("target holds out-of-range level codes")
        else:
            y = y.astype(np.float64, copy=False)
        self.X, self.y, self.y_kind, self.min_leaf, self.n = X, y, y_kind, min_leaf, n
        self.num = [f for f, kind in enumerate(X.kinds) if not kind.is_categorical]
        self.cat = [f for f, kind in enumerate(X.kinds) if kind.is_categorical]
        self.levels = [X.kinds[f].n_levels for f in self.cat]
        for f, k in zip(self.cat, self.levels):
            codes = np.asarray(X.cols[f], dtype=np.int64)
            if codes.min() < 0 or codes.max() >= k:
                raise FitError("predictors hold out-of-range level codes")
        self.places = n * (1 + len(self.num))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + lengths[i] - 1, for each i."""
    ends = np.cumsum(lengths)
    if not ends.size:
        return np.zeros(0, dtype=np.int64)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _midpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Rounding can push the midpoint onto b; fall back to the left value so
    # "x <= t" reproduces the searched partition exactly.
    t = (a + b) / 2.0
    return np.where((a <= t) & (t < b), t, a)


@cache
def _subset_bits(m: int) -> np.ndarray:
    """Row s holds the bits of s + 1: every non-empty subset of m levels."""
    subset_ids = np.arange(1, 2**m, dtype=np.int64)
    bits = ((subset_ids[:, None] >> np.arange(m)[None, :]) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


class _Forest:
    """Trees of one impurity kind, grown together one depth per pass.

    The trees' rows share one numbering: tree t owns rows ``base[t]`` to
    ``base[t] + n - 1``. The open nodes of a depth lie one after another in
    ``order``: a node's block holds its m rows in ascending order, then its
    rows in ascending order of each numeric predictor (SLIQ's presort,
    done once per tree).

    ``stats`` has a row per impurity statistic and a column per row: the
    class indicators (Gini), or the node-centred target and its square
    (SSE, rewritten at each depth). Every float is summed in the order a
    node-at-a-time search sums it: running sums start at each node's first
    sorted row (a 2-D ``cumsum`` over rows padded at the end), ``bincount``
    adds in row order, and the SSE node sums and dot products are taken
    node by node."""

    def __init__(self, tasks: list[_Task]):
        self.tasks, self.gini = tasks, tasks[0].gini
        n = np.array([t.n for t in tasks], dtype=np.int64)
        self.base = np.cumsum(n) - n
        self.N = N = int(n.sum())
        self.q = np.array([len(t.num) for t in tasks], dtype=np.int64)
        self.min_leaf = np.array([t.min_leaf for t in tasks], dtype=np.int64)
        n_num = int(self.q.max())
        n_cat = max(len(t.cat) for t in tasks)
        n_features = max(len(t.X.kinds) for t in tasks)
        self.width = max([1] + [k for t in tasks for k in t.levels])
        self.y = np.concatenate([t.y for t in tasks])
        if self.gini:
            k = max(t.y_kind.n_levels for t in tasks)
            self.stats = (np.arange(k)[:, None] == self.y[None, :]).astype(np.float64)
        else:
            self.stats = np.empty((2, N), dtype=np.float64)
        # xnum[j, row] and codes[c, row]: the j-th numeric and c-th
        # categorical predictor of the row's tree
        self.xnum = np.zeros((n_num, N), dtype=np.float64)
        self.codes = np.zeros((n_cat, N), dtype=np.int64)
        self.num_feature = np.zeros((len(tasks), max(n_num, 1)), dtype=np.int64)
        self.cat_feature = np.full((len(tasks), max(n_cat, 1)), -1, dtype=np.int64)
        self.slot = np.zeros((len(tasks), n_features), dtype=np.int64)
        self.is_cat = np.zeros((len(tasks), n_features), dtype=bool)
        order = []
        for t, task in enumerate(tasks):
            b, rows = self.base[t], slice(self.base[t], self.base[t] + task.n)
            for j, f in enumerate(task.num):
                self.xnum[j, rows] = task.X.cols[f]
            for c, f in enumerate(task.cat):
                self.codes[c, rows] = task.X.cols[f]
            presorted = np.argsort(self.xnum[: len(task.num), rows], axis=1, kind="stable")
            order += [np.arange(b, b + task.n), (presorted + b).ravel()]
            self.num_feature[t, : len(task.num)] = task.num
            self.cat_feature[t, : len(task.cat)] = task.cat
            self.slot[t, task.num] = np.arange(len(task.num))
            self.slot[t, task.cat] = np.arange(len(task.cat))
            self.is_cat[t, task.cat] = True
        self.order = np.concatenate(order)
        self.side = np.zeros(N, dtype=bool)
        # the open nodes
        self.tree = np.arange(len(tasks))
        self.m = n
        self.start = np.cumsum(n * (1 + self.q)) - n * (1 + self.q)
        self.levels: list[dict] = []

    def grow(self) -> list[CartTree]:
        while self.tree.size:
            self._depth()
        return self._pack()

    def _cost(self, counts, stats):
        if self.gini:
            return counts - (stats * stats).sum(axis=0) / counts
        return stats[1] - stats[0] ** 2 / counts

    def _best_cut(self, parent, m, left_count, left_stats, total_stats, allowed):
        """The place of each row's largest impurity decrease among its
        ``allowed`` cuts, and that decrease (-inf where none is allowed);
        statistics run along the first axis. Places not allowed may divide
        by zero and are masked. An allowed decrease that is nan or +inf, as
        when a running sum squares past the float range, is a ``FitError``."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            right = self._cost(m - left_count, total_stats - left_stats)
            gains = np.where(allowed, parent - self._cost(left_count, left_stats) - right, -np.inf)
        pick = gains.argmax(axis=1)
        best = gains[np.arange(pick.size), pick]
        # argmax finds a row's nan or +inf, if it holds one
        if np.isnan(best).any() or np.isposinf(best).any():
            raise FitError("a split gain is not finite")
        return pick, best

    def _impurity(self, nodes: np.ndarray):
        """Node impurity and gain floor of ``nodes``, and their rows."""
        m = self.m[nodes]
        rows = self.order[_ranges(self.start[nodes], m)]
        if self.gini:
            k = self.stats.shape[0]
            owner = np.repeat(np.arange(nodes.size), m)
            counts = np.bincount(owner * k + self.y[rows], minlength=nodes.size * k)
            counts = counts.reshape(-1, k).astype(np.float64)
            mf = m.astype(np.float64)
            parent = mf - (counts * counts).sum(axis=1) / mf
            return parent, _GAIN_EPS * np.fmax(1.0, mf), rows
        y = self.y[rows]
        ends = np.cumsum(m)
        bounds = list(zip((ends - m).tolist(), ends.tolist()))
        # np.mean's pairwise sum and a dot product, node by node. Overflow is
        # reported as a FitError just below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.array([np.add.reduce(y[a:b]) for a, b in bounds], dtype=np.float64) / m
            yc = y - np.repeat(mean, m)
            parent = np.array([yc[a:b] @ yc[a:b] for a, b in bounds], dtype=np.float64)
        if not np.isfinite(parent).all():
            raise FitError("a node's sum of squared deviations is not finite")
        self.stats[0, rows], self.stats[1, rows] = yc, yc * yc
        return parent, _GAIN_EPS * np.fmax(1.0, parent), rows

    def _depth(self) -> None:
        tree, m, start = self.tree, self.m, self.start
        min_leaf = self.min_leaf[tree]
        searched = np.flatnonzero(m >= 2 * min_leaf)
        parent, eps, rows = self._impurity(searched)
        live = ~(parent <= eps)
        nodes = searched[live]
        rows = rows[np.repeat(live, m[searched])]
        parent, eps = parent[live], eps[live]
        # gain[i, f]: the best gain of feature f at node i, -inf when it has no cut
        gain = np.full((nodes.size, self.slot.shape[1]), -np.inf)
        threshold = np.full(gain.shape, np.nan)
        sends = np.zeros((nodes.size * self.codes.shape[0], self.width), dtype=bool)
        if nodes.size:
            self._score_numeric(nodes, parent, eps, gain, threshold)
            if self.codes.shape[0]:
                self._score_categorical(nodes, rows, parent, eps, gain, sends)
        # The earliest feature with the largest gain wins, as a loop keeping
        # the first strictly better one would choose it.
        pick = gain.argmax(axis=1)
        at = np.arange(nodes.size)
        split = gain[at, pick] > -np.inf
        nodes, pick, at = nodes[split], pick[split], at[split]

        feature = np.full(tree.size, -1, dtype=np.int64)
        feature[nodes] = pick
        level = {
            "tree": tree,
            "feature": feature,
            "threshold": np.full(tree.size, np.nan),
            "sends": np.zeros((tree.size, self.width), dtype=bool),
        }
        level["threshold"][nodes] = threshold[at, pick]
        slot = self.slot[tree[nodes], pick]
        is_cat = self.is_cat[tree[nodes], pick]
        n_cat = self.codes.shape[0]
        level["sends"][nodes[is_cat]] = sends[at[is_cat] * n_cat + slot[is_cat]]
        leaves = np.flatnonzero(feature < 0)
        level["leaf_size"] = m[leaves]
        level["leaf_rows"] = (
            self.order[_ranges(start[leaves], m[leaves])]
            - np.repeat(self.base[tree[leaves]], m[leaves])
        )
        self.levels.append(level)
        self._split(nodes, slot, is_cat, level)

    def _score_numeric(self, nodes, parent, eps, gain, threshold) -> None:
        """Best cut of every numeric predictor at every node. Segments (a
        node's rows in one predictor's order), longest first, share padded
        2-D passes of at most ``_PASS_PLACES`` places."""
        q = self.q[self.tree[nodes]]
        owner = np.repeat(np.arange(nodes.size), q)
        j = np.arange(owner.size) - np.repeat(np.cumsum(q) - q, q)
        m = self.m[nodes][owner]
        seg_start = self.start[nodes][owner] + (1 + j) * m
        xnum = self.xnum.ravel()
        longest_first = np.argsort(-m, kind="stable")
        done = 0
        while done < m.size:
            width = int(m[longest_first[done]])
            sel = longest_first[done : done + max(1, _PASS_PLACES // width)]
            done += sel.size
            i, mm = owner[sel], m[sel]
            rows = self.order[seg_start[sel, None] + np.minimum(np.arange(width), mm[:, None] - 1)]
            x = xnum.take(rows + (j[sel] * self.N)[:, None])
            cum = np.cumsum(self.stats.take(rows, axis=1), axis=2)
            at = np.arange(sel.size)
            # cuts after sorted position p, min_leaf - 1 <= p < m - min_leaf
            lo = self.min_leaf[self.tree[nodes[i]]]
            p = np.arange(width - 1)
            cut, best = self._best_cut(
                parent[i, None],
                mm[:, None].astype(np.float64),
                np.arange(1, width, dtype=np.float64),
                cum[..., :-1],
                cum[:, at, mm - 1][..., None],
                (p >= lo[:, None] - 1) & (p < (mm - lo)[:, None]) & (x[:, :-1] < x[:, 1:]),
            )
            keep = ~(best <= eps[i])
            f = self.num_feature[self.tree[nodes[i]], j[sel]]
            gain[i[keep], f[keep]] = best[keep]
            threshold[i[keep], f[keep]] = _midpoints(x[at, cut], x[at, cut + 1])[keep]

    def _score_categorical(self, nodes, rows, parent, eps, gain, sends) -> None:
        """Best level split of every categorical predictor at every node.
        Segment e is slot e % C of node e // C, for C categorical slots."""
        n_cat, width = self.codes.shape[0], self.width
        m = self.m[nodes]
        tree = self.tree[nodes]
        owner = np.repeat(np.arange(nodes.size), m)
        codes = self.codes.take(rows, axis=1)
        bins = (owner * n_cat + np.arange(n_cat)[:, None]) * width + codes
        n_bins = nodes.size * n_cat * width
        if self.gini:
            k = self.stats.shape[0]
            lvl = np.bincount((bins * k + self.y[rows]).ravel(), minlength=n_bins * k)
            lvl = lvl.reshape(-1, width, k).transpose(2, 0, 1).astype(np.float64)
            count = lvl.sum(axis=0)
        else:
            bins = bins.ravel()
            count = np.bincount(bins, minlength=n_bins).reshape(-1, width).astype(np.float64)
            weights = [np.concatenate((s,) * n_cat) for s in self.stats[:, rows]]
            lvl = np.stack([np.bincount(bins, w, n_bins) for w in weights]).reshape(2, -1, width)
        present = count > 0
        n_present = present.sum(axis=1)
        seg_node = np.repeat(np.arange(nodes.size), n_cat)
        feature = self.cat_feature[tree].ravel()
        n_present[feature < 0] = 0
        # absent levels add exact zeros
        total = np.cumsum(lvl, axis=2)[..., -1]
        min_leaf = self.min_leaf[tree][seg_node]
        m_seg = m[seg_node].astype(np.float64)

        def score(e, left_count, left_stats, allowed):
            """Record each segment's best candidate; return its index."""
            i = seg_node[e]
            allowed &= (left_count >= min_leaf[e, None]) & (
                m_seg[e, None] - left_count >= min_leaf[e, None]
            )
            pick, best = self._best_cut(
                parent[i, None], m_seg[e, None], left_count, left_stats, total[:, e, None], allowed
            )
            keep = ~(best <= eps[i])
            gain[i[keep], feature[e[keep]]] = best[keep]
            return pick

        # Exhaustive: pin the first present level to the right side so each
        # partition is enumerated exactly once.
        n_segments = np.bincount(n_present, minlength=_MAX_EXHAUSTIVE_LEVELS + 1)
        for r in range(1, _MAX_EXHAUSTIVE_LEVELS):
            if not n_segments[r + 1]:
                continue
            e = np.flatnonzero(n_present == r + 1)
            rest = np.nonzero(present[e])[1].reshape(e.size, r + 1)[:, 1:]
            cnt, st = count[e[:, None], rest], lvl[:, e[:, None], rest]
            bits = _subset_bits(r)
            # summed level by level, as BLAS sums bits @ stats
            left_count, left_stats = 0.0, 0.0
            for b in range(r):
                left_count = left_count + bits[:, b] * cnt[:, b, None]
                left_stats = left_stats + bits[:, b] * st[..., b, None]
            pick = score(e, left_count, left_stats, np.ones(left_count.shape, dtype=bool))
            s, b = np.nonzero(bits[pick])
            sends[e[s], rest[s, b]] = True

        # Too many levels: order them by target mean and only scan prefix
        # splits along that ordering.
        e = np.flatnonzero(n_present > _MAX_EXHAUSTIVE_LEVELS)
        if e.size:
            s, lv = np.nonzero(present[e])
            if self.gini:
                lvl_total = lvl[:, e[s], lv].T @ np.arange(lvl.shape[0], dtype=np.float64)
            else:
                lvl_total = lvl[0, e[s], lv]
            sort = np.lexsort((lvl_total / count[e[s], lv], s))
            p = n_present[e]
            ordered = np.zeros((e.size, int(p.max())), dtype=np.int64)
            ordered[s, np.arange(s.size) - np.repeat(np.cumsum(p) - p, p)] = lv[sort]
            inside = np.arange(ordered.shape[1]) < p[:, None]
            cnt = np.where(inside, count[e[:, None], ordered], 0.0)
            st = np.where(inside, lvl[:, e[:, None], ordered], 0.0)
            left_count = np.cumsum(cnt, axis=1)[:, :-1]
            left_stats = np.cumsum(st, axis=2)[..., :-1]
            pick = score(e, left_count, left_stats, inside[:, 1:].copy())
            s, b = np.nonzero(np.arange(ordered.shape[1]) <= pick[:, None])
            sends[e[s], ordered[s, b]] = True

    def _split(self, nodes, slot, is_cat, level) -> None:
        """Send each split node's rows to its children, keeping the order of
        every block part. The next depth opens the left children of
        ``nodes`` in order, then their right children."""
        tree, N = self.tree[nodes], self.N
        m, q = self.m[nodes], self.q[tree]
        owner = np.repeat(np.arange(nodes.size), m)
        rows = self.order[_ranges(self.start[nodes], m)]
        cat = is_cat[owner]
        where = slot[owner] * N + rows
        go = np.empty(rows.size, dtype=bool)
        go[~cat] = self.xnum.ravel()[where[~cat]] <= level["threshold"][nodes][owner[~cat]]
        go[cat] = level["sends"][nodes[owner[cat]], self.codes.ravel()[where[cat]]]
        self.side[rows] = go
        n_left = np.bincount(owner, weights=go, minlength=nodes.size).astype(np.int64)
        # Every place of a split node's block goes to the same block part of
        # the child its row goes to.
        split = np.zeros(self.tree.size, dtype=bool)
        split[nodes] = True
        in_split = np.repeat(split, (1 + self.q[self.tree]) * self.m)
        to_left = self.side.take(self.order)
        # flatnonzero and take: a boolean mask as an index pays a branch per place
        keep = np.concatenate(
            (np.flatnonzero(in_split & to_left), np.flatnonzero(in_split & ~to_left))
        )
        self.order = self.order.take(keep)
        self.tree = np.concatenate((tree, tree))
        self.m = np.concatenate((n_left, m - n_left))
        block = (1 + self.q[self.tree]) * self.m
        self.start = np.cumsum(block) - block

    def _pack(self) -> list[CartTree]:
        """Number each tree's nodes depth first, left before right, as a
        node-at-a-time fit makes them: the k-th split node in that order
        gets children 2k + 1 and 2k + 2. The k-th of K split nodes at one
        depth has children k and K + k at the next."""
        levels = self.levels
        below = np.zeros(0, dtype=np.int64)          # split nodes in each subtree
        for level in reversed(levels):
            split = level["feature"] >= 0
            sub = np.zeros(split.size, dtype=np.int64)
            half = below.size // 2
            sub[split] = 1 + below[:half] + below[half:]
            level["below"], below = sub, sub
        rank = np.zeros(len(self.tasks), dtype=np.int64)
        node_id = np.zeros(len(self.tasks), dtype=np.int64)
        for depth, level in enumerate(levels):
            split = level["feature"] >= 0
            r = rank[split]
            level["id"], level["left"] = node_id, np.where(split, 2 * rank + 1, -1)
            if depth + 1 < len(levels):
                left_below = levels[depth + 1]["below"][: r.size]
                rank = np.concatenate((r + 1, r + 1 + left_below))
                node_id = np.concatenate((2 * r + 1, 2 * r + 2))

        n_nodes = 1 + 2 * levels[0]["below"]
        node_base = np.cumsum(n_nodes) - n_nodes
        total = int(n_nodes.sum())
        feature = np.full(total, -1, dtype=np.int64)
        threshold = np.full(total, np.nan)
        left = np.full(total, -1, dtype=np.int64)
        sends = np.zeros((total, self.width), dtype=bool)
        size = np.zeros(total, dtype=np.int64)
        where, leaf_rows = [], []
        for level in levels:
            at = node_base[level["tree"]] + level["id"]
            feature[at], threshold[at] = level["feature"], level["threshold"]
            left[at], sends[at] = level["left"], level["sends"]
            leaf = at[level["feature"] < 0]
            size[leaf] = level["leaf_size"]
            where.append(leaf)
            leaf_rows.append(level["leaf_rows"])
        where = np.concatenate(where)
        leaf_rows = np.concatenate(leaf_rows)
        leaf_size = size[where]
        order = np.argsort(where)
        donor_rows = leaf_rows[_ranges((np.cumsum(leaf_size) - leaf_size)[order], leaf_size[order])]

        trees = []
        for t, task in enumerate(self.tasks):
            nodes = slice(node_base[t], node_base[t] + n_nodes[t])
            cat_width = max(task.levels, default=0)
            trees.append(
                CartTree(
                    names=task.X.names,
                    y_kind=task.y_kind,
                    feature=feature[nodes].copy(),
                    threshold=threshold[nodes].copy(),
                    left=left[nodes].copy(),
                    sends_left=sends[nodes, :cat_width].copy(),
                    donor_start=np.concatenate(([0], np.cumsum(size[nodes]))),
                    donor_rows=donor_rows[self.base[t]:self.base[t] + task.n].copy(),
                )
            )
        return trees


def draw_donor_rows(tree: CartTree, cols, rng: np.random.Generator) -> np.ndarray:
    """Vectorised donor draw: one training-row index per input row."""
    leaf_ids = tree.route(cols)
    start = tree.donor_start[leaf_ids]
    sizes = tree.donor_start[leaf_ids + 1] - start
    u = rng.random(leaf_ids.shape[0])
    pos = np.floor(u * sizes).astype(np.int64)
    # u < 1 strictly, but guard the boundary anyway
    return tree.donor_rows[start + np.minimum(pos, sizes - 1)]
