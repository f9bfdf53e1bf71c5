import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthbench.dataset import ColumnKind
from synthbench.errors import FitError
from synthbench.models import CartTree, fit_cart
from synthbench.models.cart import draw_donor_rows
from synthbench.models.design import Predictors


NUM = ColumnKind.numeric()


def cat(k):
    return ColumnKind.categorical(tuple(f"l{i}" for i in range(k)))


def predictors(names, kinds, cols):
    return Predictors(tuple(names), tuple(kinds), tuple(np.asarray(c) for c in cols))


def sse(y):
    y = np.asarray(y, dtype=np.float64)
    return float(((y - y.mean()) ** 2).sum()) if y.size else 0.0


def gini_mass(y, n_classes):
    y = np.asarray(y)
    if y.size == 0:
        return 0.0
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    return float(y.size - (counts**2).sum() / y.size)


def brute_force_numeric_split(x, y, min_leaf, cost):
    """Best (threshold, cost_sum) over all midpoints, ties to lowest threshold."""
    xs = np.sort(np.unique(x))
    best = None
    for a, b in zip(xs[:-1], xs[1:]):
        t = 0.5 * (a + b)
        left = y[x <= t]
        right = y[x > t]
        if len(left) < min_leaf or len(right) < min_leaf:
            continue
        c = cost(left) + cost(right)
        if best is None or c < best[1] - 1e-12:
            best = (t, c)
    return best


def test_numeric_regression_split_matches_brute_force():
    rng = np.random.default_rng(5)
    x = rng.normal(size=60)
    y = np.where(x > 0.3, 4.0, 1.0) + rng.normal(0, 0.2, 60)
    X = predictors(["x"], [NUM], [x])
    tree = fit_cart(X, y, NUM, min_leaf=5)
    best = brute_force_numeric_split(x, y, 5, sse)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(best[0], abs=1e-12)


def test_categorical_split_matches_exhaustive_search():
    rng = np.random.default_rng(8)
    f = rng.integers(0, 4, 80)
    y = np.asarray([10.0, -3.0, 10.5, 2.0])[f] + rng.normal(0, 0.1, 80)
    X = predictors(["c"], [cat(4)], [f])
    tree = fit_cart(X, y, NUM, min_leaf=5)

    best = None
    levels = sorted(set(f.tolist()))
    for r in range(1, len(levels)):
        for subset in itertools.combinations(levels, r):
            mask = np.isin(f, subset)
            if mask.sum() < 5 or (~mask).sum() < 5:
                continue
            c = sse(y[mask]) + sse(y[~mask])
            if best is None or c < best[1] - 1e-9:
                best = (set(subset), c)
    got_left = set(tree.left_levels[0])
    # the same partition can be stored from either side
    assert got_left == best[0] or (set(levels) - got_left) == best[0]


def test_classification_split_matches_brute_force_gini():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 70)
    y = (x > 0.6).astype(np.int64)
    y[::9] = 1 - y[::9]  # noise so the split is not trivial
    X = predictors(["x"], [NUM], [x])
    tree = fit_cart(X, y, cat(2), min_leaf=5)
    best = brute_force_numeric_split(x, y, 5, lambda part: gini_mass(part, 2))
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(best[0], abs=1e-12)


def test_xor_interaction_reaches_purity():
    rng = np.random.default_rng(21)
    a = rng.integers(0, 2, 400)
    b = rng.integers(0, 2, 400)
    y = (a ^ b).astype(np.float64)
    X = predictors(["a", "b"], [cat(2), cat(2)], [a, b])
    tree = fit_cart(X, y, NUM, min_leaf=5)
    assert np.array_equal(tree.predict_mean((a, b), y), y)
    assert tree.n_leaves >= 4


def test_donors_partition_rows():
    rng = np.random.default_rng(2)
    x = rng.normal(size=90)
    c = rng.integers(0, 3, 90)
    y = x * 2 + c + rng.normal(0, 0.5, 90)
    X = predictors(["x", "c"], [NUM, cat(5)], [x, c])
    tree = fit_cart(X, y, NUM, min_leaf=5)
    seen = sorted(i for leaf in tree.leaf_donors() for i in leaf)
    assert seen == list(range(90))
    assert all(len(leaf) >= 5 for leaf in tree.leaf_donors())


def test_constant_target_gives_single_leaf():
    X = predictors(["x"], [NUM], [np.arange(20.0)])
    y = np.full(20, 3.25)
    tree = fit_cart(X, y, NUM, min_leaf=5)
    assert tree.n_leaves == 1
    assert tree.predict_mean((np.asarray([0.0]),), y)[0] == 3.25


def test_unseen_level_routes_without_error():
    # train with levels 0 and 1 only; level 2 is declared but absent
    f = np.asarray([0] * 10 + [1] * 10)
    y = np.asarray([0.0] * 10 + [5.0] * 10)
    X = predictors(["c"], [cat(3)], [f])
    tree = fit_cart(X, y, NUM, min_leaf=5)
    assert tree.n_leaves == 2
    val = tree.predict_mean((np.asarray([2]),), y)[0]
    assert val in (0.0, 5.0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=100)
    c = rng.integers(0, 5, 100)
    y = rng.normal(size=100)
    X = predictors(["x", "c"], [NUM, cat(5)], [x, c])
    t1 = fit_cart(X, y, NUM, min_leaf=5)
    t2 = fit_cart(X, y, NUM, min_leaf=5)
    assert np.array_equal(t1.feature, t2.feature)
    assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)
    assert [d.tolist() for d in t1.leaf_donors()] == [d.tolist() for d in t2.leaf_donors()]


def test_route_vectorised_agrees_with_row_routing():
    rng = np.random.default_rng(23)
    x = rng.normal(size=120)
    c = rng.integers(0, 4, 120)
    y = x + 0.5 * c + rng.normal(0, 0.3, 120)
    X = predictors(["x", "c"], [NUM, cat(5)], [x, c])
    tree = fit_cart(X, y, NUM, min_leaf=5)
    leaves = tree.route((x, c))
    for i in range(120):
        assert leaves[i] == tree.route((x[i:i + 1], c[i:i + 1]))[0]


def test_min_leaf_validation():
    X = predictors(["x"], [NUM], [np.arange(6.0)])
    with pytest.raises(FitError):
        fit_cart(X, np.arange(6.0), NUM, min_leaf=0)
    with pytest.raises(FitError):
        fit_cart(X, np.arange(3.0)[:2], NUM, min_leaf=5)


def test_draw_leaf_uniform_over_donors():
    f = np.asarray([0] * 8 + [1] * 8)
    y = np.asarray([float(i) for i in range(8)] + [99.0] * 8)
    X = predictors(["c"], [cat(2)], [f])
    tree = fit_cart(X, y, NUM, min_leaf=5)
    rng = np.random.default_rng(0)
    draws = y[draw_donor_rows(tree, (np.zeros(4000, dtype=np.int64),), rng)]
    assert set(np.unique(draws)) <= set(range(8))
    freqs = np.bincount(draws.astype(int), minlength=8) / 4000
    assert np.all(np.abs(freqs - 1 / 8) < 0.03)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(12, 60),
    seed=st.integers(0, 10_000),
    min_leaf=st.integers(2, 6),
)
def test_partition_property_random_data(n, seed, min_leaf):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    c = rng.integers(0, 3, n)
    y = rng.normal(size=n)
    X = predictors(["x", "c"], [NUM, cat(5)], [x, c])
    tree = fit_cart(X, y, NUM, min_leaf=min_leaf)
    donors = tree.leaf_donors()
    assert sorted(i for leaf in donors for i in leaf) == list(range(n))
    assert all(len(leaf) >= min_leaf for leaf in donors)
    leaves = tree.route((x, c))
    assert isinstance(tree, CartTree)
    by_leaf = {}
    for i, leaf in enumerate(leaves.tolist()):
        by_leaf.setdefault(leaf, []).append(i)
    assert sorted(map(tuple, by_leaf.values())) == sorted(map(tuple, donors))
