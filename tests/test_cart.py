import hashlib
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from cart_reference import fit_cart as reference_fit_cart
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthbench.dataset import ColumnKind
from synthbench.errors import FitError
from synthbench.models import CartProblem, CartTree, cart, fit_cart
from synthbench.models.cart import draw_donor_rows
from synthbench.models.design import Predictors
from synthbench.synthesis import Donors


NUM = ColumnKind.numeric()


def cat(k):
    return ColumnKind.categorical(tuple(f"l{i}" for i in range(k)))


def predictors(names, kinds, cols):
    return Predictors(tuple(names), tuple(kinds), tuple(np.asarray(c) for c in cols))


def leaf_donors(tree):
    """Each leaf's training rows, in node order."""
    return [d for d in np.split(tree.donor_rows, tree.donor_start[1:-1]) if d.size]


def fit_tree(X, y, kind, *, min_leaf=5):
    """A forest of one tree, as the package's callers fit a single tree."""
    return fit_cart([CartProblem(X, np.asarray(y), kind, min_leaf)]).trees[0]


def leaf_rows(tree, leaf):
    return tree.donor_rows[tree.donor_start[leaf]:tree.donor_start[leaf + 1]]


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
    tree = fit_tree(X, y, NUM, min_leaf=5)
    best = brute_force_numeric_split(x, y, 5, sse)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(best[0], abs=1e-12)


def test_categorical_split_matches_exhaustive_search():
    rng = np.random.default_rng(8)
    f = rng.integers(0, 4, 80)
    y = np.asarray([10.0, -3.0, 10.5, 2.0])[f] + rng.normal(0, 0.1, 80)
    X = predictors(["c"], [cat(4)], [f])
    tree = fit_tree(X, y, NUM, min_leaf=5)

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
    got_left = set(np.flatnonzero(tree.sends_left[0]).tolist())
    # the same partition can be stored from either side
    assert got_left == best[0] or (set(levels) - got_left) == best[0]


def test_classification_split_matches_brute_force_gini():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 70)
    y = (x > 0.6).astype(np.int64)
    y[::9] = 1 - y[::9]  # noise so the split is not trivial
    X = predictors(["x"], [NUM], [x])
    tree = fit_tree(X, y, cat(2), min_leaf=5)
    best = brute_force_numeric_split(x, y, 5, lambda part: gini_mass(part, 2))
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(best[0], abs=1e-12)


def test_xor_interaction_reaches_purity():
    rng = np.random.default_rng(21)
    a = rng.integers(0, 2, 400)
    b = rng.integers(0, 2, 400)
    y = (a ^ b).astype(np.float64)
    X = predictors(["a", "b"], [cat(2), cat(2)], [a, b])
    tree = fit_tree(X, y, NUM, min_leaf=5)
    assert all(np.ptp(y[d]) == 0 for d in leaf_donors(tree))
    assert tree.n_leaves >= 4


def test_donors_partition_rows():
    rng = np.random.default_rng(2)
    x = rng.normal(size=90)
    c = rng.integers(0, 3, 90)
    y = x * 2 + c + rng.normal(0, 0.5, 90)
    X = predictors(["x", "c"], [NUM, cat(5)], [x, c])
    tree = fit_tree(X, y, NUM, min_leaf=5)
    seen = sorted(i for leaf in leaf_donors(tree) for i in leaf)
    assert seen == list(range(90))
    assert all(len(leaf) >= 5 for leaf in leaf_donors(tree))


def test_constant_target_gives_single_leaf():
    X = predictors(["x"], [NUM], [np.arange(20.0)])
    y = np.full(20, 3.25)
    tree = fit_tree(X, y, NUM, min_leaf=5)
    assert tree.n_leaves == 1
    (donors,) = leaf_donors(tree)
    assert y[donors].mean() == 3.25


def test_a_target_whose_squares_overflow_is_a_fit_error():
    # At 1e160 the squared deviations overflow. The root then read as pure,
    # and the tree kept one leaf without an error; at 1e150 it splits.
    x = np.arange(40.0)
    X = predictors(["x"], [NUM], [x])
    assert fit_tree(X, x * 1e150, NUM, min_leaf=5).n_leaves > 1
    with pytest.raises(FitError, match="not finite"):
        fit_tree(X, x * 1e160, NUM, min_leaf=5)


def test_a_split_gain_that_overflows_is_a_fit_error():
    # The node's sum of squares, about 8.6e307, is finite, but the running
    # sum of the rows left of a cut squares past the float range. Unchecked,
    # that gain reads +inf and the root splits at x <= 0.23, though y flips
    # sign at x = 0.5.
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, 60)
    y = np.where(x > 0.5, 1.2e153, -1.2e153) + rng.normal(0.0, 1e150, 60)
    X = predictors(["x"], [NUM], [x])
    for fit in (fit_tree, reference_fit_cart):
        with pytest.raises(FitError, match="a split gain is not finite"):
            fit(X, y, NUM, min_leaf=5)


def test_unseen_level_routes_without_error():
    # train with levels 0 and 1 only; level 2 is declared but absent
    f = np.asarray([0] * 10 + [1] * 10)
    y = np.asarray([0.0] * 10 + [5.0] * 10)
    X = predictors(["c"], [cat(3)], [f])
    tree = fit_tree(X, y, NUM, min_leaf=5)
    assert tree.n_leaves == 2
    leaf = tree.route((np.asarray([2]),))[0]
    assert tree.feature[leaf] < 0
    assert set(y[leaf_rows(tree, leaf)]) in ({0.0}, {5.0})


def test_fit_is_deterministic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=100)
    c = rng.integers(0, 5, 100)
    y = rng.normal(size=100)
    X = predictors(["x", "c"], [NUM, cat(5)], [x, c])
    t1 = fit_tree(X, y, NUM, min_leaf=5)
    t2 = fit_tree(X, y, NUM, min_leaf=5)
    assert np.array_equal(t1.feature, t2.feature)
    assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)
    assert [d.tolist() for d in leaf_donors(t1)] == [d.tolist() for d in leaf_donors(t2)]


def test_route_vectorised_agrees_with_row_routing():
    rng = np.random.default_rng(23)
    x = rng.normal(size=120)
    c = rng.integers(0, 4, 120)
    y = x + 0.5 * c + rng.normal(0, 0.3, 120)
    X = predictors(["x", "c"], [NUM, cat(5)], [x, c])
    tree = fit_tree(X, y, NUM, min_leaf=5)
    leaves = tree.route((x, c))
    for i in range(120):
        assert leaves[i] == tree.route((x[i:i + 1], c[i:i + 1]))[0]


def test_a_tree_needs_a_predictor():
    # with none, routing would find no row to route: refuse the problem
    with pytest.raises(FitError, match="at least one predictor"):
        fit_tree(predictors([], [], []), np.arange(10.0), NUM)


def test_min_leaf_validation():
    X = predictors(["x"], [NUM], [np.arange(6.0)])
    with pytest.raises(FitError):
        fit_tree(X, np.arange(6.0), NUM, min_leaf=0)
    with pytest.raises(FitError):
        fit_tree(X, np.arange(3.0)[:2], NUM, min_leaf=5)


def test_draw_leaf_uniform_over_donors():
    f = np.asarray([0] * 8 + [1] * 8)
    y = np.asarray([float(i) for i in range(8)] + [99.0] * 8)
    X = predictors(["c"], [cat(2)], [f])
    tree = fit_tree(X, y, NUM, min_leaf=5)
    rng = np.random.default_rng(0)
    draws = y[draw_donor_rows(tree, (np.zeros(4000, dtype=np.int64),), rng)]
    assert set(np.unique(draws)) <= set(range(8))
    freqs = np.bincount(draws.astype(int), minlength=8) / 4000
    assert np.all(np.abs(freqs - 1 / 8) < 0.03)


def test_predict_class_is_the_routed_leafs_majority():
    rng = np.random.default_rng(29)
    x = np.round(rng.normal(size=300), 1)
    c = rng.integers(0, 4, 300)
    y = np.digitize(x + 0.4 * c + rng.normal(0, 0.8, 300), [0.3, 1.2])
    tree = fit_tree(predictors(["x", "c"], [NUM, cat(4)], [x, c]), y, cat(3), min_leaf=6)
    assert any(np.unique(y[d]).size > 1 for d in leaf_donors(tree))
    cols = (rng.normal(size=100), rng.integers(0, 4, 100))
    leaves = tree.route(cols)
    want = [np.bincount(y[leaf_rows(tree, v)], minlength=3).argmax() for v in leaves]
    assert tree.predict_class(cols, y).tolist() == want
    # the level-0 leaf holds three rows each of classes 1 and 2: 1 wins
    f = np.asarray([0] * 6 + [1] * 6)
    y = np.asarray([2, 1, 2, 1, 2, 1] + [0] * 6)
    tree = fit_tree(predictors(["c"], [cat(2)], [f]), y, cat(3), min_leaf=5)
    assert tree.n_leaves == 2
    assert tree.predict_class((np.asarray([0, 1]),), y).tolist() == [1, 0]


def test_tree_and_donors_survive_pickle():
    """The pool's fit phase sends fitted trees to the parent by pickle."""
    rng = np.random.default_rng(41)
    x = rng.normal(size=200)
    c = rng.integers(0, 3, 200)
    y = x + c + rng.normal(0, 0.3, 200)
    tree = fit_tree(predictors(["x", "c"], [NUM, cat(3)], [x, c]), y, NUM, min_leaf=5)
    fitted = Donors(tree, y)
    cols = (rng.normal(size=500), rng.integers(0, 3, 500))
    assert np.array_equal(pickle.loads(pickle.dumps(tree)).route(cols), tree.route(cols))
    copy = pickle.loads(pickle.dumps(fitted))
    draws = [d.draw(cols, 500, np.random.default_rng(3)) for d in (copy, fitted)]
    assert np.array_equal(*draws)


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
    tree = fit_tree(X, y, NUM, min_leaf=min_leaf)
    donors = leaf_donors(tree)
    assert sorted(i for leaf in donors for i in leaf) == list(range(n))
    assert all(len(leaf) >= min_leaf for leaf in donors)
    leaves = tree.route((x, c))
    assert isinstance(tree, CartTree)
    by_leaf = {}
    for i, leaf in enumerate(leaves.tolist()):
        by_leaf.setdefault(leaf, []).append(i)
    assert sorted(map(tuple, by_leaf.values())) == sorted(map(tuple, donors))


def _digest_or_error(fit, *args, **kwargs) -> str:
    """The digest of the tree that ``fit`` returns, or the FitError it raises."""
    try:
        return _tree_digest(fit(*args, **kwargs))
    except FitError as err:
        return f"FitError: {err}"


def _tree_digest(tree: CartTree) -> str:
    """sha256 of the bytes the tree's per-node form once fed it: the node
    arrays with the right children, then each node's left level codes and
    each node's donor rows, or a "|" where a node has none."""
    h = hashlib.sha256()
    right = np.where(tree.left < 0, -1, tree.left + 1)
    for arr in (tree.feature, tree.threshold, tree.left, right):
        h.update(np.ascontiguousarray(arr).tobytes())
    bounds = zip(tree.donor_start[:-1], tree.donor_start[1:])
    parts = [np.flatnonzero(row) if row.any() else None for row in tree.sends_left]
    parts += [tree.donor_rows[a:b] if b > a else None for a, b in bounds]
    for part in parts:
        h.update(b"|" if part is None else b"#" + np.asarray(part, dtype=np.int64).tobytes())
    return h.hexdigest()


def _digest_fixture(n=240, seed=31):
    rng = np.random.default_rng(seed)
    x1 = np.round(rng.normal(size=n), 1)             # many ties
    x2 = rng.integers(0, 6, n).astype(np.float64)    # few distinct values
    c3 = rng.choice([0, 2], size=n)                  # level 1 declared but absent
    c12 = rng.integers(0, 12, n)                     # > 10 levels: prefix search
    X = predictors(["x1", "x2", "c3", "c12"], [NUM, NUM, cat(3), cat(12)], [x1, x2, c3, c12])
    signal = x1 + 0.5 * (x2 > 2) + 0.8 * (c3 == 2) + np.sin(c12.astype(np.float64))
    y_num = signal + rng.normal(0, 0.5, n)
    y_two = (signal + rng.normal(0, 0.7, n) > 0.9).astype(np.int64)
    y_four = np.digitize(signal + rng.normal(0, 0.7, n), [0.0, 0.9, 1.8])
    return X, {"sse": (y_num, NUM), "gini2": (y_two, cat(2)), "gini4": (y_four, cat(4))}


def _digest_fixture_2k(n=2000, seed=37):
    """Fixture-A-like columns at the size the benchmark fits, as
    ``name -> (predictors, target, kind)``: x and y rounded so that values
    tie, a noisy binary target for the classifier tree, and c1 as a
    three-class target for the synthesis tree."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0.0, 1.0, n), 2)
    y = np.round(2.0 * x + rng.normal(0.0, 0.3, n), 2)
    c1 = np.digitize(x + rng.normal(0.0, 0.25, n), (1.0 / 3.0, 2.0 / 3.0))
    c2 = np.where(rng.random(n) < 0.25, (c1 + 1) % 3, c1)
    c3 = (x + rng.normal(0.0, 0.2, n) > 0.4).astype(np.int64)
    by_c3 = predictors(["x", "y", "c1", "c2"], [NUM, NUM, cat(3), cat(3)], [x, y, c1, c2])
    by_y = predictors(["x", "c1", "c2", "c3"], [NUM, cat(3), cat(3), cat(2)], [x, c1, c2, c3])
    by_c1 = predictors(["x", "y", "c2", "c3"], [NUM, NUM, cat(3), cat(2)], [x, y, c2, c3])
    return {
        "classifier-2k": (by_c3, c3, cat(2)),
        "sse-2k": (by_y, y, NUM),
        "gini3-2k": (by_c1, c1, cat(3)),
    }


# sha256 of each fitted tree; a change here means fitting built a different
# tree, which also changes every CART-based synthetic dataset.
GOLDEN_TREES = {
    ("sse", 1):
        "1725199fc4ef9c62a89d023376d8758085b19dc74463660ef5a2b1d5c110bb31",
    ("sse", 5):
        "2aa514e96fb7bd3a21168010731c897a0f8eb4aa0454254bd25d3aa69d9db469",
    ("gini2", 1):
        "ca7103d216a34dfc4dd0212eb03274898bc00f9a76c82d1cfc31da14f0d67853",
    ("gini2", 5):
        "4d67740f54bf460e8495b92191ae6361f1972cdad5856f1140ca5a44c8b653fd",
    ("gini4", 1):
        "55c44498b78c5e4d06dd77a68df01aef3fac3b2e6a28e0a4a7d98b0a88e5e030",
    ("gini4", 5):
        "a4ed44784db084d91db05be6810e232a228f5047e7e9a9eb9aa2699b6842ddbe",
    # n = 2000: the classifier's sqrt(n) floor and two min_leaf-5 synthesis trees
    ("classifier-2k", 44):
        "c66cc2e0fcc82fb13c90285bd36123990e13cbadbd5c088dc1dc894ff25f7793",
    ("sse-2k", 5):
        "cc4a6f50378aad93b89c49852a27eb8dd3d70e9299e1515a707768c89336dca8",
    ("gini3-2k", 5):
        "79aeba2662ad864f6aa88d0e334d2e0c41c26c3001dff5d4e27897deb587cdbc",
}


def _golden_problems() -> list[CartProblem]:
    """The problems of ``GOLDEN_TREES``, in its order."""
    X, targets = _digest_fixture()
    cases = {name: (X, y, kind) for name, (y, kind) in targets.items()}
    cases.update(_digest_fixture_2k())
    return [CartProblem(*cases[target], min_leaf) for target, min_leaf in GOLDEN_TREES]


def test_tree_digests_are_golden():
    got = {}
    for key, p in zip(GOLDEN_TREES, _golden_problems()):
        got[key] = _tree_digest(fit_tree(p.X, p.y, p.y_kind, min_leaf=p.min_leaf))
    assert got == GOLDEN_TREES


def test_golden_trees_grown_as_one_forest():
    forest = fit_cart(_golden_problems())
    assert dict(zip(GOLDEN_TREES, map(_tree_digest, forest.trees))) == GOLDEN_TREES
    assert forest.n_leaves == sum(tree.n_leaves for tree in forest.trees)


def test_golden_trees_under_small_forest_and_pass_budgets(monkeypatch):
    # every tree grows alone, and a pass of the numeric search holds a few
    # short segments or one long one
    monkeypatch.setattr(cart, "_FOREST_PLACES", 1)
    monkeypatch.setattr(cart, "_PASS_PLACES", 64)
    forest = fit_cart(_golden_problems())
    assert [_tree_digest(tree) for tree in forest.trees] == list(GOLDEN_TREES.values())


def test_golden_forest_under_two_blas_threads():
    """Some of the forest's sums run through BLAS; splitting that work over
    threads must not reorder them."""
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(path)}
    code = (
        "import json, test_cart as t\n"
        "trees = t.fit_cart(t._golden_problems()).trees\n"
        "print(json.dumps([t._tree_digest(tree) for tree in trees]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=300,
    )
    assert json.loads(out.stdout) == list(GOLDEN_TREES.values())


@st.composite
def tree_inputs(draw):
    """(predictors, target, kind, min_leaf): 0-3 numeric predictors rounded
    so that values tie, 0-3 categorical ones with 1-15 declared levels of
    which some may be absent (at least one predictor in all), an SSE target
    or a Gini one with 2-9 classes, and min_leaf from 1 to sqrt(n).

    A numeric predictor may come with its mirror image. The two offer the
    same partitions, so only the rounding of the prefix sums, which depends
    on the order of tied rows, picks between them."""
    n = draw(st.integers(6, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds, cols = [], []
    signal = np.zeros(n)
    n_num = draw(st.integers(0, 3))
    for _ in range(n_num):
        x = np.round(rng.normal(size=n), draw(st.integers(0, 2)))
        kinds.append(NUM)
        cols.append(x)
        signal += rng.normal() * x
        if draw(st.booleans()):
            kinds.append(NUM)
            cols.append(-x)
    for _ in range(draw(st.integers(0 if n_num else 1, 3))):
        declared = draw(st.integers(1, 15))
        used = rng.permutation(declared)[: draw(st.integers(1, declared))]
        codes = rng.choice(used, size=n)
        kinds.append(cat(declared))
        cols.append(codes)
        signal += rng.normal(size=declared)[codes]
    X = predictors([f"p{j}" for j in range(len(cols))], kinds, cols)
    noisy = signal + rng.normal(0.0, draw(st.sampled_from([0.0, 0.3, 1.0])), n)
    if draw(st.booleans()):
        y, kind = np.round(noisy, draw(st.integers(0, 3))), NUM
    else:
        k = draw(st.integers(2, 9))
        y, kind = np.digitize(noisy, np.quantile(noisy, np.arange(1, k) / k)), cat(k)
    return X, y, kind, draw(st.integers(1, max(1, math.isqrt(n))))


def _constant_target():
    x = np.round(np.linspace(0.0, 1.0, 30), 1)
    return predictors(["x", "c"], [NUM, cat(3)], [x, np.arange(30) % 2]), np.full(30, 3.25), NUM, 2


def _huge_values():
    rng = np.random.default_rng(3)
    x = rng.normal(size=40) * 1e300
    c = rng.integers(0, 12, 40)
    y = 1e300 * (x > 0) + rng.normal(size=40) * 1e299
    return predictors(["x", "c"], [NUM, cat(12)], [x, c]), y, NUM, 2


def _mirrored_ties():
    rng = np.random.default_rng(0)
    x = np.round(rng.normal(size=200), 1)
    y = np.round(x + rng.normal(0.0, 0.5, 200), 1)
    return predictors(["x", "-x"], [NUM, NUM], [x, -x]), y, NUM, 5


@settings(max_examples=100, deadline=None)
@given(inputs=tree_inputs())
@example(inputs=_constant_target())
@example(inputs=_huge_values())
@example(inputs=_mirrored_ties())
def test_fit_builds_the_reference_tree(inputs):
    X, y, kind, min_leaf = inputs
    with np.errstate(all="ignore"):
        got = _digest_or_error(fit_tree, X, y, kind, min_leaf=min_leaf)
        want = _digest_or_error(reference_fit_cart, X, y, kind, min_leaf=min_leaf)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(forest=st.lists(tree_inputs(), min_size=1, max_size=6))
@example(forest=[_constant_target(), _huge_values(), _mirrored_ties()])
def test_forest_builds_each_reference_tree(forest):
    """Trees grown together, SSE and Gini mixed, each with its own data,
    predictors and min_leaf, equal the reference tree by tree."""
    problems = [CartProblem(X, np.asarray(y), kind, min_leaf) for X, y, kind, min_leaf in forest]
    with np.errstate(all="ignore"):
        want = [
            _digest_or_error(reference_fit_cart, p.X, p.y, p.y_kind, min_leaf=p.min_leaf)
            for p in problems
        ]
        # A tree that fails its fit fails its forest; the others grow without it.
        grown = [p for p, w in zip(problems, want) if not w.startswith("FitError")]
        if len(grown) < len(problems):
            with pytest.raises(FitError):
                fit_cart(problems)
        got = [_tree_digest(t) for t in fit_cart(grown).trees] if grown else []
    assert got == [w for w in want if not w.startswith("FitError")]
