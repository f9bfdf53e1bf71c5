"""Predictive-mean-matching donor search.

``_pmm_pick`` searches a window of 2k sorted candidates per query and hands
rows where rounding could reorder that window to ``_pmm_pick_exhaustive``,
the quadratic reference. The two must agree element for element.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthbench.synthesis as synthesis
from synthbench.dataset import ColumnKind
from synthbench.models import fit_ols
from synthbench.models.design import Predictors
from synthbench.synthesis import _pmm_pick, _pmm_pick_exhaustive

EPS = float(np.finfo(np.float64).eps)
TINY = 5e-324
FAR = (1e3, -1e3, 1e16, -1e16, 0.0, -0.0, np.inf, -np.inf, np.nan)


@st.composite
def pmm_cases(draw):
    k = draw(st.integers(1, 6))
    nf = draw(st.integers(k, 40))
    kind = draw(st.sampled_from(("ties", "cluster", "subnormal", "any")))
    if kind == "ties":
        pool = draw(st.lists(st.floats(-10, 10), min_size=1, max_size=4))
    elif kind == "cluster":
        pool = [1.0 + j * EPS for j in range(8)]
    elif kind == "subnormal":
        pool = [j * TINY for j in range(-4, 5)]
    if kind == "any":
        fit = draw(st.lists(st.floats(), min_size=nf, max_size=nf))
    else:
        fit = draw(st.lists(st.sampled_from(pool), min_size=nf, max_size=nf))
    near = st.sampled_from(fit)
    query_value = st.one_of(
        near,
        near.map(lambda v: math.nextafter(v, math.inf)),
        near.map(lambda v: math.nextafter(v, -math.inf)),
        st.sampled_from(FAR),
        st.floats(-10, 10),
        st.floats(),
    )
    nq = draw(st.integers(0, 20))
    query = draw(st.lists(query_value, min_size=nq, max_size=nq))
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=nq, max_size=nq))
    return np.asarray(fit, dtype=np.float64), np.asarray(query, dtype=np.float64), k, np.asarray(u)


def _both(fit, query, k, u):
    donors = np.arange(fit.shape[0], dtype=np.float64)  # a pick's value is its row id
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            _pmm_pick(fit, donors, query, k, u),
            _pmm_pick_exhaustive(fit, donors, query, k, u),
        )


def _count_fallback_rows(monkeypatch):
    rows = []

    def spy(fit_preds, fitting_y, query_preds, k, u):
        rows.append(query_preds.shape[0])
        return _pmm_pick_exhaustive(fit_preds, fitting_y, query_preds, k, u)

    monkeypatch.setattr(synthesis, "_pmm_pick_exhaustive", spy)
    return rows


@settings(max_examples=400, deadline=None)
@given(pmm_cases())
@example((np.full(6, 2.0), np.asarray([2.0, 1.0, 3.0]), 6, np.asarray([0.0, 0.5, 0.99])))
@example(
    (
        1.0 + np.arange(8.0)[::-1] * EPS,
        np.asarray([1e3, -1e3, 1e16, 1.0]),
        3,
        np.asarray([0.1, 0.4, 0.7, 0.9]),
    )
)
# Seen from -3, all three rows round to distance 4, so rows 0 and 1 are the
# two nearest, though row 2 sorts first by value.
@example((np.asarray([1 + EPS, 1 + EPS, 1.0]), np.asarray([-3.0]), 2, np.asarray([0.5])))
@example((np.asarray([-1 - EPS, -1 - EPS, -1.0]), np.asarray([3.0]), 2, np.asarray([0.5])))
@example((np.asarray([-TINY, 0.0, TINY, 2 * TINY]), np.asarray([TINY, -0.0]), 2, np.asarray([0.5, 0.9])))
@example((np.asarray([0.0, 1.0, np.inf, 2.0]), np.asarray([1.5]), 2, np.asarray([0.6])))
@example((np.asarray([0.0, 1.0, 2.0]), np.asarray([np.nan, 1.0]), 1, np.asarray([0.6, 0.2])))
def test_windowed_search_equals_exhaustive(case):
    fast, ref = _both(*case)
    assert fast.tobytes() == ref.tobytes()


def test_rounding_collapse_goes_to_the_exhaustive_search(monkeypatch):
    # Viewed from 1e16 or -1e3 every 1 + j*eps rounds to one distance, so
    # the lowest row ids win, and those hold the largest values.
    fit = 1.0 + np.arange(12.0)[::-1] * EPS
    query = np.asarray([1e16, -1e3, 1.0])
    u = np.asarray([0.0, 0.99, 0.5])
    fast, ref = _both(fit, query, 5, u)
    assert fast.tobytes() == ref.tobytes()
    assert fast[:2].tolist() == [0.0, 4.0]
    rows = _count_fallback_rows(monkeypatch)
    _both(fit, query, 5, u)
    assert rows == [2]


def test_categorical_only_predictions_take_no_fallback(monkeypatch):
    """CP fits numeric columns on categorical predictors, so predictions are
    heavily tied; exact ties must stay on the windowed path."""
    rng = np.random.default_rng(11)
    n = 2000
    cats = tuple(rng.integers(0, 3, n) for _ in range(3))
    kind = ColumnKind.categorical(("a", "b", "c"))
    X = Predictors(("c1", "c2", "c3"), (kind,) * 3, cats)
    x = rng.uniform(0.0, 1.0, n) + 0.3 * cats[0] - 0.2 * cats[1] + 0.1 * cats[2]
    lm = fit_ols(X, x)
    fit = lm.predict(X.cols)
    assert np.unique(fit).size == 27
    rows = rng.integers(0, n, n)
    query = lm.predict(tuple(c[rows] for c in cats))
    u = rng.random(n)
    ref = _pmm_pick_exhaustive(fit, x, query, 5, u)
    fallback_rows = _count_fallback_rows(monkeypatch)
    out = _pmm_pick(fit, x, query, 5, u)
    assert fallback_rows == []
    assert out.tobytes() == ref.tobytes()
