"""Predictive-mean-matching donor search.

``_donor_places`` finds each query's donors in the sorted fitting
predictions: the rows strictly nearer than the k-th distance (S) and the
rows at exactly that distance (T). ``_sets_by_scan`` is the quadratic
reference that looks at every (query, fitting row) distance; the two must
name the same rows.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthbench.synthesis import _donor_places, _pmm_pick, build_spec, synthesize

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
        # Fitting predictions are finite: fit_ols refuses a non-finite
        # residual sum. Queries may be anything.
        finite = st.floats(allow_nan=False, allow_infinity=False)
        fit = draw(st.lists(finite, min_size=nf, max_size=nf))
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


def _sets_by_scan(fit, q, k):
    """S and T of one query, as row sets, from every distance. A NaN query
    is at no defined distance from any row, so it ties them all."""
    if np.isnan(q):
        return set(), set(range(fit.shape[0]))
    d = np.abs(fit - q)
    dk = np.sort(d)[k - 1]
    return set(np.flatnonzero(d < dk).tolist()), set(np.flatnonzero(d == dk).tolist())


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
# Seen from -3, all three rows round to distance 4, though row 2 is the
# nearest by value: all three are in T.
@example((np.asarray([1 + EPS, 1 + EPS, 1.0]), np.asarray([-3.0]), 2, np.asarray([0.5])))
@example((np.asarray([-1 - EPS, -1 - EPS, -1.0]), np.asarray([3.0]), 2, np.asarray([0.5])))
@example((np.asarray([-TINY, 0.0, TINY, 2 * TINY]), np.asarray([TINY, -0.0]), 2, np.asarray([0.5, 0.9])))
@example((np.asarray([0.0, 1.0, np.inf, 2.0]), np.asarray([1.5]), 2, np.asarray([0.6])))
@example((np.asarray([0.0, 1.0, 2.0]), np.asarray([np.nan, 1.0]), 1, np.asarray([0.6, 0.2])))
def test_donor_places_equal_the_scan(case):
    fit, query, k, u = case
    order = np.argsort(fit, kind="stable")
    sv = fit[order]
    with np.errstate(over="ignore", invalid="ignore"):
        lo, a, b, hi = _donor_places(sv, query, k)
        picked = _pmm_pick(sv, query, k, u, u[::-1])
        want = [_sets_by_scan(fit, q, k) for q in query]
    for i in range(query.shape[0]):
        assert 0 <= lo[i] <= a[i] <= b[i] <= hi[i] <= fit.shape[0]
        S = set(order[a[i]:b[i]].tolist())
        T = set(order[lo[i]:a[i]].tolist()) | set(order[b[i]:hi[i]].tolist())
        assert (S, T) == want[i]
        assert len(S) < k <= len(S) + len(T)
        in_s = min(math.floor(u[i] * k), k - 1) < len(S)
        assert (order[picked[i]] in S) if in_s else (order[picked[i]] in T)


def test_ties_are_broken_at_random():
    # Seen from 1.0 the two rows at 1.0 are nearer than the 5th distance,
    # and the six rows at 0.0 and 2.0, on both sides, are at it.
    sv = np.asarray([0.0] * 3 + [1.0] * 2 + [2.0] * 3 + [5.0] * 3)
    k, s, t, n = 5, 2, 6, 200_000
    rng = np.random.default_rng(2024)
    u = rng.random(n)
    v = rng.random(n)
    freq = np.bincount(_pmm_pick(sv, np.ones(n), k, u, v), minlength=sv.size) / n
    want = np.asarray([(k - s) / (k * t)] * 3 + [1 / k] * 2 + [(k - s) / (k * t)] * 3 + [0.0] * 3)
    # 0.005 is more than 5 binomial sds at these rates and n.
    assert np.abs(freq - want).max() < 0.005


def test_cp_on_fixture_a_keeps_most_values_of_x(fixture_a):
    # x is CP's first numeric column, predicted from the categoricals
    # alone, so its predictions take a few dozen distinct values.
    syn = synthesize(fixture_a, build_spec(fixture_a.schema, "CP"), m=1, seed=7).datasets[0]
    assert np.unique(syn.column("x")).size > 1000
