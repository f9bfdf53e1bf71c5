import json
import math
import random
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthbench.dataset import Column, ColumnKind, Dataset, Schema
from synthbench.errors import EstimandError
from synthbench.estimands import (
    EstimateSet,
    ci,
    combine,
    estimate_set_from,
    FitSpec,
    load_fitspecs,
    mean_point_estimand,
    normal_interval,
    regression_estimands,
)
from synthbench.models import fit_ols
from synthbench.models.design import Predictors


def test_worked_example_exact():
    est = EstimateSet("e", (1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
    out = combine(est, "Tp")
    assert out.q_bar == 2.0
    assert out.v_bar == 0.0
    assert abs(out.b - 1.0) < 1e-12
    assert abs(out.t_p - 1.0 / 3.0) < 1e-12
    out_s = combine(est, "Ts")
    assert out_s.t_s == 0.0


def test_single_dataset_variance():
    out = combine(EstimateSet("e", (5.0,), (0.7,)), "Ts")
    assert out.m == 1
    assert out.t_s == 2.0 * 0.7
    assert out.b is None and out.t_p is None
    with pytest.raises(EstimandError):
        combine(EstimateSet("e", (5.0,), (0.7,)), "Tp")


def test_between_variance_zero_iff_equal_points():
    q = 1.2345678901234567
    equal = combine(EstimateSet("e", (q, q, q, q), (1.0, 2.0, 3.0, 4.0)))
    assert equal.b == 0.0
    nudged = combine(EstimateSet("e", (q, q, q, np.nextafter(q, 2.0)), (1.0, 2.0, 3.0, 4.0)))
    assert nudged.b > 0.0


def test_permutation_invariance_is_exact():
    rng = random.Random(13)
    q = tuple(rng.uniform(-5, 5) for _ in range(7))
    v = tuple(rng.uniform(0, 2) for _ in range(7))
    base = combine(EstimateSet("e", q, v), "Tp")
    order = list(range(7))
    for _ in range(50):
        rng.shuffle(order)
        perm = combine(
            EstimateSet("e", tuple(q[i] for i in order), tuple(v[i] for i in order)), "Tp"
        )
        assert perm.q_bar == base.q_bar
        assert perm.v_bar == base.v_bar
        assert perm.b == base.b
        assert perm.t_p == base.t_p


@settings(max_examples=60, deadline=None)
@given(
    qs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    seed=st.integers(0, 99999),
)
@example(qs=[699050.9144240941] * 3, seed=0)
def test_ts_identity_and_mean_bounds(qs, seed):
    rng = random.Random(seed)
    v = tuple(rng.uniform(0.0, 10.0) for _ in qs)
    out = combine(EstimateSet("e", tuple(qs), v), "Ts")
    m = len(qs)
    assert out.t_s == (1.0 + 1.0 / m) * out.v_bar
    assert min(qs) <= out.q_bar <= max(qs)


def test_combined_total_variance_field():
    est = EstimateSet("e", (1.0, 2.0), (0.5, 0.5))
    assert combine(est, "Ts").total_variance == combine(est, "Ts").t_s
    assert combine(est, "Tp").total_variance == combine(est, "Tp").t_p


def test_normal_interval_uses_z_quantile():
    z = NormalDist().inv_cdf(0.975)
    interval = normal_interval(3.0, 4.0, 0.95)
    assert interval.lower == pytest.approx(3.0 - z * 2.0, abs=1e-12)
    assert interval.upper == pytest.approx(3.0 + z * 2.0, abs=1e-12)
    assert interval.center == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(EstimandError):
        normal_interval(0.0, -1.0)
    with pytest.raises(EstimandError):
        normal_interval(0.0, 1.0, level=1.0)


def test_ci_of_combined_estimate():
    out = combine(EstimateSet("e", (2.0, 2.0), (1.0, 1.0)), "Ts")
    interval = ci(out, 0.95)
    z = NormalDist().inv_cdf(0.975)
    assert interval.center == 2.0
    assert interval.upper - interval.lower == pytest.approx(2 * z * math.sqrt(1.5), rel=1e-12)


def test_mean_point_estimand_hand_value():
    schema = Schema((Column("x", ColumnKind.numeric()),))
    ds = Dataset(schema, (np.asarray([1.0, 2.0, 3.0, 4.0]),))
    q, v = mean_point_estimand(ds, "x")
    assert q == 2.5
    assert v == pytest.approx((5.0 / 3.0) / 4.0, rel=1e-12)
    with pytest.raises(EstimandError):
        mean_point_estimand(Dataset(schema, (np.asarray([1.0]),)), "x")


def test_regression_estimands_match_direct_fit():
    rng = np.random.default_rng(4)
    n = 120
    x = rng.normal(size=n)
    c = rng.integers(0, 3, n)
    y = 1.0 + 2.0 * x + 0.5 * (c == 1) + rng.normal(0, 0.4, n)
    schema = Schema(
        (
            Column("x", ColumnKind.numeric()),
            Column("y", ColumnKind.numeric()),
            Column("c", ColumnKind.categorical(("a", "b", "z"))),
        )
    )
    ds = Dataset(schema, (x, y, c))
    fit = FitSpec("f", "linear", "y", ("x", "c"))
    coefs = regression_estimands(ds, fit)

    X = Predictors(("x", "c"), (schema.kind("x"), schema.kind("c")), (x, c))
    model = fit_ols(X, y)
    assert tuple(cf.name for cf in coefs) == model.coef_names
    for cf, q, se in zip(coefs, model.coef, model.se):
        assert cf.q == q
        assert cf.v == se**2


def test_logistic_estimand_names_include_class():
    rng = np.random.default_rng(5)
    n = 300
    x = rng.normal(size=n)
    c = (x + rng.normal(0, 1, n) > 0).astype(np.int64)
    schema = Schema(
        (
            Column("x", ColumnKind.numeric()),
            Column("c", ColumnKind.categorical(("no", "yes"))),
        )
    )
    ds = Dataset(schema, (x, c))
    coefs = regression_estimands(ds, FitSpec("g", "logistic", "c", ("x",)))
    assert [cf.name for cf in coefs] == ["yes:intercept", "yes:x"]


def test_estimate_set_from_pairs():
    est = estimate_set_from("id", [(1.0, 0.1), (2.0, 0.2)])
    assert est.q == (1.0, 2.0)
    assert est.v == (0.1, 0.2)
    with pytest.raises(EstimandError):
        estimate_set_from("id", [])
    with pytest.raises(EstimandError):
        estimate_set_from("id", [(1.0, -0.5)])


def test_load_fitspecs_validation(tmp_path):
    good = {
        "fits": [
            {"id": "f1", "family": "linear", "target": "y", "predictors": ["x"]},
        ]
    }
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(good))
    fits = load_fitspecs(path)
    assert fits[0].id == "f1" and fits[0].family == "linear"

    bad_cases = [
        {"fits": [{"id": "f", "family": "poisson", "target": "y", "predictors": []}]},
        {"fits": [{"id": "f", "family": "linear", "target": "y", "predictors": ["y"]}]},
        {
            "fits": [
                {"id": "f", "family": "linear", "target": "y", "predictors": ["x"]},
                {"id": "f", "family": "linear", "target": "x", "predictors": ["y"]},
            ]
        },
    ]
    for doc in bad_cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(EstimandError):
            load_fitspecs(path)
