import json
import math
import random
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthbench.config import MetricSettings
from synthbench.dataset import Column, ColumnKind, Dataset, Schema
from synthbench.errors import EstimandError
from synthbench.estimands import (
    combine,
    FitSpec,
    load_fitspecs,
    mean_point_estimand,
    normal_interval,
    regression_estimands,
)
from synthbench.harness import metric_rows, original_side
from synthbench.models import fit_ols
from synthbench.models.design import Predictors
from synthbench.synthesis import SyntheticSet


def test_worked_example_exact():
    pairs = [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    assert combine(pairs, "Tp") == (2.0, 1.0 / 3.0)
    assert combine(pairs, "Ts") == (2.0, 0.0)


def test_single_dataset_variance():
    assert combine([(5.0, 0.7)], "Ts") == (5.0, 2.0 * 0.7)
    with pytest.raises(EstimandError, match="at least two datasets"):
        combine([(5.0, 0.7)], "Tp")


def test_between_variance_zero_iff_equal_points():
    # Points this large are an ulp of about 2.4e-4 apart, so one ulp's
    # between-variance b/m shows in T against v_bar = 2.5.
    q = 1.2345678901234567e12
    v = (1.0, 2.0, 3.0, 4.0)
    assert combine(list(zip((q, q, q, q), v)), "Tp") == (q, math.fsum(v) / 4)
    _, t = combine(list(zip((q, q, q, np.nextafter(q, 2e12)), v)), "Tp")
    assert t > math.fsum(v) / 4


def test_permutation_invariance_is_exact():
    rng = random.Random(13)
    q = [rng.uniform(-5, 5) for _ in range(7)]
    v = [rng.uniform(0, 2) for _ in range(7)]
    pairs = list(zip(q, v))
    base = {rule: combine(pairs, rule) for rule in ("Ts", "Tp")}
    for _ in range(50):
        rng.shuffle(pairs)
        for rule in ("Ts", "Tp"):
            assert combine(pairs, rule) == base[rule]


@settings(max_examples=60, deadline=None)
@given(
    qs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    seed=st.integers(0, 99999),
)
@example(qs=[699050.9144240941] * 3, seed=0)
def test_ts_identity_and_mean_bounds(qs, seed):
    rng = random.Random(seed)
    vs = [rng.uniform(0.0, 10.0) for _ in qs]
    q_bar, t = combine(list(zip(qs, vs)), "Ts")
    m = len(qs)
    assert t == (1.0 + 1.0 / m) * (math.fsum(vs) / m)
    assert min(qs) <= q_bar <= max(qs)


def test_combined_total_variance_field():
    # q_bar 2, v_bar 0.5, b = ((1 - 2)^2 + (3 - 2)^2) / 1 = 2
    pairs = [(1.0, 0.5), (3.0, 0.5)]
    assert combine(pairs, "Ts") == (2.0, (1.0 + 1.0 / 2) * 0.5)
    assert combine(pairs, "Tp") == (2.0, 0.5 + 2.0 / 2)


def test_combine_rejects_bad_pairs_and_rules():
    with pytest.raises(EstimandError, match="no estimates"):
        combine([])
    with pytest.raises(EstimandError, match="non-negative"):
        combine([(1.0, 0.1), (2.0, -0.5)])
    with pytest.raises(EstimandError, match="unknown combining rule"):
        combine([(1.0, 0.1), (2.0, 0.2)], "Tq")


def test_normal_interval_uses_z_quantile():
    z = NormalDist().inv_cdf(0.975)
    lower, upper = normal_interval(3.0, 4.0, 0.95)
    assert lower == pytest.approx(3.0 - z * 2.0, abs=1e-12)
    assert upper == pytest.approx(3.0 + z * 2.0, abs=1e-12)
    assert (lower + upper) / 2.0 == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(EstimandError):
        normal_interval(0.0, -1.0)
    with pytest.raises(EstimandError):
        normal_interval(0.0, 1.0, level=1.0)


def test_ci_of_combined_estimate():
    lower, upper = normal_interval(*combine([(2.0, 1.0), (2.0, 1.0)], "Ts"), 0.95)
    z = NormalDist().inv_cdf(0.975)
    assert (lower + upper) / 2.0 == 2.0
    assert upper - lower == pytest.approx(2 * z * math.sqrt(1.5), rel=1e-12)


def test_mean_point_estimand_hand_value():
    schema = Schema((Column("x", ColumnKind.numeric()),))
    ds = Dataset(schema, (np.asarray([1.0, 2.0, 3.0, 4.0]),))
    q, v = mean_point_estimand(ds, "x")
    assert q == 2.5
    assert v == pytest.approx((5.0 / 3.0) / 4.0, rel=1e-12)
    with pytest.raises(EstimandError):
        mean_point_estimand(Dataset(schema, (np.asarray([1.0]),)), "x")
    # s^2 overflows near 1e300, and the mean past the largest double
    for x in ([1e300, -1e300, 3.0], [1.7e308, 1.7e308]):
        with pytest.raises(EstimandError, match="'x'.*not finite"):
            mean_point_estimand(Dataset(schema, (np.asarray(x),)), "x")


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
    assert tuple(coefs) == model.coef_names
    for (q, v), coef, se in zip(coefs.values(), model.coef, model.se):
        assert q == coef
        assert v == se**2


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
    assert list(coefs) == ["yes:intercept", "yes:x"]


def test_a_repeated_coefficient_name_is_an_error():
    # Two coefficients under one name gave two rf_cio rows with one key, and
    # the summary averaged them together.
    rng = np.random.default_rng(6)
    n = 80
    schema = Schema(
        (
            Column("intercept", ColumnKind.numeric()),
            Column("y", ColumnKind.numeric()),
            Column("c", ColumnKind.categorical(("w", "x"))),
            Column("c=x", ColumnKind.numeric()),
            Column("b", ColumnKind.categorical(("no", "yes"))),
        )
    )
    ds = Dataset(
        schema,
        (rng.normal(size=n), rng.normal(size=n), rng.integers(0, 2, n),
         rng.normal(size=n), rng.integers(0, 2, n)),
    )
    repeats = {
        FitSpec("own", "linear", "y", ("intercept",)): "intercept",
        FitSpec("dummy", "linear", "y", ("c", "c=x")): "c=x",
        FitSpec("class", "logistic", "b", ("intercept",)): "yes:intercept",
    }
    for fit, name in repeats.items():
        with pytest.raises(EstimandError, match=f"fit '{fit.id}': coefficient name '{name}' repeats"):
            regression_estimands(ds, fit)

    good = FitSpec("good", "linear", "y", ("c=x",))
    sset = SyntheticSet(label="S", seed=0, datasets=(ds, ds), wall_times=(0.0, 0.0))
    settings_ = MetricSettings(mean_point=False, kl=False)
    fits = (*repeats, good)
    side = original_side(ds, settings_, fits, ())
    rows, errors = metric_rows(ds, sset, settings_, fits, (), side=side)
    assert [stage for stage, _ in errors] == ["fit:own", "fit:dummy", "fit:class"]
    scopes = [scope for metric, scope, _ in rows[2] if metric == "rf_cio"]
    assert scopes == ["fit:good:coef:intercept", "fit:good:coef:c=x"]


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
        {"fits": [{"id": "f", "family": "poisson", "target": "y", "predictors": ["x"]}]},
        {"fits": [{"id": "f", "family": "linear", "target": "y", "predictors": ["y"]}]},
        {
            "fits": [
                {"id": "f", "family": "linear", "target": "y", "predictors": ["x"]},
                {"id": "f", "family": "linear", "target": "x", "predictors": ["y"]},
            ]
        },
        # A string is not split into one-letter column names.
        {"fits": [{"id": "f", "family": "linear", "target": "y", "predictors": "xc"}]},
        {"fits": [{"id": "f", "family": "linear", "target": "y", "predictors": "x"}]},
        {"fits": [{"id": "f", "family": "linear", "target": "y", "predictors": [1]}]},
    ]
    for doc in bad_cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(EstimandError):
            load_fitspecs(path)
    # a key outside the grammar is an error naming it, not a note left unread
    good["fits"][0]["note"] = "simple regression"
    path.write_text(json.dumps(good))
    with pytest.raises(EstimandError, match=r"fits\.json: unknown key 'note' in fits\[0\]$"):
        load_fitspecs(path)


def test_a_fit_needs_predictors(tmp_path):
    # An intercept-only fit failed in every cell; it is refused when it loads.
    path = tmp_path / "fits.json"
    for entry in ({"predictors": []}, {}):
        entry.update(id="mean_y", family="linear", target="y")
        path.write_text(json.dumps({"fits": [entry]}))
        with pytest.raises(EstimandError, match="fit 'mean_y': predictors must be a non-empty"):
            load_fitspecs(path)


def test_fit_ids_must_be_strings(tmp_path):
    # 1 and "1" would pass the duplicate check and share the scope fit:1.
    path = tmp_path / "fits.json"
    for ids in ([1, "1"], [1], [None], [["f"]]):
        fits = [
            {"id": i, "family": "linear", "target": "y", "predictors": ["x"]} for i in ids
        ]
        path.write_text(json.dumps({"fits": fits}))
        with pytest.raises(EstimandError, match="id must be a string"):
            load_fitspecs(path)
