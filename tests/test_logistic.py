import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthbench.models.logistic as logistic
from conftest import class_probs, loglik_at, score_at
from synthbench.dataset import ColumnKind
from synthbench.errors import FitError
from synthbench.models import fit_logistic
from synthbench.models.design import Predictors, encode_from_predictors
from synthbench.models.logistic import (
    LogisticModel,
    _information,
    _log_probs,
    _row_sums,
    draw_class_many,
)

NUM = ColumnKind.numeric()


def cat(k):
    return ColumnKind.categorical(tuple(f"l{i}" for i in range(k)))


def predictors(names, kinds, cols):
    return Predictors(tuple(names), tuple(kinds), tuple(np.asarray(c) for c in cols))


def fd_score(M, y_pos, B, h=1e-6):
    """Central finite differences of the log-likelihood in each coefficient."""
    g = np.zeros_like(B, dtype=np.float64)
    for i in range(B.shape[0]):
        for j in range(B.shape[1]):
            up = B.copy()
            up[i, j] += h
            dn = B.copy()
            dn[i, j] -= h
            g[i, j] = (loglik_at(M, y_pos, up) - loglik_at(M, y_pos, dn)) / (2 * h)
    return g


def test_score_matches_finite_differences_at_random_point():
    rng = np.random.default_rng(5)
    n, k = 150, 3
    M = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    y_pos = rng.integers(0, k, n)
    B = rng.normal(scale=0.5, size=(k - 1, 3))
    analytic = score_at(M, y_pos, B)
    numeric = fd_score(M, y_pos, B)
    scale = max(1.0, np.abs(analytic).max())
    assert np.abs(analytic - numeric).max() / scale < 1e-6


def test_information_matches_finite_differences_of_score():
    rng = np.random.default_rng(6)
    n, k = 60, 3
    M = np.column_stack([np.ones(n), rng.normal(size=n)])
    y_pos = rng.integers(0, k, n)
    B = rng.normal(scale=0.3, size=(k - 1, 2))
    info = _information(M, np.exp(_log_probs(M, B)))
    h = 1e-6
    p = B.size
    fd = np.zeros((p, p))
    for col in range(p):
        up = B.copy().reshape(-1)
        up[col] += h
        dn = B.copy().reshape(-1)
        dn[col] -= h
        s_up = score_at(M, y_pos, up.reshape(B.shape)).reshape(-1)
        s_dn = score_at(M, y_pos, dn.reshape(B.shape)).reshape(-1)
        fd[:, col] = -(s_up - s_dn) / (2 * h)
    assert np.abs(info - fd).max() < 1e-4


def test_fitted_probabilities_sum_to_class_counts():
    # the intercept score equations force sum_i p_ik = n_k at the optimum
    rng = np.random.default_rng(12)
    x = rng.normal(size=400)
    y = rng.integers(0, 3, 400)
    X = predictors(["x"], [NUM], [x])
    model = fit_logistic(X, y)
    assert model.converged
    probs = class_probs(model, (x,))
    counts = np.bincount(y, minlength=3).astype(np.float64)
    assert probs.sum(axis=0) == pytest.approx(counts.tolist(), abs=1e-5)


def test_recovery_of_generating_coefficients():
    rng = np.random.default_rng(7)
    n = 6000
    x = rng.normal(size=n)
    true_b = np.asarray([[0.4, 1.2], [-0.3, -0.8]])  # classes 1, 2 vs 0
    logits = np.column_stack([np.zeros(n), true_b[0, 0] + true_b[0, 1] * x, true_b[1, 0] + true_b[1, 1] * x])
    expz = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = expz / expz.sum(axis=1, keepdims=True)
    u = rng.random(n)
    y = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
    X = predictors(["x"], [NUM], [x])
    model = fit_logistic(X, y)
    assert model.converged and not model.separated
    assert model.coef == pytest.approx(true_b, abs=0.15)
    assert np.max(np.abs(score_at(np.column_stack([np.ones(n), x]), y, model.coef))) < 1e-6


def test_probabilities_normalize():
    rng = np.random.default_rng(8)
    x = rng.normal(size=500)
    y = rng.integers(0, 3, 500)
    X = predictors(["x"], [NUM], [x])
    model = fit_logistic(X, y)
    probs = class_probs(model, (x,))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    assert probs.min() >= 0.0


def test_separation_is_flagged_and_capped():
    x = np.linspace(-2.0, 2.0, 80)
    y = (x > 0).astype(np.int64)
    X = predictors(["x"], [NUM], [x])
    model = fit_logistic(X, y)
    assert model.separated
    assert np.abs(model.coef).max() <= 30.0


def test_single_observed_class_is_an_error():
    X = predictors(["x"], [NUM], [np.arange(10.0)])
    with pytest.raises(FitError):
        fit_logistic(X, np.zeros(10, dtype=np.int64))


def test_reference_class_is_first_observed():
    rng = np.random.default_rng(9)
    x = rng.normal(size=90)
    y = np.asarray([2, 0, 1] * 30)  # observed classes 0, 1, 2
    model = fit_logistic(predictors(["x"], [NUM], [x]), y)
    assert model.classes == (0, 1, 2)
    assert model.coef.shape == (2, 2)


def _fit_digest(model) -> str:
    h = hashlib.sha256()
    for arr in (model.coef, model.se):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.float64(model.loglik).tobytes())
    h.update(np.int64(model.n_iter).tobytes())
    h.update(np.bool_(model.separated).tobytes())
    return h.hexdigest()


def _stalled_fit_data(fixture_a):
    # A bootstrap resample of fixture-A on which the line search of the
    # c1 ~ x + y fit stops with the score's largest component above 1e-8.
    rows = np.random.default_rng(11).integers(0, fixture_a.n_rows, fixture_a.n_rows)
    x, y = fixture_a.column("x")[rows], fixture_a.column("y")[rows]
    return predictors(["x", "y"], [NUM, NUM], [x, y]), fixture_a.column("c1")[rows]


def _twelve_class_data():
    # Twelve observed classes, so each softmax row sum takes numpy's
    # eight-accumulator branch rather than a plain running sum.
    rng = np.random.default_rng(31)
    n, k = 1500, 12
    x, z = rng.normal(size=n), rng.normal(size=n)
    b = rng.normal(scale=0.7, size=(k, 3))
    y = (b[:, 0] + np.outer(x, b[:, 1]) + np.outer(z, b[:, 2]) + rng.gumbel(size=(n, k))).argmax(axis=1)
    return predictors(["x", "z"], [NUM, NUM], [x, z]), y


def _golden_fits(fixture_a):
    rng = np.random.default_rng(21)
    x = rng.normal(size=300)
    two = (0.3 + 1.1 * x + rng.logistic(size=300) > 0).astype(np.int64)
    sep = np.linspace(-2.0, 2.0, 80)
    fx, fy = fixture_a.column("x"), fixture_a.column("y")
    c1, c3 = fixture_a.column("c1"), fixture_a.column("c3")
    kind_c3 = fixture_a.schema.kind("c3")
    return {
        "two_class": (predictors(["x"], [NUM], [x]), two),
        "fixture_a_c1": (predictors(["x", "y"], [NUM, NUM], [fx, fy]), c1),
        "categorical_predictor": (predictors(["y", "c3"], [NUM, kind_c3], [fy, c3]), c1),
        "separated": (predictors(["x"], [NUM], [sep]), (sep > 0).astype(np.int64)),
        "stalled": _stalled_fit_data(fixture_a),
        "twelve_class": _twelve_class_data(),
    }


# sha256 over each fit's coef, se, loglik, n_iter and separated; a change
# here means Newton's method took different steps or stopped elsewhere.
GOLDEN_FITS = {
    "two_class":
        "2f5859f2208d853518278954a91882105cfc7d4156013db8d4b5f8c9a442701b",
    "fixture_a_c1":
        "0e3e704ee6bfb0fc435a4385743388c5c46f954cc8e9dcb66831dd4a91ad158c",
    "categorical_predictor":
        "1771386542dbb3c564f677683956f0ad3b301311ae8b36547b5f22a4630d56b8",
    "separated":
        "fdaf98f0841b4842de8e22dd41c7db1ea05bbb917c176bf2bb5893d1f9e7ea54",
    "stalled":
        "974475f711d2a74f7b47c0ab19c76ecf6ef3b7dc813c39989cf6618d69870e9d",
    "twelve_class":
        "d046585924ae88f9a6767459801fdf44e8f3a91b735d3ae83baabc6a23fb9cf0",
}


def test_fit_digests_are_golden(fixture_a):
    got = {name: _fit_digest(fit_logistic(X, y)) for name, (X, y) in _golden_fits(fixture_a).items()}
    assert got == GOLDEN_FITS


# sha256 over the int64 classes drawn at a fixed seed: a change here means
# the class probabilities or the cumulative-sum pick moved.
GOLDEN_DRAWS = {
    "two_class":
        "dc8279ef4c0b39c4e113ee411cf2e18252353727975f9adc50fe7b196965c945",
    "twelve_class":
        "8f59d87c6770c7b8a1fb563bf34ad18804e2ca2cd45253dd670671cf1ff56a3e",
}


def test_class_draws_are_golden(fixture_a):
    fits = _golden_fits(fixture_a)
    got = {}
    for name in GOLDEN_DRAWS:
        X, y = fits[name]
        drawn = draw_class_many(fit_logistic(X, y), X.cols, np.random.default_rng(41))
        got[name] = hashlib.sha256(np.ascontiguousarray(drawn, dtype=np.int64).tobytes()).hexdigest()
    assert got == GOLDEN_DRAWS


class _TopDraws:
    """Stands in for a generator whose uniform draws all sit just below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


def test_a_draw_above_every_cumulative_probability_takes_the_last_class():
    # Rounding leaves some rows' cumulative probabilities just below 1, so
    # the largest uniform draw exceeds all of them.
    rng = np.random.default_rng(17)
    x = rng.normal(size=500)
    model = fit_logistic(predictors(["x"], [NUM], [x]), rng.integers(0, 5, 500))
    drawn = draw_class_many(model, (x,), _TopDraws())
    assert set(drawn.tolist()) == {model.classes[-1]}


def test_a_stalled_fit_at_the_optimum_reports_convergence(fixture_a, monkeypatch):
    X, y = _stalled_fit_data(fixture_a)
    model = fit_logistic(X, y)
    M = model.encoding.encode(X.cols)
    y_pos = np.searchsorted(np.asarray(model.classes), y)
    # The score alone would not pass the 1e-8 bound ...
    assert np.abs(score_at(M, y_pos, model.coef)).max() > 1e-8
    # ... but the Newton decrement shows nothing is left to gain.
    assert model.converged and not model.separated
    assert _fit_digest(model) == GOLDEN_FITS["stalled"]
    # The decrement is held to the same tolerance.
    monkeypatch.setattr(logistic, "_TOL", 1e-20)
    assert not fit_logistic(X, y).converged


def test_a_separated_fit_does_not_report_convergence():
    x = np.linspace(-2.0, 2.0, 80)
    model = fit_logistic(predictors(["x"], [NUM], [x]), (x > 0).astype(np.int64))
    assert model.separated and not model.converged


def test_an_overflowing_information_matrix_is_a_fit_error(fixture_a):
    # x near 1e300: the information matrix overflows, and the fit reported
    # convergence with nan standard errors
    X = predictors(["x"], [NUM], [fixture_a.column("x")[:50] * 1e300])
    with pytest.raises(FitError, match="not finite"):
        fit_logistic(X, fixture_a.column("c3")[:50])


def _nonnegative(rows, width, seed, exponent, zero_share):
    """Non-negative values below 10**(exponent + 3), subnormal for exponents
    below -308, with about ``zero_share`` of them set to zero."""
    rng = np.random.default_rng(seed)
    X = rng.random((rows, width)) * 10.0 ** rng.uniform(exponent, exponent + 3, (rows, width))
    X[rng.random((rows, width)) < zero_share] = 0.0
    return X


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 8),
    width=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-323, 297),
    zero_share=st.sampled_from([0.0, 0.1, 0.9]),
)
@example(rows=8, width=8, seed=1, exponent=0, zero_share=0.0)
@example(rows=8, width=128, seed=2, exponent=0, zero_share=0.0)
@example(rows=8, width=129, seed=3, exponent=-1, zero_share=0.0)
@example(rows=8, width=256, seed=4, exponent=297, zero_share=0.1)
@example(rows=8, width=257, seed=5, exponent=-320, zero_share=0.1)
def test_row_sums_add_in_the_order_of_a_numpy_row_sum(rows, width, seed, exponent, zero_share):
    X = _nonnegative(rows, width, seed, exponent, zero_share)
    assert _row_sums(np.ascontiguousarray(X.T)).tobytes() == X.sum(axis=1).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 12),
    n=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.1, 3.0, 30.0]),
)
def test_class_draws_follow_the_cumulative_sum_rule(k, n, seed, scale):
    rng = np.random.default_rng(seed)
    enc, _ = encode_from_predictors(predictors(["x"], [NUM], [rng.normal(size=5)]))
    classes = tuple(sorted(rng.choice(100, size=k, replace=False).tolist()))
    coef = rng.normal(scale=scale, size=(k - 1, 2))
    model = LogisticModel(
        encoding=enc, classes=classes, coef=coef, se=None,
        n_iter=0, converged=True, separated=False, loglik=0.0,
    )
    x = rng.normal(size=n)
    # The rule written out with numpy's row-wise cumulative sums.
    P = class_probs(model, (x,))
    P = P / P.sum(axis=1)[:, None]
    u = np.random.default_rng(seed + 1).random(n)
    picks = np.minimum((np.cumsum(P, axis=1) <= u[:, None]).sum(axis=1), k - 1)
    drawn = draw_class_many(model, (x,), np.random.default_rng(seed + 1))
    assert drawn.tolist() == np.asarray(classes)[picks].tolist()
