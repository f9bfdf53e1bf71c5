import numpy as np
import pytest

from synthbench.dataset import ColumnKind
from synthbench.errors import FitError
from synthbench.models import fit_ols
from synthbench.models.linear import draw_linear_many
from synthbench.models.design import Predictors, encode_from_predictors

NUM = ColumnKind.numeric()


def cat(k):
    return ColumnKind.categorical(tuple(f"l{i}" for i in range(k)))


def predictors(names, kinds, cols):
    return Predictors(tuple(names), tuple(kinds), tuple(np.asarray(c) for c in cols))


def test_exact_recovery_without_noise():
    rng = np.random.default_rng(1)
    x = rng.normal(size=40)
    c = rng.integers(0, 2, 40)
    y = 3.0 + 2.0 * x - 1.5 * (c == 1)
    X = predictors(["x", "c"], [NUM, cat(2)], [x, c])
    model = fit_ols(X, y)
    assert model.coef_names == ("intercept", "x", "c=l1")
    assert model.coef == pytest.approx([3.0, 2.0, -1.5], abs=1e-9)
    assert model.residual_sd == pytest.approx(0.0, abs=1e-7)
    assert not model.ridged


def test_standard_errors_match_closed_form():
    rng = np.random.default_rng(2)
    x = rng.normal(size=200)
    y = 1.0 + 0.5 * x + rng.normal(0, 0.7, 200)
    X = predictors(["x"], [NUM], [x])
    model = fit_ols(X, y)

    M = np.column_stack([np.ones(200), x])
    beta = np.linalg.solve(M.T @ M, M.T @ y)
    resid = y - M @ beta
    sigma2 = (resid @ resid) / (200 - 2)
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(M.T @ M)))
    assert model.coef == pytest.approx(beta.tolist(), rel=1e-10)
    assert model.se == pytest.approx(se.tolist(), rel=1e-10)
    assert model.residual_sd == pytest.approx(float(np.sqrt(sigma2)), rel=1e-10)


def test_reference_level_is_first_declared():
    c = np.asarray([0, 1, 2, 0, 1, 2, 0, 1])
    y = np.asarray([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0])
    X = predictors(["c"], [cat(3)], [c])
    model = fit_ols(X, y)
    assert model.coef_names == ("intercept", "c=l1", "c=l2")
    assert model.coef == pytest.approx([1.0, 1.0, 2.0], abs=1e-9)


def test_rank_deficiency_sets_ridged_flag():
    x = np.arange(12.0)
    X = predictors(["x", "x2"], [NUM, NUM], [x, 2.0 * x])
    model = fit_ols(X, np.arange(12.0))
    assert model.ridged
    assert np.all(np.isfinite(model.coef))
    assert np.all(np.isfinite(model.se))


@pytest.mark.parametrize(
    "design, ridged",
    [
        ("full rank", False),
        ("duplicated column", True),
        ("absent dummy level", True),
        ("duplicate scaled by 3e-9", True),
        ("duplicate plus 3e-9 noise", False),
    ],
)
def test_ridged_flag_agrees_with_matrix_rank(design, ridged):
    rng = np.random.default_rng(5)
    x = rng.normal(size=60)
    c = rng.integers(0, 3, 60)
    names, kinds, cols = ["x", "c"], [NUM, cat(3)], [x, c]
    if design == "duplicated column":
        names, kinds, cols = names + ["x2"], kinds + [NUM], cols + [x.copy()]
    elif design == "absent dummy level":
        kinds[1] = cat(4)  # level l3 never occurs, so its dummy column is all zero
    elif design == "duplicate scaled by 3e-9":
        names, kinds, cols = names + ["x2"], kinds + [NUM], cols + [3e-9 * x]
    elif design == "duplicate plus 3e-9 noise":
        names, kinds, cols = names + ["x2"], kinds + [NUM], cols + [x + 3e-9 * rng.normal(size=60)]
    X = predictors(names, kinds, cols)
    _, M = encode_from_predictors(X)
    assert (np.linalg.matrix_rank(M) < M.shape[1]) == ridged
    assert fit_ols(X, x + rng.normal(size=60)).ridged == ridged


def test_needs_more_rows_than_parameters():
    X = predictors(["x"], [NUM], [np.asarray([1.0, 2.0])])
    with pytest.raises(FitError):
        fit_ols(X, np.asarray([1.0, 2.0]))


def test_draw_linear_matches_prediction_and_spread():
    rng = np.random.default_rng(3)
    x = rng.normal(size=300)
    y = 2.0 + 1.0 * x + rng.normal(0, 0.5, 300)
    X = predictors(["x"], [NUM], [x])
    model = fit_ols(X, y)
    draw_rng = np.random.default_rng(4)
    draws = draw_linear_many(model, (np.full(20_000, 1.5),), draw_rng)
    assert draws.mean() == pytest.approx(model.predict((np.asarray([1.5]),))[0], abs=0.02)
    assert draws.std() == pytest.approx(model.residual_sd, abs=0.02)


def test_encoding_round_trip():
    c = np.asarray([0, 2, 1, 0])
    x = np.asarray([1.0, 2.0, 3.0, 4.0])
    X = predictors(["x", "c"], [NUM, cat(3)], [x, c])
    enc, M = encode_from_predictors(X)
    assert M.shape == (4, 4)  # intercept, x, c=l1, c=l2
    assert M[:, 0].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert M[:, 1].tolist() == x.tolist()
    assert M[:, 2].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert M[:, 3].tolist() == [0.0, 1.0, 0.0, 0.0]
    row = enc.encode((np.asarray([2.5]), np.asarray([2])))
    assert row.tolist() == [[1.0, 2.5, 0.0, 1.0]]
