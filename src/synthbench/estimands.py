"""Point estimands, multi-dataset combining rules, and confidence intervals.

An estimate is a plain (q, v) pair: a point estimate and its within-dataset
variance. An estimand is computed once per synthetic dataset, giving m pairs
(q_i, v_i). ``combine`` makes them one pair again, (q_bar, T): q_bar the
mean of the q_i and T a total variance built on the mean v_bar of the v_i
by one of two rules:

* ``Ts`` (the default): (1 + 1/m) * v_bar, defined for any m >= 1.
* ``Tp``: v_bar + b/m with b the between-dataset variance of the q_i,
  defined only for m >= 2.

An interval is a plain (lower, upper) pair. ``normal_interval`` builds it
around a center with half-width z * sqrt(variance), so the interval of a
combined estimate is ``normal_interval(*combine(pairs))``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .dataset import Dataset, JsonFields, Schema, read_json
from .errors import EstimandError, FitError
from .models.design import Predictors
from .models.linear import fit_ols
from .models.logistic import fit_logistic

RULES = ("Ts", "Tp")


def combine(pairs: Sequence[tuple[float, float]], rule: str = "Ts") -> tuple[float, float]:
    """Combine the (q_i, v_i) pairs of m datasets into the pair (q_bar, T):
    the mean point estimate and the total variance of ``rule``.

    Exactly-summed (math.fsum), so the result is invariant under permutation
    of the datasets, and Tp's T is exactly v_bar when all q_i coincide. The
    final division can round q_bar one ulp outside [min q_i, max q_i] (three
    copies of 699050.9144240941 average one ulp low); it is clamped back.
    """
    if rule not in RULES:
        raise EstimandError(f"unknown combining rule {rule!r}")
    if not pairs:
        raise EstimandError("no estimates to combine")
    q, v = zip(*pairs)
    if any(x < 0 for x in v):
        raise EstimandError("variances must be non-negative")
    m = len(q)
    if rule == "Tp" and m < 2:
        raise EstimandError("rule Tp needs at least two datasets")
    q_bar = min(max(math.fsum(q) / m, min(q)), max(q))
    v_bar = math.fsum(v) / m
    if rule == "Ts":
        return q_bar, (1.0 + 1.0 / m) * v_bar
    if all(x == q[0] for x in q):
        return q_bar, v_bar
    b = math.fsum((x - q_bar) ** 2 for x in q) / (m - 1)
    return q_bar, v_bar + b / m


def normal_interval(center: float, variance: float, level: float = 0.95) -> tuple[float, float]:
    """The normal-quantile interval (lower, upper): center +-
    z_{(1+level)/2} * sqrt(variance)."""
    if not (0.0 < level < 1.0):
        raise EstimandError(f"level must lie in (0, 1), got {level}")
    if variance < 0:
        raise EstimandError("variance must be non-negative")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    half = z * math.sqrt(variance)
    return center - half, center + half


def mean_point_estimand(ds: Dataset, column: str) -> tuple[float, float]:
    """Sample mean with variance s^2/n (unbiased s^2). Needs n >= 2, and
    raises when either overflows (values near 1e300)."""
    kind = ds.schema.kind(column)
    if not kind.is_numeric:
        raise EstimandError(f"column {column!r} is not numeric")
    x = ds.column(column)
    n = x.shape[0]
    if n < 2:
        raise EstimandError("mean estimand needs at least two rows")
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(x.mean())
        v = float(x.var(ddof=1) / n)
    if not (math.isfinite(q) and math.isfinite(v)):
        raise EstimandError(f"the mean of column {column!r} or its variance is not finite")
    return q, v


@dataclass(frozen=True)
class FitSpec:
    """One regression fit: id, family ('linear' or 'logistic'), target column,
    predictor columns."""

    id: str
    family: str
    target: str
    predictors: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.family not in ("linear", "logistic"):
            raise EstimandError(f"fit {self.id!r}: unknown family {self.family!r}")
        if self.target in self.predictors:
            raise EstimandError(f"fit {self.id!r}: target cannot predict itself")
        if not self.id:
            raise EstimandError("fit id must be non-empty")


def load_fitspecs(path: str | Path) -> tuple[FitSpec, ...]:
    """Read fit specifications from a JSON document (see README grammar)."""
    return read_json(path, "fitspec", EstimandError, _fitspecs)


def _fitspecs(doc) -> tuple[FitSpec, ...]:
    check = JsonFields(EstimandError)
    doc = check.object(doc, "the fitspecs", ("fits",))
    fits = []
    entries = check.objects(doc["fits"], "fits", ("id", "family", "target"), ("predictors",))
    for where, entry in entries:
        fit_id = check.typed(entry["id"], str, f"{where}.id")
        named = f"fit {fit_id!r}: predictors"
        predictors = check.strings(entry.get("predictors", []), named)
        if not predictors:
            raise EstimandError(f"{named} must be a non-empty list of strings, got []")
        family = check.typed(entry["family"], str, f"{where}.family")
        target = check.typed(entry["target"], str, f"{where}.target")
        fits.append(FitSpec(fit_id, family, target, predictors))
    if len({f.id for f in fits}) != len(fits):
        raise EstimandError("duplicate fit ids")
    return tuple(fits)


def check_fit(fit: FitSpec, schema: Schema) -> None:
    """Raise ``EstimandError``, naming the fit, when it names a column that
    ``schema`` lacks, or when its family does not suit the target: a linear
    fit needs a numeric target and a logistic fit a categorical one."""
    for name in (fit.target, *fit.predictors):
        if name not in schema.names:
            raise EstimandError(f"fit {fit.id!r}: unknown column {name!r}")
    kind = schema.kind(fit.target)
    if fit.family == "linear" and not kind.is_numeric:
        raise EstimandError(f"fit {fit.id!r}: target {fit.target!r} is not numeric")
    if fit.family == "logistic" and not kind.is_categorical:
        raise EstimandError(f"fit {fit.id!r}: target {fit.target!r} is not categorical")


def regression_estimands(ds: Dataset, fit: FitSpec) -> dict[str, tuple[float, float]]:
    """Fit the model on ``ds`` and return {coefficient name: (coefficient,
    variance)} for each encoded coefficient, intercept included, in
    coefficient order. Logistic fits contribute one set per non-reference
    class, named ``<class label>:<coefficient>``. A name that repeats (a
    numeric predictor called ``intercept``, say) is an error, since its
    coefficients could not be told apart."""
    check_fit(fit, ds.schema)
    X = Predictors.from_dataset(ds, fit.predictors)
    y = ds.column(fit.target)
    try:
        if fit.family == "linear":
            model = fit_ols(X, y)
            names = model.coef_names
            pairs = [(float(c), float(s) ** 2) for c, s in zip(model.coef, model.se)]
        else:
            lmodel = fit_logistic(X, y)
            levels = ds.schema.kind(fit.target).levels
            assert levels is not None
            names = [f"{levels[cls]}:{cname}"
                     for cls in lmodel.classes[1:] for cname in lmodel.coef_names]
            pairs = [(float(c), float(s) ** 2)
                     for c, s in zip(lmodel.coef.reshape(-1), lmodel.se.reshape(-1))]
    except FitError as err:
        raise EstimandError(f"fit {fit.id!r}: {err}") from err
    out = dict(zip(names, pairs))
    if len(out) < len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise EstimandError(f"fit {fit.id!r}: coefficient name {repeated!r} repeats")
    return out
