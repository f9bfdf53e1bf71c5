"""Point estimands, multi-dataset combining rules, and confidence intervals.

An estimand is computed once per synthetic dataset, giving m point estimates
q_i with within-dataset variances v_i. Combining averages them (q_bar,
v_bar) and offers two total-variance rules for interval construction:

* ``Ts`` (the default): (1 + 1/m) * v_bar, defined for any m >= 1.
* ``Tp``: v_bar + b/m with b the between-dataset variance of the q_i,
  defined only for m >= 2.

Intervals are normal: center q_bar, half-width z * sqrt(T).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

from .dataset import Dataset
from .errors import EstimandError, FitError
from .models.design import Predictors
from .models.linear import fit_ols
from .models.logistic import fit_logistic

RULES = ("Ts", "Tp")


@dataclass(frozen=True)
class EstimateSet:
    """m aligned (q_i, v_i) pairs for one estimand."""

    estimand_id: str
    q: tuple[float, ...]
    v: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.q) != len(self.v):
            raise EstimandError("q and v differ in length")
        if not self.q:
            raise EstimandError("estimate set is empty")
        if any(x < 0 for x in self.v):
            raise EstimandError("variances must be non-negative")

    @property
    def m(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class CombinedEstimate:
    estimand_id: str
    m: int
    q_bar: float
    v_bar: float
    b: float | None
    t_p: float | None
    t_s: float
    rule: str

    @property
    def total_variance(self) -> float:
        if self.rule == "Ts":
            return self.t_s
        assert self.t_p is not None
        return self.t_p


def combine(estimates: EstimateSet, rule: str = "Ts") -> CombinedEstimate:
    """Average the estimates and compute the requested total variance.

    Exactly-summed (math.fsum), so the result is invariant under permutation
    of the datasets, and b is exactly zero when all q_i coincide. The final
    division can round q_bar one ulp outside [min q_i, max q_i] (three
    copies of 699050.9144240941 average one ulp low); it is clamped back.
    """
    if rule not in RULES:
        raise EstimandError(f"unknown combining rule {rule!r}")
    m = estimates.m
    if rule == "Tp" and m < 2:
        raise EstimandError("rule Tp needs at least two datasets")
    q_bar = min(max(math.fsum(estimates.q) / m, min(estimates.q)), max(estimates.q))
    v_bar = math.fsum(estimates.v) / m
    if m == 1:
        b = None
        t_p = None
    elif all(x == estimates.q[0] for x in estimates.q):
        b = 0.0
        t_p = v_bar
    else:
        b = math.fsum((x - q_bar) ** 2 for x in estimates.q) / (m - 1)
        t_p = v_bar + b / m
    t_s = (1.0 + 1.0 / m) * v_bar
    return CombinedEstimate(
        estimand_id=estimates.estimand_id,
        m=m,
        q_bar=q_bar,
        v_bar=v_bar,
        b=b,
        t_p=t_p,
        t_s=t_s,
        rule=rule,
    )


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float

    @property
    def center(self) -> float:
        return (self.lower + self.upper) / 2.0

    @property
    def width(self) -> float:
        return self.upper - self.lower


def normal_interval(center: float, variance: float, level: float = 0.95) -> ConfidenceInterval:
    """Normal-quantile interval: center +- z_{(1+level)/2} * sqrt(variance)."""
    if not (0.0 < level < 1.0):
        raise EstimandError(f"level must lie in (0, 1), got {level}")
    if variance < 0:
        raise EstimandError("variance must be non-negative")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    half = z * math.sqrt(variance)
    return ConfidenceInterval(center - half, center + half, level)


def ci(combined: CombinedEstimate, level: float = 0.95) -> ConfidenceInterval:
    return normal_interval(combined.q_bar, combined.total_variance, level)


def mean_point_estimand(ds: Dataset, column: str) -> tuple[float, float]:
    """Sample mean with variance s^2/n (unbiased s^2). Needs n >= 2."""
    kind = ds.schema.kind(column)
    if not kind.is_numeric:
        raise EstimandError(f"column {column!r} is not numeric")
    x = ds.column(column)
    n = x.shape[0]
    if n < 2:
        raise EstimandError("mean estimand needs at least two rows")
    q = float(x.mean())
    v = float(x.var(ddof=1) / n)
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
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise EstimandError(f"fitspec file is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or "fits" not in doc:
        raise EstimandError("fitspec document must be an object with a 'fits' list")
    fits = []
    for entry in doc["fits"]:
        try:
            fits.append(
                FitSpec(
                    id=entry["id"],
                    family=entry["family"],
                    target=entry["target"],
                    predictors=tuple(entry.get("predictors", ())),
                )
            )
        except (KeyError, TypeError) as err:
            raise EstimandError(f"bad fit entry {entry!r}: {err}") from err
    ids = [f.id for f in fits]
    if len(set(ids)) != len(ids):
        raise EstimandError("duplicate fit ids")
    return tuple(fits)


@dataclass(frozen=True)
class CoefEstimate:
    name: str
    q: float
    v: float


def regression_estimands(ds: Dataset, fit: FitSpec) -> tuple[CoefEstimate, ...]:
    """Fit the model on ``ds`` and return one (coefficient, variance) pair per
    encoded coefficient, intercept included. Logistic fits contribute one set
    per non-reference class, named ``<class label>:<coefficient>``."""
    X = Predictors.from_dataset(ds, fit.predictors)
    target_kind = ds.schema.kind(fit.target)
    y = ds.column(fit.target)
    try:
        if fit.family == "linear":
            if not target_kind.is_numeric:
                raise FitError(f"target {fit.target!r} is not numeric")
            model = fit_ols(X, y)
            return tuple(
                CoefEstimate(name, float(c), float(s) ** 2)
                for name, c, s in zip(model.coef_names, model.coef, model.se)
            )
        if not target_kind.is_categorical:
            raise FitError(f"target {fit.target!r} is not categorical")
        lmodel = fit_logistic(X, y)
        levels = target_kind.levels
        assert levels is not None
        out = []
        for row, cls in enumerate(lmodel.classes[1:]):
            for col, cname in enumerate(lmodel.coef_names):
                out.append(
                    CoefEstimate(
                        f"{levels[cls]}:{cname}",
                        float(lmodel.coef[row, col]),
                        float(lmodel.se[row, col]) ** 2,
                    )
                )
        return tuple(out)
    except FitError as err:
        raise EstimandError(f"fit {fit.id!r}: {err}") from err


def estimate_set_from(
    estimand_id: str, pairs: list[tuple[float, float]]
) -> EstimateSet:
    return EstimateSet(
        estimand_id=estimand_id,
        q=tuple(p[0] for p in pairs),
        v=tuple(p[1] for p in pairs),
    )
