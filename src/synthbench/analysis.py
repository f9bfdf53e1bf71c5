"""Analysis-level comparisons: classification, ad-hoc predicates, Pearson r.

The classifier comparison mirrors how an analyst would use a released
dataset: ``classifier_baseline`` trains a classifier on the original, and
``classify_compare`` trains the same classifier on each synthetic dataset;
all are evaluated on the original records. Besides each accuracy it reports
record-level agreement: the share of records on which the synthetic-trained
and original-trained models are either both correct or both wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Dataset, JsonFields, read_json
from .errors import AnalysisError
from .models.cart import CartProblem, CartTree, fit_cart
from .models.design import Predictors
from .synthesis import SyntheticSet

# Each ad-hoc operator's comparison of a numeric column with a value.
_ADHOC_COMPARE = {
    "eq": np.equal,
    "le": np.less_equal,
    "ge": np.greater_equal,
    "lt": np.less,
    "gt": np.greater,
}
ADHOC_OPS = tuple(_ADHOC_COMPARE)
_CONDITION_KEYS = ("column", "op", "value")


def _classifier_problem(train: Dataset, target: str) -> CartProblem:
    """The donor tree of ``target`` on every other column of ``train``."""
    names = [n for n in train.schema.names if n != target]
    X = Predictors.from_dataset(train, names)
    # Stability floor. A deeply overfit tree trained on label-independent
    # data scores systematically below the majority rate (greedy noise
    # splits concentrate minority rows), so the comparison would punish a
    # synthesizer beyond the information it destroyed. sqrt(n) leaves keep
    # noise-trained trees close to a majority vote while leaving real
    # structure easy to pick up.
    min_leaf = max(5, math.isqrt(train.n_rows))
    return CartProblem(X, train.column(target), train.schema.kind(target), min_leaf)


def _predict(tree: CartTree, train: Dataset, evaluate: Dataset, target: str) -> np.ndarray:
    """The class ``tree``, fitted on ``train``, predicts for each record of
    ``evaluate``."""
    return tree.predict_class([evaluate.column(n) for n in tree.names], train.column(target))


@dataclass(frozen=True)
class ClassifierBaseline:
    """The original-trained side of a classifier comparison on ``target``:
    the original records it is scored on, their labels, and which of them it
    gets right."""

    target: str
    eval_ds: Dataset
    y_true: np.ndarray
    correct: np.ndarray


def classifier_baseline(
    original: Dataset, target: str, *, test_fraction: float | None = None
) -> ClassifierBaseline:
    """Train the donor-tree classifier on the original data and score it on
    the original records.

    Each tree's leaves hold at least max(5, sqrt(n)) of its n training rows,
    so that a classifier trained on label-independent data degrades to
    roughly majority-vote accuracy instead of below it.

    ``test_fraction`` switches on a holdout split (off by default), drawn
    from seed 0: the original-trained tree sees only the training rows, and
    every tree is scored only on the held-out rows.
    """
    if not original.schema.kind(target).is_categorical:
        raise AnalysisError(f"target {target!r} is not categorical")
    if len(original.schema) < 2:
        raise AnalysisError("classification needs at least one predictor column")

    if test_fraction is None:
        train_orig = original
        eval_ds = original
    else:
        if not (0.0 < test_fraction < 1.0):
            raise AnalysisError("test_fraction must lie in (0, 1)")
        n = original.n_rows
        perm = np.random.default_rng(0).permutation(n)
        n_test = max(1, int(round(test_fraction * n)))
        test_rows = np.sort(perm[:n_test])
        train_rows = np.sort(perm[n_test:])
        if train_rows.size == 0:
            raise AnalysisError("test_fraction leaves no training rows")
        train_orig = original.take(train_rows)
        eval_ds = original.take(test_rows)

    y_true = eval_ds.column(target)
    (tree,) = fit_cart([_classifier_problem(train_orig, target)]).trees
    correct = _predict(tree, train_orig, eval_ds, target) == y_true
    correct.flags.writeable = False
    return ClassifierBaseline(target, eval_ds, y_true, correct)


def classify_compare(
    baseline: ClassifierBaseline, synthetic: SyntheticSet
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Train the classifier on each synthetic dataset, the trees growing as
    one forest, and score it on the baseline's records. Returns each
    dataset's accuracy and its agreement with the original-trained tree."""
    if synthetic.m < 1:
        raise AnalysisError("no synthetic datasets to evaluate")
    target = baseline.target
    forest = fit_cart([_classifier_problem(ds, target) for ds in synthetic.datasets])
    correct = [
        _predict(tree, ds, baseline.eval_ds, target) == baseline.y_true
        for ds, tree in zip(synthetic.datasets, forest.trees)
    ]
    return (
        tuple(float(c.mean()) for c in correct),
        tuple(float((c == baseline.correct).mean()) for c in correct),
    )


@dataclass(frozen=True)
class Condition:
    column: str
    op: str
    value: float | str

    def __post_init__(self) -> None:
        if self.op not in ADHOC_OPS:
            raise AnalysisError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class AdhocPredicate:
    id: str
    conditions: tuple[Condition, ...]


def load_adhoc(path: str | Path) -> tuple[AdhocPredicate, ...]:
    """Read ad-hoc predicates from a JSON document (see README grammar)."""
    return read_json(path, "adhoc", AnalysisError, _adhoc)


def _adhoc(doc) -> tuple[AdhocPredicate, ...]:
    check = JsonFields(AnalysisError)
    doc = check.object(doc, "the adhoc document", ("analyses",))
    out = []
    for where, entry in check.objects(doc["analyses"], "analyses", ("id", "conditions")):
        conds = []
        for at, c in check.objects(entry["conditions"], f"{where}.conditions", _CONDITION_KEYS):
            if not isinstance(c["value"], str):
                check.typed(c["value"], float, f"{at}.value")
            column = check.typed(c["column"], str, f"{at}.column")
            conds.append(Condition(column, check.typed(c["op"], str, f"{at}.op"), c["value"]))
        out.append(AdhocPredicate(check.typed(entry["id"], str, f"{where}.id"), tuple(conds)))
    if len({a.id for a in out}) != len(out):
        raise AnalysisError("duplicate adhoc ids")
    return tuple(out)


def adhoc_proportion(ds: Dataset, predicate: AdhocPredicate) -> float:
    """Fraction of rows satisfying the conjunction of the conditions."""
    keep = np.ones(ds.n_rows, dtype=bool)
    for cond in predicate.conditions:
        kind = ds.schema.kind(cond.column)
        col = ds.column(cond.column)
        if kind.is_categorical:
            if cond.op != "eq":
                raise AnalysisError(
                    f"operator {cond.op!r} is not valid for categorical {cond.column!r}"
                )
            levels = kind.levels
            assert levels is not None
            if cond.value not in levels:
                raise AnalysisError(
                    f"{cond.value!r} is not a level of column {cond.column!r}"
                )
            keep &= col == levels.index(cond.value)
        else:
            try:
                v = float(cond.value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise AnalysisError(
                    f"condition on numeric column {cond.column!r} needs a number"
                ) from None
            keep &= _ADHOC_COMPARE[cond.op](col, v)
    return float(keep.mean())


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; needs n >= 3 and non-constant series."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise AnalysisError("series differ in length")
    if x.shape[0] < 3:
        raise AnalysisError("correlation needs at least three points")
    if x.max() == x.min() or y.max() == y.min():
        raise AnalysisError("correlation is undefined for a constant series")
    dx = x - x.mean()
    dy = y - y.mean()
    return float((dx @ dy) / math.sqrt((dx @ dx) * (dy @ dy)))
